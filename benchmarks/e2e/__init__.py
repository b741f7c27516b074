"""The end-to-end benchmark spine: campaigns through the daemon, per-layer
attribution.  See README.md in this directory."""
