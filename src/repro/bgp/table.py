"""The Routeviews-shaped attribution table: prefix → (ASN, country).

The paper joins every loop finding back through the global BGP table
(Routeviews) and MaxMind to name the origin AS and country (§VI-B,
Table IX, Figure 5).  :class:`BgpTable` is the offline stand-in — a
longest-prefix-match view over advertised prefixes, built on the shared
:class:`repro.net.lpm.PrefixTrie` like the forwarding tables and the
scanner blocklist.

It lives here so the BGP fabric (:mod:`repro.bgp.fabric`) can derive one
from its RIB (:meth:`~repro.bgp.fabric.BgpFabric.bgp_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.lpm import PrefixTrie


@dataclass(frozen=True)
class BgpPrefixInfo:
    prefix: IPv6Prefix
    asn: int
    country: str


class BgpTable:
    """Longest-prefix lookup from address to advertising AS and country."""

    def __init__(self) -> None:
        self._trie: PrefixTrie[BgpPrefixInfo] = PrefixTrie()
        self.entries: List[BgpPrefixInfo] = []

    def add(self, info: BgpPrefixInfo) -> None:
        self._trie.set(info.prefix, info)
        self.entries.append(info)

    def lookup(self, addr: IPv6Addr | int) -> Optional[BgpPrefixInfo]:
        entry = self._trie.longest(addr)
        return None if entry is None else entry[1]

    def __len__(self) -> int:
        return len(self.entries)
