"""Stateless probe validation.

A ZMap-family scanner keeps no per-probe state: every mutable field it
controls in a probe (ICMP ident/seq, TCP source port and sequence number,
UDP source port) is derived from a keyed hash of the probe's destination
address.  When a reply (or an ICMPv6 error quoting the probe) comes back,
re-deriving the hash tells the scanner whether the packet belongs to this
scan — dropping spoofed or stale traffic without a lookup table.

The key is a per-scan random secret; an off-path attacker who cannot observe
probes cannot forge validating replies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.siphash import SipKey
from repro.core.target import TargetBlock
from repro.net.addr import IPv6Addr


@dataclass(frozen=True)
class ProbeFields:
    """The validator-derived header fields for one probe destination."""

    ident: int  # 16-bit (ICMP ident / source-port material)
    seq: int  # 16-bit (ICMP seq)
    tcp_seq: int  # 32-bit (TCP sequence)
    sport: int  # 16-bit ephemeral source port (32768..65535)


def seed_secret(seed: int) -> bytes:
    """The deterministic 16-byte validation secret for a scan seed.

    Shared by :func:`repro.discovery.periphery.discover` and the
    orchestration engine's :class:`~repro.engine.planner.ProbeSpec` so that
    sharded and single-shot scans of the same seed validate identically.
    """
    return (((seed * 0x9E3779B9) & ((1 << 128) - 1)) or 1).to_bytes(16, "little")


class Validator:
    """Derives and checks per-destination probe fields from a scan secret."""

    def __init__(self, secret: bytes | None = None) -> None:
        if secret is None:
            secret = os.urandom(16)
        if len(secret) != 16:
            raise ValueError("validation secret must be 16 bytes")
        self.secret = secret
        self._key = SipKey(secret)
        #: (value, tag) of the most recent derivation.  Probe modules tag
        #: the same destination twice per probe (header fields + payload
        #: tag) and re-derive it once more to validate the usually-immediate
        #: reply, so this one-slot memo saves one to two SipHash runs per
        #: probe on the scan hot path.
        self._last: tuple = (None, 0)
        #: Block-primed tags (see :meth:`prime`): the newest block's and the
        #: one before it.
        self._primed: dict = {}
        self._primed_before: dict = {}

    def prime(self, values) -> None:
        """Precompute the tags for a block of destination values.

        ``values`` is a :class:`~repro.core.target.TargetBlock` or a list of
        ints.  :meth:`Scanner.targets` primes each target block through the
        vectorised SipHash path — one kernel call over the block's words
        (:meth:`SipKey.hash_words_block`) where it carries them — and
        subsequent :meth:`tag` calls for those destinations (probe build,
        reply validation) become dict hits.

        Two generations are kept — this block and the previous one — and
        older ones dropped, bounding memory.  One is not enough: a chunk of
        :meth:`Scanner.run` is validated only after its last target has
        been pulled, and a chunk that straddles two target blocks (every
        chunk until the first sync point when a progress hook is set,
        because the first chunk is then a single target) pulls the next
        block, re-priming, before the replies to the older block's targets
        are checked.

        Two cover every chunk of a scan with no blocklist: a chunk is at
        most a block's worth of targets and each block then yields all of
        its own.  Blocklist vetoes shrink what a block yields (and, near a
        ``max_probes`` stop, how many indices the next one pulls), so a
        chunk can then draw on three or more blocks; replies to the
        oldest's targets miss both dicts and :meth:`tag` re-hashes them —
        a few scalar hashes, the same tags.
        """
        self._primed_before = self._primed
        if isinstance(values, TargetBlock):
            if values.lo is not None:
                tags = self._key.hash_words_block(values.lo, values.hi)
                self._primed = dict(zip(values.values, tags.tolist()))
                return
            values = values.values
        self._primed = dict(zip(values, self._key.hash_uints_block(values)))

    def tag(self, dst: IPv6Addr | int) -> int:
        """The 64-bit validation tag for a destination address."""
        value = dst.value if isinstance(dst, IPv6Addr) else dst
        last_value, last_tag = self._last
        if value == last_value:
            return last_tag
        tag = self._primed.get(value)
        if tag is None:
            tag = self._primed_before.get(value)
        if tag is None:
            tag = self._key.hash_uints(value)
        self._last = (value, tag)
        return tag

    def fields(self, dst: IPv6Addr | int) -> ProbeFields:
        tag = self.tag(dst)
        return ProbeFields(
            ident=tag & 0xFFFF,
            seq=(tag >> 16) & 0xFFFF,
            tcp_seq=(tag >> 16) & 0xFFFFFFFF,
            sport=0x8000 | ((tag >> 48) & 0x7FFF),
        )

    def check_echo(self, dst: IPv6Addr | int, ident: int, seq: int) -> bool:
        fields = self.fields(dst)
        return fields.ident == ident and fields.seq == seq

    def check_tcp(self, dst: IPv6Addr, sport: int, ack: int) -> bool:
        """Validate a SYN-ACK/RST: their ack must be our seq + 1."""
        fields = self.fields(dst)
        return fields.sport == sport and ack == (fields.tcp_seq + 1) & 0xFFFFFFFF

    def check_udp(self, dst: IPv6Addr, sport: int) -> bool:
        return self.fields(dst).sport == sport
