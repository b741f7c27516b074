"""The one longest-prefix-match trie everything routes through.

Three parts of the simulator need "most specific covering prefix" queries:
forwarding tables (:mod:`repro.net.routing`), scanner block/allow lists
(:mod:`repro.core.blocklist`), and BGP origin attribution
(:class:`repro.bgp.table.BgpTable`).  They historically carried three
near-identical binary-trie walks; this module is the single shared
implementation they all wrap now.

:class:`PrefixTrie` is a bitwise binary trie mapping
:class:`~repro.net.addr.IPv6Prefix` keys to arbitrary values.  Insert and
exact lookup cost O(prefix length); :meth:`PrefixTrie.longest` walks at most
128 bits and returns the most specific stored (prefix, value) pair covering
an address — the LPM semantics RFC 1812 forwarding, ZMap-style blocklists,
and Routeviews-style origin lookup all share.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.addr import IPv6Addr, IPv6Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("zero", "one", "entry")

    def __init__(self) -> None:
        self.zero: Optional[_Node[V]] = None
        self.one: Optional[_Node[V]] = None
        self.entry: Optional[Tuple[IPv6Prefix, V]] = None


class PrefixTrie(Generic[V]):
    """A binary trie from IPv6 prefixes to values, with LPM queries."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._count = 0

    def set(self, prefix: IPv6Prefix, value: V) -> bool:
        """Store ``value`` under ``prefix`` (replacing any previous value).

        Returns True when the prefix was new, False on replacement — which
        is what lets wrappers keep an O(1) length counter semantics-free.
        """
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (127 - depth)) & 1
            if bit:
                if node.one is None:
                    node.one = _Node()
                node = node.one
            else:
                if node.zero is None:
                    node.zero = _Node()
                node = node.zero
        created = node.entry is None
        if created:
            self._count += 1
        node.entry = (prefix, value)
        return created

    def get(self, prefix: IPv6Prefix) -> Optional[V]:
        """The value stored under exactly ``prefix``, or None."""
        node = self._find(prefix)
        if node is None or node.entry is None:
            return None
        return node.entry[1]

    def delete(self, prefix: IPv6Prefix) -> bool:
        """Remove the exact ``prefix``.  Returns True if it was present."""
        node = self._find(prefix)
        if node is None or node.entry is None:
            return False
        node.entry = None
        self._count -= 1
        return True

    def longest(self, addr: IPv6Addr | int) -> Optional[Tuple[IPv6Prefix, V]]:
        """The most specific stored (prefix, value) covering ``addr``."""
        value = addr.value if isinstance(addr, IPv6Addr) else addr
        node: Optional[_Node[V]] = self._root
        best = self._root.entry
        for depth in range(128):
            bit = (value >> (127 - depth)) & 1
            node = node.one if bit else node.zero  # type: ignore[union-attr]
            if node is None:
                break
            if node.entry is not None:
                best = node.entry
        return best

    def _find(self, prefix: IPv6Prefix) -> Optional[_Node[V]]:
        node: Optional[_Node[V]] = self._root
        for depth in range(prefix.length):
            if node is None:
                return None
            bit = (prefix.network >> (127 - depth)) & 1
            node = node.one if bit else node.zero
        return node

    def items(self) -> Iterator[Tuple[IPv6Prefix, V]]:
        """Every stored (prefix, value) pair, in trie traversal order."""
        stack: List[_Node[V]] = [self._root]
        while stack:
            node = stack.pop()
            if node.entry is not None:
                yield node.entry
            if node.one is not None:
                stack.append(node.one)
            if node.zero is not None:
                stack.append(node.zero)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, prefix: IPv6Prefix) -> bool:
        node = self._find(prefix)
        return node is not None and node.entry is not None
