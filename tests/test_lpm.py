"""The shared longest-prefix-match trie (repro.net.lpm).

One implementation now backs the forwarding tables, the scanner blocklist,
and the BGP attribution table; these tests pin its exact-match, LPM, and
mutation semantics, and cross-validate it against the hash-LPM routing
table on random route sets.
"""

import random

from repro.core.blocklist import PrefixSet
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.device import Router
from repro.net.lpm import PrefixTrie
from repro.net.network import Network
from repro.net.routing import HashRoutingTable, Route, RouteKind, RoutingTable


def P(text: str) -> IPv6Prefix:
    return IPv6Prefix.from_string(text)


def A(text: str) -> IPv6Addr:
    return IPv6Addr.from_string(text)


class TestPrefixTrie:
    def test_set_get_delete(self):
        trie = PrefixTrie()
        assert trie.set(P("2001:db8::/32"), "a")
        assert not trie.set(P("2001:db8::/32"), "b")  # replacement
        assert trie.get(P("2001:db8::/32")) == "b"
        assert len(trie) == 1
        assert trie.delete(P("2001:db8::/32"))
        assert not trie.delete(P("2001:db8::/32"))
        assert len(trie) == 0
        assert trie.get(P("2001:db8::/32")) is None

    def test_longest_match_prefers_most_specific(self):
        trie = PrefixTrie()
        trie.set(P("2a00::/16"), 16)
        trie.set(P("2a00:1::/32"), 32)
        trie.set(P("2a00:1:0:5::/64"), 64)
        assert trie.longest(A("2a00:1:0:5::9"))[1] == 64
        assert trie.longest(A("2a00:1:0:6::9"))[1] == 32
        assert trie.longest(A("2a00:2::9"))[1] == 16
        assert trie.longest(A("2400::1")) is None

    def test_longest_returns_prefix_and_value(self):
        trie = PrefixTrie()
        trie.set(P("2001:db8::/32"), "x")
        prefix, value = trie.longest(A("2001:db8::1"))
        assert prefix == P("2001:db8::/32")
        assert value == "x"

    def test_default_prefix(self):
        trie = PrefixTrie()
        trie.set(P("::/0"), "default")
        trie.set(P("2001:db8::/32"), "specific")
        assert trie.longest(A("2001:db8::1"))[1] == "specific"
        assert trie.longest(A("9999::1"))[1] == "default"

    def test_contains_and_items(self):
        trie = PrefixTrie()
        prefixes = [P("2001:db8::/32"), P("2a00::/16"), P("::/0")]
        for i, prefix in enumerate(prefixes):
            trie.set(prefix, i)
        assert all(prefix in trie for prefix in prefixes)
        assert P("fd00::/8") not in trie
        assert sorted(dict(trie.items()).values()) == [0, 1, 2]

    def test_accepts_int_addresses(self):
        trie = PrefixTrie()
        trie.set(P("2001:db8::/32"), "v")
        assert trie.longest(A("2001:db8::7").value)[1] == "v"


class TestSharedBackends:
    """The wrappers (RoutingTable, PrefixSet) agree with the trie and with
    the independent hash implementation on random inputs."""

    def test_routing_table_matches_hash_table(self):
        rng = random.Random(42)
        trie_table, hash_table = RoutingTable(), HashRoutingTable()
        prefixes = []
        for _ in range(200):
            length = rng.choice((0, 16, 32, 48, 56, 64, 96, 128))
            network = rng.getrandbits(128) & IPv6Prefix(0, 0).mask if length == 0 \
                else (rng.getrandbits(128) >> (128 - length)) << (128 - length)
            prefix = IPv6Prefix(network, length)
            route = Route(prefix, RouteKind.UNREACHABLE)
            prefixes.append(prefix)
            trie_table.add(route)
            hash_table.add(route)
        for _ in range(100):
            prefix = rng.choice(prefixes)
            if rng.random() < 0.5:
                assert trie_table.remove(prefix) == hash_table.remove(prefix)
        for _ in range(500):
            addr = rng.getrandbits(128)
            assert trie_table.lookup(addr) == hash_table.lookup(addr)
        assert len(trie_table) == len(hash_table)

    def test_route_edits_bump_the_network_generation(self):
        nets = Network(), Network()
        routers = Router("r", A("2001:db8::1")), Router("s", A("2001:db8::2"))
        routers[0].table = RoutingTable()  # the other keeps the hash table
        for net, router in zip(nets, routers):
            net.register(router)
        loose = Router("loose", A("2001:db8::3"))  # registered nowhere
        block = P("2001:db8::/32")
        for net, router, bystander in zip(nets, routers, reversed(nets)):
            untouched = bystander.generation
            g0 = net.generation
            router.table.add_unreachable(block)
            assert net.generation > g0
            g1 = net.generation
            assert router.table.remove(block)
            assert net.generation > g1
            g2 = net.generation
            assert not router.table.remove(block)  # miss: no bump
            loose.table.add_unreachable(block)
            assert loose.table.remove(block)
            assert net.generation == g2
            assert bystander.generation == untouched  # edits are per network

    def test_prefix_set_covering(self):
        pset = PrefixSet(["2001:db8::/32", "2001:db8:1::/48"])
        assert pset.covering(A("2001:db8:1::1")) == P("2001:db8:1::/48")
        assert pset.covering(A("2001:db8:2::1")) == P("2001:db8::/32")
        assert pset.covering(A("2400::1")) is None
        assert A("2001:db8::1") in pset
        assert len(pset) == 2
        assert set(pset) == {P("2001:db8::/32"), P("2001:db8:1::/48")}
