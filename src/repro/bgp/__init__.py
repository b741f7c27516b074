"""The AS-level BGP fabric: declarative topology, policy routing, chaos.

This package gives the simulator a control plane.  Declare
:class:`AutonomousSystem` objects (transit / stub / multi-homed CPE-edge),
:class:`InternetExchange` peering LANs, and eBGP sessions with Gao–Rexford
transit/peer relationships; the deterministic, seedable
:class:`PathVectorSolver` compiles them — valley-free export, local-pref
over AS-path length over a seeded tiebreak — into the **existing**
per-device :class:`~repro.net.routing.RoutingTable`\\ s, so the forwarding
engine, flow caches, scanner, and result store all run unchanged on top.

Control-plane incidents are data, not code: a :class:`RouteLeak`,
:class:`PrefixHijack`, :class:`SessionFlap`, or :class:`Failover` is
handed to :func:`compute_delta`, which reconverges exactly the affected
prefixes and emits a :class:`TableDelta` of per-device route operations —
applied and reverted mid-scan through the :mod:`repro.faults`
virtual-clock journal.

:func:`build_internet` builds the Internet-scale scan substrate (tier-1
mesh, regionals, hundreds of CPE-edge ASes): the Table IX / Figure 5
population is ``world.edges``, attributed through
``world.fabric.bgp_table(roles=(AsRole.EDGE,))``.
"""

from repro.bgp.fabric import (
    IX_LAN_BLOCK,
    MANAGED_ROLES,
    TRACKED_ROLES,
    AsRole,
    AutonomousSystem,
    BgpFabric,
    FabricError,
    InternetExchange,
)
from repro.bgp.scenarios import (
    Failover,
    PrefixHijack,
    RouteLeak,
    RouteOp,
    Scenario,
    SessionFlap,
    TableDelta,
    compute_delta,
)
from repro.bgp.solver import (
    PREF_CUSTOMER,
    PREF_PEER,
    PREF_PROVIDER,
    PREF_SELF,
    LeakSpec,
    PathVectorSolver,
    Rib,
    RibRoute,
    Session,
    SolverTopology,
    rib_digest,
)
from repro.bgp.table import BgpPrefixInfo, BgpTable
from repro.bgp.world import (
    GENERAL_IID_MIX,
    LOOP_IID_MIX,
    TAIL_COUNTRIES,
    TOP_LOOP_ASES,
    VANTAGE_ASN,
    EdgeAs,
    InternetWorld,
    build_internet,
    build_leak_demo,
    populate_edge_as,
)

__all__ = [
    "IX_LAN_BLOCK",
    "MANAGED_ROLES",
    "TRACKED_ROLES",
    "AsRole",
    "AutonomousSystem",
    "BgpFabric",
    "FabricError",
    "InternetExchange",
    "Failover",
    "PrefixHijack",
    "RouteLeak",
    "RouteOp",
    "Scenario",
    "SessionFlap",
    "TableDelta",
    "compute_delta",
    "PREF_CUSTOMER",
    "PREF_PEER",
    "PREF_PROVIDER",
    "PREF_SELF",
    "LeakSpec",
    "PathVectorSolver",
    "Rib",
    "RibRoute",
    "Session",
    "SolverTopology",
    "rib_digest",
    "BgpPrefixInfo",
    "BgpTable",
    "GENERAL_IID_MIX",
    "LOOP_IID_MIX",
    "TAIL_COUNTRIES",
    "TOP_LOOP_ASES",
    "VANTAGE_ASN",
    "EdgeAs",
    "InternetWorld",
    "build_internet",
    "build_leak_demo",
    "populate_edge_as",
]
