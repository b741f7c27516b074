"""repro — a reproduction of *Fast IPv6 Network Periphery Discovery and
Security Implications* (Li et al., DSN 2021).

The package implements the paper's full pipeline against a synthetic IPv6
Internet:

* :mod:`repro.core` — **XMap**, the fast IPv6 scanner (cyclic-group address
  permutation over arbitrary bit windows, stateless SipHash validation,
  radix blocklists, probe modules, rate control, sharding);
* :mod:`repro.net` — the IPv6/ICMPv6 substrate: wire formats, routing
  tables, RFC-4443-faithful device models, and the network simulator;
* :mod:`repro.isp` — the twelve-ISP / fifteen-block population models;
* :mod:`repro.services` — application services, banners, the ZGrab2-like
  scanner, and the CVE database;
* :mod:`repro.discovery` — subnet inference, periphery census, IID and
  vendor analysis;
* :mod:`repro.loop` — the routing-loop detector, amplification attack, BGP
  survey, and router case study;
* :mod:`repro.bgp` — the inter-domain control plane: AS/IX fabric,
  Gao–Rexford path-vector solver, and leak/hijack/flap/failover scenarios
  compiled into the per-device tables;
* :mod:`repro.analysis` — regeneration of every table and figure.

Quickstart::

    from repro import build_deployment, discover

    deployment = build_deployment(scale=20_000)
    isp = deployment.isps["in-jio-broadband"]
    census = discover(deployment.network, deployment.vantage, isp.scan_spec)
    print(census.n_unique, "peripheries;", census.same_pct, "% same-/64")
"""

from repro.core import (
    Blocklist,
    CyclicGroupPermutation,
    FeistelPermutation,
    IidStrategy,
    ProbeResult,
    ScanConfig,
    ScanRange,
    ScanResult,
    Scanner,
    make_permutation,
)
from repro.discovery import (
    IidClass,
    PeripheryCensus,
    VendorIdentifier,
    classify_iid,
    discover,
    infer_subprefix_length,
)
from repro.isp import (
    DEFAULT_CATALOG,
    PAPER_PROFILES,
    Deployment,
    build_deployment,
    profile_by_key,
)
from repro.loop import (
    find_loops,
    run_loop_attack,
    run_case_study,
)
from repro.bgp import (
    BgpFabric,
    build_internet,
    build_leak_demo,
    compute_delta,
)
from repro.net import IPv6Addr, IPv6Prefix, MacAddress, Network
from repro.service import CampaignSpec, ScanService, TenantPolicy
from repro.services import AppScanner, DEFAULT_CVE_DB
from repro.store import ResultStore, diff, query
from repro.telemetry import (
    FlightRecorder,
    HealthEngine,
    HealthReport,
    HealthRule,
    SeriesSampler,
    SeriesSet,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core scanner
    "Scanner",
    "ScanConfig",
    "ScanRange",
    "ScanResult",
    "ProbeResult",
    "IidStrategy",
    "Blocklist",
    "CyclicGroupPermutation",
    "FeistelPermutation",
    "make_permutation",
    # substrate
    "Network",
    "IPv6Addr",
    "IPv6Prefix",
    "MacAddress",
    # populations
    "Deployment",
    "build_deployment",
    "PAPER_PROFILES",
    "profile_by_key",
    "DEFAULT_CATALOG",
    # pipelines
    "discover",
    "infer_subprefix_length",
    "PeripheryCensus",
    "IidClass",
    "classify_iid",
    "VendorIdentifier",
    "AppScanner",
    "DEFAULT_CVE_DB",
    "find_loops",
    "run_loop_attack",
    "run_case_study",
    # BGP fabric
    "BgpFabric",
    "build_internet",
    "build_leak_demo",
    "compute_delta",
    # result store
    "ResultStore",
    "query",
    "diff",
    # observability
    "SeriesSampler",
    "SeriesSet",
    "HealthEngine",
    "HealthReport",
    "HealthRule",
    "FlightRecorder",
    # scan service
    "ScanService",
    "CampaignSpec",
    "TenantPolicy",
]
