"""The routing-loop attack study (§VI).

* :mod:`repro.loop.detector` — the hop-limit h / h+2 loop-location method of
  §VI-B, producing Tables IX/XI;
* :mod:`repro.loop.attack` — the amplification attack of §VI-A (Figure 4),
  measuring ISP↔CPE link crossings per attacker packet;
* :mod:`repro.loop.casestudy` — the 99-router firmware testbench of §VI-D
  (Table XII).

The synthetic global BGP table + AS/country registry (Routeviews/MaxMind
substitutes) behind Table IX and Figure 5 is :mod:`repro.bgp`.
"""

from repro.loop.detector import LoopRecord, LoopSurvey, find_loops
from repro.loop.attack import AttackReport, run_loop_attack
from repro.loop.casestudy import RouterModel, CaseStudyResult, run_case_study, CASE_STUDY_ROUTERS

__all__ = [
    "LoopRecord",
    "LoopSurvey",
    "find_loops",
    "AttackReport",
    "run_loop_attack",
    "RouterModel",
    "CaseStudyResult",
    "run_case_study",
    "CASE_STUDY_ROUTERS",
]
