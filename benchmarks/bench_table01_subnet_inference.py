"""Table I — inferred sub-prefix length for end-users of target ISPs.

Runs the §IV-A boundary-inference algorithm against each simulated block and
checks it recovers every profile's configured delegation length (the paper's
/64, /60, /56 mix), using orders of magnitude fewer probes than exhaustion.
"""

from repro.analysis.reproduce import infer_delegations
from repro.analysis.tables import table1_subnet_inference

from benchmarks.conftest import SEED, write_result


def test_table1_subnet_inference(benchmark, deployment):
    inferences = benchmark.pedantic(
        lambda: infer_delegations(deployment, SEED), iterations=1, rounds=1
    )

    table = table1_subnet_inference(inferences)
    write_result("table01_subnet_inference", table)

    for key, inference in inferences.items():
        profile = deployment.isps[key].profile
        assert inference.boundary_length == profile.subprefix_len, key
        assert inference.probes_sent < 600, key
