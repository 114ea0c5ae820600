"""Golden trajectories: exact search paths pinned on fixed instances.

A refactor that keeps behaviour must reproduce every count and every move.
The move-log digest uses the benchmark's serialization (each entry as a list
of ints), so a drift seen here is the drift the benchmark would report.
"""

import hashlib
import json

import pytest

from fixnet import gits, probio

GOLDEN = [
    (probio.FctpSpec(4, 4, 400, fc_count=12, seed=9000), {},
     (2154, 2204, 51, 2154, 2),
     "707545acc6ca963c59d8d971e7e45caf988317da292e32531e615f6d93d46e44"),
    (probio.FctpSpec(6, 6, 600, fc_count=12, seed=9006), {},
     (2896, 2396, 51, 2113, 2),
     "3cbeb370a5c32b741ae581603b853716bfd66337e55ad1fa2c350125ea3c2d45"),
    (probio.FctpSpec(10, 10, 10000, fc_range=(400, 1600), seed=3), {},
     (56136, 2921, 51, 2198, 0),
     "2765dd002e13d3cef7083da6ce6fc7efa5e97c7a09cc6c0a64c8385e9b0346fa"),
    (probio.NetgenFcSpec(120, 30, 30, 900, 5000, fc_range=(1600, 6400), seed=5),
     {"MaxOutsideIter": 8},
     (239321, 1733, 9, 405, 0),
     "e3257a1e74c4ba296ead699e3fe39eed61dc2af505d1092f1ad985b6acb9240b"),
    (probio.FctpSpec(5, 5, 500, fc_count=12, seed=9004), {"DoTabu": False},
     (2384, 408, 51, 120, 2),
     "bd2988d6cd9d8f42748b232032e0b3dd90d596ddf5bf74e6127307483d51a91c"),
]


def generate(spec):
    if isinstance(spec, probio.FctpSpec):
        return probio.generate_fctp(spec)
    return probio.generate_netgen_fc(spec)


@pytest.mark.parametrize("spec,overrides,counts,digest", GOLDEN,
                         ids=[f"golden{k}" for k in range(len(GOLDEN))])
def test_golden_trajectory(spec, overrides, counts, digest):
    eng = gits.GhostImageSearch(generate(spec), gits.Params(**overrides), collect_trace=True)
    res = eng.run()
    assert (res.best_value, res.total_pivots, res.outside_iters, res.inside_iters,
            res.passes_used) == counts
    log = json.dumps([[int(v) for v in entry] for entry in eng.move_log])
    assert hashlib.sha256(log.encode()).hexdigest() == digest
