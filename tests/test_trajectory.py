"""Golden trajectories: exact search paths pinned on fixed instances.

A refactor that keeps behaviour must reproduce every count and every move,
and the outer iteration and pass that found the best.
The move-log digest uses the benchmark's serialization (each entry as a list
of ints), so a drift seen here is the drift the benchmark would report.

Recorded with the artificial root arcs capped at zero after `solve_lp`: a
capped root arc blocks at 0 on the side where a cycle increases it, so some
degenerate pivots through the root leave by a different arc than when those
arcs stayed open, and the paths differ from that point on. Re-recorded
once pricing skipped zero-capacity arcs and zero-supply nodes started on
artificial arcs toward the root, which dropped the pivots that only flipped
or swapped a capped root arc: every pivot count fell, every best value
stayed.
"""

import hashlib
import json

import pytest

from fixnet import gits, probio

GOLDEN = [
    (probio.FctpSpec(4, 4, 400, fc_count=12, seed=9000), {},
     (2154, 2079, 51, 2130, 3, 0, 0),
     "eb260a6dc6737405e2dfc04543437aeba2e44e356dd1ac80324e6d34f33977fc"),
    (probio.FctpSpec(6, 6, 600, fc_count=12, seed=9006), {},
     (2896, 2374, 51, 2113, 2, 0, 0),
     "c0bfb9446c7f62666713b421005b86c7bf9e025e861a227d5ec4c399e90c133b"),
    (probio.FctpSpec(10, 10, 10000, fc_range=(400, 1600), seed=3), {},
     (56136, 2703, 51, 2181, 1, 0, 14),
     "51385b3880a10c18fdd3131b66b0234b10ca36651fe2504a4260091d8e180629"),
    (probio.NetgenFcSpec(120, 30, 30, 900, 5000, fc_range=(1600, 6400), seed=5),
     {"MaxOutsideIter": 8},
     (233862, 1752, 9, 405, 0, 0, 1),
     "9ef57480176908daa46e7d2292184106d588f1d3dd7e2d89868f49b0881bdaf1"),
    (probio.FctpSpec(5, 5, 500, fc_count=12, seed=9004), {"DoTabu": False},
     (2384, 298, 51, 161, 1, 0, 0),
     "081eb620680b33efb55e4669800b03359db90bae22080d3c5925489720f35b84"),
    # distinct phase tenures and a best found in a late pass: 20 of 36 arcs
    # charged, 13 mini-diversifications and 6 passes
    (probio.FctpSpec(6, 6, total_supply=150, fc_range=(200, 800), fc_count=20, seed=23),
     {"LimMatch": 1, "BadLuck": 2, "DescentTenure": 3, "AscentTenure": 7},
     (1563, 2667, 51, 2101, 6, 2, 10),
     "315f36ea886417b4b2db0023ca7be5d8865d217c0a7ac4309a8dc0ea8f5ca62b"),
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
            res.passes_used, res.best_pass, res.gbest_iter) == counts
    log = json.dumps([[int(v) for v in entry] for entry in eng.move_log])
    assert hashlib.sha256(log.encode()).hexdigest() == digest
