"""Golden trajectories: exact search paths pinned on fixed instances.

A refactor that keeps behaviour must reproduce every count and every move.
The move-log digest uses the benchmark's serialization (each entry as a list
of ints), so a drift seen here is the drift the benchmark would report.

Recorded with the artificial root arcs capped at zero after `solve_lp`: a
capped root arc blocks at 0 on the side where a cycle increases it, so some
degenerate pivots through the root leave by a different arc than when those
arcs stayed open, and the paths differ from that point on.
"""

import hashlib
import json

import pytest

from fixnet import gits, probio

GOLDEN = [
    (probio.FctpSpec(4, 4, 400, fc_count=12, seed=9000), {},
     (2154, 2269, 51, 2130, 3),
     "78ea08acb863680af4cbd5664c703ac6a894c6049f84ca6fd360772acd94c38b"),
    (probio.FctpSpec(6, 6, 600, fc_count=12, seed=9006), {},
     (2896, 2429, 51, 2113, 2),
     "245a4f289fd8b91284a19461a75083317fd38a7bf5fc675662c6cea363b20d63"),
    (probio.FctpSpec(10, 10, 10000, fc_range=(400, 1600), seed=3), {},
     (56136, 2730, 51, 2186, 0),
     "c125c7fa7c74dcb8f1787940842787090cf4e376b42d27a939094d18fe5a57b9"),
    (probio.NetgenFcSpec(120, 30, 30, 900, 5000, fc_range=(1600, 6400), seed=5),
     {"MaxOutsideIter": 8},
     (233862, 1868, 9, 405, 0),
     "e349b8c7033f24ae4530832e89fd1e6ea3965ccb2e0d7f37437c848bb9ea9ddc"),
    (probio.FctpSpec(5, 5, 500, fc_count=12, seed=9004), {"DoTabu": False},
     (2384, 324, 51, 161, 2),
     "4c9ade7e4b058f2af011b08b1c009c4eeb3dada43a65cee1ddac59714db8ae4d"),
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
