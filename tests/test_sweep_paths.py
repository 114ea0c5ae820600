"""Differential checks of the fixed-charge sweep's two combinations: the
linear walk and binary lifting must give equal answers on the same state and
candidates, and both must equal evaluate_fc_entering."""

import numpy as np
import pytest

from fixnet import gits, probio
from fixnet import netcore as nc

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the property test below skips without it
    hypothesis = None


def assert_paths_agree(state, cand, walk=nc._walk, answer=nc._answer):
    """Walk and lift on the same candidates: equal deltas and objective
    deltas, and equal witnesses on degenerate answers. Both must equal
    evaluate_fc_entering, and each degenerate witness must block its
    candidate's cycle at 0. Returns the walk's answer."""
    walked = walk(state, cand)
    lifted = answer(state, nc._jump_tables(state), cand)
    assert np.array_equal(walked[0], lifted[0])
    assert np.array_equal(walked[1], lifted[1])
    degenerate = walked[0] == 0
    assert np.array_equal(walked[2][degenerate], lifted[2][degenerate])
    delta, xoj, witness = walked
    for pos, j in enumerate(cand.tolist()):
        ev = nc.evaluate_fc_entering(state, j)
        assert (delta[pos], xoj[pos]) == (ev.delta, ev.objective_delta)
        if ev.delta == 0:
            blocked = {e for e, s in ev._cycle
                       if (state.flow[e] if s < 0 else state.cap[e] - state.flow[e]) == 0}
            assert witness[pos] in blocked
    return walked


SEARCH_INSTANCES = {
    "fctp": probio.FctpSpec(8, 12, total_supply=600, seed=4),
    # zero-supply nodes, several root arcs in the tree
    "netgen": probio.NetgenFcSpec(nodes=40, source_count=6, sink_count=8, arc_count=240,
                                  total_supply=900, seed=3),
    # the largest member of the small_exact benchmark family at seed 0
    "small_exact": probio.FctpSpec(sources=6, sinks=6, total_supply=600, cost_range=(3, 8),
                                   fc_range=(50, 200), fc_count=12, seed=9006),
}


@pytest.mark.parametrize("name", SEARCH_INSTANCES)
def test_walk_and_lift_agree_on_every_search_sweep(monkeypatch, name):
    spec = SEARCH_INSTANCES[name]
    make = probio.generate_fctp if isinstance(spec, probio.FctpSpec) else probio.generate_netgen_fc
    p = make(spec)
    walk, answer = nc._walk, nc._answer
    sweeps = []

    def both(state, *rest):
        sweeps.append(rest[-1].size)
        return assert_paths_agree(state, rest[-1], walk, answer)

    monkeypatch.setattr(nc, "_walk", both)
    monkeypatch.setattr(nc, "_answer", both)
    res = gits.run(p, gits.Params())
    assert res.best_value == nc.fc_objective(p, res.best_flows)
    assert len(sweeps) > 200


@pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
def test_walk_lift_and_cycles_agree_on_random_networks():
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 10**6), st.integers(3, 8),
                      st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
    def check(seed, nodes, picks):
        rng = np.random.default_rng(seed)
        supply = rng.integers(-3, 4, size=nodes)
        supply[0] -= supply.sum()

        def arc(t, h, cap):
            return (int(t), int(h), int(rng.integers(-5, 10)), int(rng.integers(0, 30)), int(cap))

        # a ring wide enough for every supply keeps the instance feasible
        arcs = [arc(i, (i + 1) % nodes, 40) for i in range(nodes)]
        for _ in range(int(rng.integers(nodes, 3 * nodes))):
            arcs.append(arc(*rng.choice(nodes, size=2, replace=False), rng.choice([0, 1, 3, 8])))
        # parallel arcs, some of them empty
        for t, h, *_ in arcs[: int(rng.integers(1, 5))]:
            arcs.append(arc(t, h, rng.integers(0, 9)))
        p = nc.make_problem(supply.tolist(), arcs)
        state = nc.solve_lp(p, p.cost)
        for pick in picks:
            cand = np.flatnonzero(~state.basic[: state.m])
            if not cand.size:
                break
            assert_paths_agree(state, cand)
            nc.pivot(state, nc.evaluate_fc_entering(state, int(cand[pick % cand.size])))
        state.assert_valid_basis()

    check()
