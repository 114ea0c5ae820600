"""Differential gate for the simplex layer: the cold LP value against
networkx's network simplex, and warm starts under float penalties against a
cold solve of the same costs and against SciPy's HiGHS `linprog`, on small
random transshipment networks. The references share no code with fixnet;
each comparison skips when its package is missing."""

import numpy as np
import pytest

from fixnet import netcore as nc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
try:
    import networkx as nx
except ImportError:  # the networkx comparison skips without it
    nx = None
try:
    from scipy.optimize import linprog
except ImportError:  # the linprog comparison skips without it
    linprog = None

NETWORKS = (st.integers(0, 10**6), st.integers(2, 8))
PENALTIES = st.lists(st.integers(0, 10**6), min_size=1, max_size=4)


def random_network(seed, nodes):
    """Zero-supply nodes, negative costs, zero-capacity and parallel arcs.
    A ring carries every supply in most networks; without it some are
    infeasible."""
    rng = np.random.default_rng(seed)
    supply = rng.integers(-4, 5, size=nodes) * (rng.random(nodes) < 0.7)
    supply[0] -= supply.sum()
    arcs = []

    def arc(t, h, cap):
        arcs.append((int(t), int(h), int(rng.integers(-6, 12)), int(rng.integers(0, 40)), int(cap)))

    if rng.random() < 0.8:
        for i in range(nodes):
            arc(i, (i + 1) % nodes, int(np.abs(supply).sum()))
    for _ in range(int(rng.integers(1, 3 * nodes + 1))):
        arc(*rng.choice(nodes, size=2, replace=False), rng.choice([0, 1, 2, 5, 9]))
    for t, h, *_ in arcs[: int(rng.integers(1, 4))]:
        arc(t, h, rng.integers(0, 7))
    return nc.make_problem(supply.tolist(), arcs)


def lp_value(state):
    """The LP objective of the state's flows under its installed working
    costs, exact, in units of 1/S."""
    return sum(int(w) * int(x) for w, x in zip(state.work[: state.m], state.flow[: state.m]))


def warm_starts(p, seed, picks):
    """Solve `p` cold, then re-solve warm under one float penalty vector per
    pick; yields each re-solved state and the costs it was given. Each
    penalty charges a random subset of arcs up to F_j / v for a v in
    [0.5, capacity], as the ghost image's penalties do."""
    rng = np.random.default_rng(seed + 1)
    try:
        state = nc.solve_lp(p, p.cost)
    except nc.Infeasible:
        return
    for pick in picks:
        charged = rng.random(p.arc_count) < (pick % 5 + 1) / 5
        v = rng.uniform(0.5, np.maximum(p.cap, 1.0))
        costs = p.cost + np.where(charged, p.fixed / v, 0.0)
        yield nc.reoptimize(state, costs), costs


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(*NETWORKS)
def test_cold_lp_value_equals_networkx(seed, nodes):
    p = random_network(seed, nodes)
    g = nx.MultiDiGraph()
    g.add_nodes_from((i, {"demand": -int(b)}) for i, b in enumerate(p.supply.tolist()))
    for t, h, c, u in zip(p.tail.tolist(), p.head.tolist(), p.cost.tolist(), p.cap.tolist()):
        g.add_edge(t, h, weight=c, capacity=u)
    try:
        expected, _ = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        with pytest.raises(nc.Infeasible):
            nc.solve_lp(p, p.cost)
        return
    state = nc.solve_lp(p, p.cost)
    assert nc.check_flows(p, state.real_flows())[0] == []
    assert lp_value(state) == expected * state.scale
    state.assert_valid_basis()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(*NETWORKS, PENALTIES)
def test_warm_starts_equal_cold_solves_of_the_same_costs(seed, nodes, picks):
    # both install round(S c), so their optima are equal integers in units of 1/S
    p = random_network(seed, nodes)
    for state, costs in warm_starts(p, seed, picks):
        state.assert_valid_basis()
        cold = nc.solve_lp(p, costs)
        assert np.array_equal(cold.work[: cold.m], state.work[: state.m])
        assert lp_value(state) == lp_value(cold)


@pytest.mark.skipif(linprog is None, reason="scipy is not installed")
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(*NETWORKS, PENALTIES)
def test_warm_start_values_agree_with_linprog(seed, nodes, picks):
    # The state solves the costs rounded to the grid 1/S, each off by at most
    # 1/(2S), so its flows x cost c.x within sum U_j / S of the float optimum;
    # HiGHS's own tolerances (1e-7) add the relative term.
    p = random_network(seed, nodes)
    incidence = np.zeros((p.node_count, p.arc_count))
    incidence[p.tail, np.arange(p.arc_count)] = 1.0
    incidence[p.head, np.arange(p.arc_count)] = -1.0
    for state, costs in warm_starts(p, seed, picks):
        ref = linprog(costs, A_eq=incidence, b_eq=p.supply,
                      bounds=np.column_stack([np.zeros(p.arc_count), p.cap]), method="highs")
        assert ref.status == 0
        value = float(costs @ state.real_flows())
        assert abs(value - ref.fun) <= p.cap.sum() / state.scale + 1e-6 * (1 + abs(ref.fun))
        state.assert_valid_basis()
