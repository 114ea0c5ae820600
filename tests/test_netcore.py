import collections
import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixnet import gits
from fixnet import netcore as nc
from fixnet import oracle, probio
from ssp_reference import min_cost_flow, problem_rows


def two_by_two_diagonal():
    # arcs ordered (1->1', 1->2', 2->1', 2->2'); charges punish the off-diagonal
    return nc.make_problem(
        [5, 5, -5, -5],
        [(0, 2, 1, 0, 10), (0, 3, 1, 100, 10), (1, 2, 1, 100, 10), (1, 3, 1, 0, 10)],
    )


def random_transport(rng, m, n, cmax=8, fmax=0, cap_lo=4, cap_hi=14):
    sup = [int(rng.integers(3, 10)) for _ in range(m)]
    tot = sum(sup)
    dem = [1] * n
    rest = tot - n
    for _ in range(rest):
        dem[int(rng.integers(0, n))] += 1
    supply = sup + [-d for d in dem]
    arcs = []
    for i in range(m):
        for k in range(n):
            arcs.append(
                (i, m + k, int(rng.integers(1, cmax + 1)),
                 int(rng.integers(0, fmax + 1)) if fmax else 0,
                 int(rng.integers(cap_lo, cap_hi + 1)))
            )
    return nc.make_problem(supply, arcs)


# -- validate -----------------------------------------------------------------


def test_validate_accepts_minimal_instance():
    p = nc.make_problem([5, -5], [(0, 1, 3, 0, 10)])
    assert nc.validate(p) is p


def test_validate_rejects_unbalanced_supply():
    with pytest.raises(nc.UnbalancedSupply):
        nc.validate(nc.make_problem([5, -4], [(0, 1, 3, 0, 10)]))


def test_validate_rejects_self_loop():
    with pytest.raises(nc.BadArcEndpoint):
        nc.validate(nc.make_problem([0, 0], [(1, 1, 3, 0, 10)]))


def test_validate_rejects_negative_capacity_and_charge():
    with pytest.raises(nc.NegativeCapacityOrCharge):
        nc.validate(nc.make_problem([1, -1], [(0, 1, 3, 0, -2)]))
    with pytest.raises(nc.NegativeCapacityOrCharge):
        nc.validate(nc.make_problem([1, -1], [(0, 1, 3, -1, 2)]))


def test_validate_rejects_total_supply_beyond_int64():
    big = 2**62
    p = nc.make_problem([big, big, -big, -big], [(0, 2, 1, 0, big), (1, 3, 1, 0, big)])
    with pytest.raises(ValueError):
        nc.validate(p)


BOUND_CAP = 2**20


def objective_bound_problem(supply, fixed):
    """A cheap arc (cost 1) and a costly one (cost 2^42 - 2, inside the
    working-cost range), each of capacity 2^20, from node 0 to node 1:
    B = sum |c_j| U_j + sum F_j is 2^62 - 1 at fixed 2^20 - 1 and 2^62 at
    fixed 2^20. A supply of 2^21 fills both, so the optimum is B."""
    return nc.make_problem([supply, -supply], [(0, 1, 1, 0, BOUND_CAP),
                                               (0, 1, 2**42 - 2, fixed, BOUND_CAP)])


@pytest.mark.parametrize("problem", [
    nc.make_problem([10, -10], [(0, 1, 1, 0, 10), (0, 1, 2**62, 0, 10)]),
    objective_bound_problem(BOUND_CAP, BOUND_CAP),
], ids=["cost-2^62", "bound-2^62"])
def test_an_objective_bound_of_2_62_is_refused(problem):
    assert issubclass(nc.OutOfExactRange, nc.FixnetError)
    assert issubclass(nc.OutOfExactRange, ValueError)
    for solve in (nc.validate, lambda p: nc.solve_lp(p, p.cost), gits.run):
        with pytest.raises(nc.OutOfExactRange, match=r"reaches 2\^62"):
            solve(problem)


@pytest.mark.parametrize("path", ["full walk", "narrowed lift"])
def test_an_objective_bound_just_under_2_62_sweeps_exactly(monkeypatch, path):
    p = objective_bound_problem(BOUND_CAP, BOUND_CAP - 1)
    state = nc.solve_lp(p, p.cost)
    with sweep_path(monkeypatch, path):
        cand, delta, xoj, _ = assert_sweep_matches_cycles(state, p)
    # moving all 2^20 units onto the costly arc: 2^20 (cost - 1) + 2^20 - 1
    assert cand.tolist() == [1] and delta[0] == BOUND_CAP and xoj[0] == 2**62 - 2**21 - 1


@pytest.mark.parametrize("supply,best", [(BOUND_CAP, BOUND_CAP), (2 * BOUND_CAP, 2**62 - 1)])
def test_an_objective_bound_just_under_2_62_solves(supply, best):
    p = objective_bound_problem(supply, BOUND_CAP - 1)
    res = gits.run(p)
    report = oracle.check_solution(p, res.best_flows)
    assert report.feasible and report.objective == res.best_value == best


def signed_cost_problem(seed):
    """Arcs with costs of either sign, some capacities 0, and magnitudes
    that put 2 B below BIGM_FLOOR, between the bounds or above BIGM_CAP."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    c, u, f = (10 ** rng.integers(0, k) for k in (9, 7, 5))
    cap = rng.integers(0, u + 1, size=m) * (rng.random(m) < 0.7)
    return nc.NetworkProblem([0, 0, 0], rng.integers(0, 3, size=m), rng.integers(0, 3, size=m),
                             rng.integers(-c, c + 1, size=m), rng.integers(0, f + 1, size=m), cap)


@pytest.mark.parametrize("problem", [signed_cost_problem(seed) for seed in range(12)] + [
    nc.make_problem([1, -1], [(0, 1, 1, 0, BOUND_CAP),
                              (0, 1, 2**41 - 2, BOUND_CAP - 1, BOUND_CAP)]),
    objective_bound_problem(BOUND_CAP, BOUND_CAP - 1),
    objective_bound_problem(BOUND_CAP, BOUND_CAP),
    nc.make_problem([1, -1], [(0, 1, -2**63, 5, 0), (0, 1, 3, 0, 7)]),
    nc.make_problem([1, -1], [(0, 1, -2**63, 5, 1), (0, 1, 3, 0, 7)]),
], ids=[f"random-{seed}" for seed in range(12)] + [
    "2^61-1", "2^62-1", "2^62", "min-int64-cap-0", "min-int64-cap-1"])
def test_default_bigm_doubles_the_exact_objective_bound(problem):
    bound = sum(abs(c) * u for c, u in zip(problem.cost.tolist(), problem.cap.tolist()))
    bound += sum(problem.fixed.tolist())
    assert nc._objective_bound(problem) == bound
    assert nc.default_bigm(problem) == min(max(2 * bound, nc.BIGM_FLOOR), nc.BIGM_CAP)


def scale_bound_problem(cost, nodes=2):
    """One unit from node 0 to node 1 over one arc of unit cost `cost`, plus
    nodes without supply or arcs."""
    return nc.make_problem([1, -1] + [0] * (nodes - 2), [(0, 1, cost, 0, 1)])


# With T = max |c_j| + BIGM_CAP, a working-cost scale S >= 1 needs T <= 2^53
# and (n + 2) T < 2^62: at T = 2^53, at most 509 nodes.
@pytest.mark.parametrize("cost,nodes", [
    (2**53 - nc.BIGM_CAP + 1, 2), (2**53 - nc.BIGM_CAP, 510), (-(2**53 - nc.BIGM_CAP + 1), 2),
], ids=["cost", "nodes", "negative-cost"])
def test_an_instance_without_a_working_cost_scale_is_refused(cost, nodes):
    p = scale_bound_problem(cost, nodes)
    for solve in (nc.validate, lambda p: nc.solve_lp(p, p.cost), gits.run):
        with pytest.raises(nc.OutOfExactRange, match="no working-cost scale"):
            solve(p)


@pytest.mark.parametrize("cost,nodes", [(2**53 - nc.BIGM_CAP, 2), (2**53 - nc.BIGM_CAP, 509),
                                        (-(2**53 - nc.BIGM_CAP), 2)])
def test_an_instance_at_the_working_cost_scale_bound_solves(cost, nodes):
    p = scale_bound_problem(cost, nodes)
    state = nc.solve_lp(p, p.cost)
    assert state.scale >= 1 and state.real_flows().tolist() == [1]
    state.assert_valid_basis()
    assert gits.run(p).best_value == cost


def test_an_lp_stops_only_at_its_exact_optimum():
    # Arc 1 costs 2^-24 less a unit than arc 0, one step of the grid at
    # S = 2^24; a float simplex with a pricing tolerance of 1e-7 kept all
    # 10^8 units on arc 0, 5.96 above the optimum.
    u = 10**8
    p = nc.make_problem([u, -u], [(0, 1, 1, 0, u), (0, 1, 0, u - 1, u)])
    state = nc.solve_lp(p, [1.0, 1.0 - 2.0**-24])
    assert state.scale == 2**24
    assert state.real_flows().tolist() == [0, u]
    assert state.reduced_costs()[0] == 1
    for name in ("work", "pot_work", "price_sign"):
        assert getattr(state, name).dtype == np.int64, name


def test_set_costs_rounds_to_the_nearest_grid_point():
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    costs = p.cost + np.random.default_rng(5).uniform(-3.0, 3.0, size=p.arc_count)
    state.set_costs(costs)
    err = np.abs(state.work[: state.m] / state.scale - costs)
    assert err.max() <= 0.5 / state.scale
    on_grid = np.round(costs * state.scale) / state.scale
    state.set_costs(on_grid)
    assert np.array_equal(state.work[: state.m] / state.scale, on_grid)


@pytest.mark.parametrize("supply,row,error", [
    ([5, -5], (0, 1, 10**20, 0, 10), nc.NegativeCapacityOrCharge),
    ([5, -5], (0, 1, 3.5, 0, 10), nc.NegativeCapacityOrCharge),
    ([5, -5], (0, 1, 3, 2.5, 10), nc.NegativeCapacityOrCharge),
    ([5, -5], (0, 1, 3, 0, 10**19), nc.NegativeCapacityOrCharge),
    ([5, -5], (0, 2**64, 3, 0, 10), nc.BadArcEndpoint),
    ([5.5, -5.5], (0, 1, 3, 0, 10), ValueError),
    ([10**20, -10**20], (0, 1, 3, 0, 10), ValueError),
], ids=["cost", "fractional-cost", "fractional-charge", "capacity", "head", "fractional-supply",
        "supply"])
def test_make_problem_rejects_values_outside_int64(supply, row, error):
    with pytest.raises(error):
        nc.make_problem(supply, [row])


def test_problem_rejects_unequal_arc_columns():
    with pytest.raises(ValueError):
        nc.NetworkProblem([1, -1], [0, 0], [1], [3], [0], [10])


def test_problem_rejects_a_column_that_is_not_one_dimensional():
    with pytest.raises(ValueError, match="supply must be a one-dimensional sequence"):
        nc.NetworkProblem([[5, -5]], [0], [1], [3], [0], [10])
    with pytest.raises(nc.BadArcEndpoint, match="tail must be a one-dimensional sequence"):
        nc.NetworkProblem([5, -5], 0, [1], [3], [0], [10])


def test_validate_rejects_an_instance_without_nodes():
    with pytest.raises(ValueError, match="at least one node"):
        nc.validate(nc.make_problem([], []))


def test_problem_equals_only_a_problem_with_equal_columns():
    p = nc.make_problem([5, -5], [(0, 1, 3, 100, 10)])
    assert p == nc.make_problem([5, -5], [(0, 1, 3, 100, 10)])
    assert p != nc.make_problem([5, -5], [(0, 1, 3, 100, 11)])
    assert p.__eq__(p.arcs) is NotImplemented and p != p.arcs


def test_problem_columns_are_read_only_int64():
    p = nc.make_problem([5, -5], [(0, 1, 3, 100, 10)])
    for col in (p.supply, p.tail, p.head, p.cost, p.fixed, p.cap):
        assert col.dtype == np.int64
        with pytest.raises(ValueError):
            col[0] = 1
    assert p.arcs == (nc.ArcData(tail=0, head=1, cost=3, fixed=100, capacity=10),)


# -- solve_lp -----------------------------------------------------------------


def test_solve_lp_single_forced_arc():
    p = nc.make_problem([5, -5], [(0, 1, 3, 100, 10)])
    state = nc.solve_lp(p, [3.0])
    assert list(state.real_flows()) == [5]
    assert float(np.dot(state.real_flows(), [3])) == 15


def test_solve_lp_cost_equal_routings():
    p = nc.make_problem(
        [5, 5, -5, -5],
        [(0, 2, 1, 0, 10), (0, 3, 1, 0, 10), (1, 2, 1, 0, 10), (1, 3, 1, 0, 10)],
    )
    state = nc.solve_lp(p, [1.0] * 4)
    assert int(np.dot(state.real_flows(), [1, 1, 1, 1])) == 10


def test_solve_lp_detects_infeasible():
    p = nc.make_problem([5, -5], [(0, 1, 3, 0, 3)])
    with pytest.raises(nc.Infeasible):
        nc.solve_lp(p, [3.0])


def test_solve_lp_matches_ssp_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        p = random_transport(rng, 3, 3)
        costs = p.cost.tolist()
        rows = problem_rows(p)
        feasible, ref_cost, _ = min_cost_flow(p.node_count, p.supply, rows)
        try:
            state = nc.solve_lp(p, costs)
        except nc.Infeasible:
            assert not feasible
            continue
        assert feasible
        got = int(np.dot(state.real_flows(), costs))
        assert got == ref_cost
        state.assert_valid_basis()


def costly_transport(seed):
    """A 3x3 transportation instance whose unit costs reach 2.4e12, past the
    2e12 detour via the root that the capped big-M prices."""
    p = random_transport(np.random.default_rng(seed), 3, 3)
    return nc.NetworkProblem(p.supply, p.tail, p.head, p.cost * 3 * 10**11, p.fixed, p.cap)


def assert_root_capped(state):
    # root arcs: no capacity, no flow, and the same working cost on every path
    assert np.all(state.cap[state.m:] == 0) and np.all(state.flow[state.m:] == 0)
    assert np.all(state.work[state.m:] == state.bigm * state.scale)
    state.assert_valid_basis()


def test_costly_routes_solve_through_the_exact_feasibility_proof():
    fallbacks = 0
    for seed in range(12):
        p = costly_transport(seed)
        start = nc.SimplexState(p, p.cost)
        start.optimize()
        fallbacks += start.has_artificial_flow()
        feasible, ref_cost, _ = min_cost_flow(p.node_count, p.supply.tolist(), problem_rows(p))
        try:
            state = nc.solve_lp(p, p.cost)
        except nc.Infeasible:
            assert not feasible
            continue
        assert feasible
        assert sum(int(c) * int(x) for c, x in zip(p.cost, state.real_flows())) == ref_cost
        assert_root_capped(state)
    assert fallbacks >= 3


@pytest.mark.parametrize("make", [lambda: fctp_instance(), lambda: costly_transport(0)],
                         ids=["fctp", "costly"])
def test_root_arcs_stay_capped_when_every_real_arc_costs_more_than_bigm(make):
    p = make()
    state = nc.solve_lp(p, p.cost)
    assert_root_capped(state)
    # the unit costs plus BigM: every cost above BigM, the largest at the
    # working-cost bound T = max |c_j| + BigM
    costs = [int(c) + state.bigm for c in p.cost.tolist()]
    assert min(costs) > state.bigm and max(costs) == state.max_cost
    nc.reoptimize(state, costs)
    assert_root_capped(state)
    feasible, ref_cost, _ = min_cost_flow(p.node_count, p.supply.tolist(), problem_rows(p, costs))
    assert feasible
    assert sum(c * int(x) for c, x in zip(costs, state.real_flows())) == ref_cost


# -- reoptimize ---------------------------------------------------------------


def test_reoptimize_unchanged_costs_is_a_no_op():
    rng = np.random.default_rng(7)
    p = random_transport(rng, 3, 4)
    costs = p.cost.astype(np.float64).tolist()
    state = nc.solve_lp(p, costs)
    before = state.pivot_count
    obj0 = int(np.dot(state.real_flows(), costs))
    nc.reoptimize(state, costs)
    assert state.pivot_count == before
    assert int(np.dot(state.real_flows(), costs)) == obj0


def test_reoptimize_bigm_pushes_flow_off_arc():
    # two parallel routes; penalizing the used one must clear it
    p = nc.make_problem([5, 0, -5], [(0, 1, 1, 0, 10), (1, 2, 1, 0, 10), (0, 2, 5, 0, 10)])
    costs = np.array([1.0, 1.0, 5.0])
    state = nc.solve_lp(p, costs)
    assert state.real_flows()[0] == 5
    costs2 = costs.copy()
    costs2[0] += state.bigm
    nc.reoptimize(state, costs2)
    assert state.real_flows()[0] == 0
    assert state.real_flows()[2] == 5


def test_reoptimize_equals_cold_solve_after_perturbation():
    rng = np.random.default_rng(99)
    for _ in range(15):
        p = random_transport(rng, 3, 3)
        c0 = p.cost.astype(np.float64)
        try:
            state = nc.solve_lp(p, c0)
        except nc.Infeasible:
            continue
        c1 = c0 + rng.integers(-2, 6, size=p.arc_count)
        nc.reoptimize(state, c1)
        cold = nc.solve_lp(p, c1)
        assert float(np.dot(state.real_flows(), c1)) == float(np.dot(cold.real_flows(), c1))
        state.assert_valid_basis()


# -- fc_objective ---------------------------------------------------------------


def test_fc_objective_zero_flow():
    p = nc.make_problem([0, 0], [(0, 1, 3, 100, 10)])
    assert nc.fc_objective(p, [0]) == 0


def test_fc_objective_single_arc():
    p = nc.make_problem([5, -5], [(0, 1, 3, 100, 10)])
    assert nc.fc_objective(p, [5]) == 115


def test_fc_objective_diagonal_instance():
    p = two_by_two_diagonal()
    assert nc.fc_objective(p, [5, 0, 0, 5]) == 10


def test_fc_objective_rejects_violations():
    p = nc.make_problem([5, -5], [(0, 1, 3, 100, 10)])
    with pytest.raises(nc.InfeasibleFlows):
        nc.fc_objective(p, [4])  # conservation
    with pytest.raises(nc.InfeasibleFlows):
        nc.fc_objective(p, [11])  # capacity


# -- evaluate_fc_entering -------------------------------------------------------


def parallel_arcs_problem(f0, f1, cap0=6):
    # arc 0 basic carrying 5, arc 1 the parallel candidate
    return nc.make_problem([5, -5], [(0, 1, 1, f0, cap0), (0, 1, 1, f1, 10)])


def test_evaluate_cost_neutral_parallel_swap():
    p = parallel_arcs_problem(0, 0)
    state = nc.solve_lp(p, [1.0, 1.0])
    assert state.basic[0] and state.real_flows()[0] == 5
    ev = nc.evaluate_fc_entering(state, 1)
    assert ev.delta == 5
    assert ev.objective_delta == 0


def test_evaluate_charge_swap_is_exact():
    # diverting 5 units: 5*1 - 5*1 + 50 - 80 = -30
    p = parallel_arcs_problem(80, 50)
    state = nc.solve_lp(p, [1.0, 1.0])
    ev = nc.evaluate_fc_entering(state, 1)
    assert ev.delta == 5
    assert ev.objective_delta == -30


def test_evaluate_requires_nonbasic_arc():
    p = parallel_arcs_problem(0, 0)
    state = nc.solve_lp(p, [1.0, 1.0])
    with pytest.raises(ValueError):
        nc.evaluate_fc_entering(state, 0)


@pytest.mark.parametrize("j", [-1, 2])
def test_evaluate_rejects_an_arc_index_out_of_range(j):
    p = parallel_arcs_problem(0, 0)
    state = nc.solve_lp(p, [1.0, 1.0])
    with pytest.raises(ValueError, match="out of range"):
        nc.evaluate_fc_entering(state, j)


@pytest.mark.parametrize("costs,match", [
    ([1.0], "shape"), ([1.0, 1.0, 1.0], "shape"),
    ([1.0, float("nan")], "finite"), ([float("inf"), 1.0], "finite"),
    ([1.0, -1e15], "at most"),
], ids=["short", "long", "nan", "inf", "beyond-T"])
def test_set_costs_rejects_a_wrong_shape_or_a_non_finite_cost(costs, match):
    p = parallel_arcs_problem(0, 0)
    state = nc.solve_lp(p, [1.0, 1.0])
    before = state.work.copy()
    with pytest.raises(ValueError, match=match):
        state.set_costs(costs)
    assert np.array_equal(state.work, before)


@pytest.mark.parametrize("costs", [
    [2**53 + 1], [-(2**53 + 1)], np.array([2**53 + 1], dtype=np.uint64),
], ids=["above", "below", "uint64"])
def test_set_costs_range_tests_an_integer_cost_exactly(costs):
    # at T = 2^53 a float64 conversion would round 2^53 + 1 into range
    state = nc.SimplexState(scale_bound_problem(2**53 - nc.BIGM_CAP), [0])
    assert (state.scale, state.max_cost) == (1, 2**53)
    with pytest.raises(ValueError, match="at most"):
        state.set_costs(costs)
    for cost in (2**53, -(2**53)):
        state.set_costs([cost])
        assert state.work[:1].tolist() == [cost]


def test_evaluate_matches_pivot_recompute_everywhere():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(20):
        p = random_transport(rng, 3, 3, fmax=60)
        try:
            state = nc.solve_lp(p, p.cost.tolist())
        except nc.Infeasible:
            continue
        before = nc.fc_objective(p, state.real_flows())
        cand, delta, xoj, ok = nc.evaluate_all_entering(state)
        assert ok.all()
        for pos, j in enumerate(cand):
            ev = nc.evaluate_fc_entering(state, int(j))
            assert ev.delta == delta[pos]
            assert ev.objective_delta == xoj[pos]
            clone = state.copy()
            nc.pivot(clone, ev)
            after = nc.fc_objective(p, clone.real_flows())
            assert after - before == ev.objective_delta
            clone.assert_valid_basis()
            checked += 1
    assert checked > 50


# -- evaluate_all_entering --------------------------------------------------------


# (FULL_WALK_LIMIT, WALK_LIMIT) values that send every sweep by one route
SWEEP_PATHS = {"full walk": (2**62, 2**62), "narrowed walk": (-1, 2**62),
               "narrowed lift": (-1, -1)}
NARROWED = ("narrowed walk", "narrowed lift")


@contextlib.contextmanager
def sweep_path(monkeypatch, path):
    """Send every sweep inside the block by one route. "full walk" walks
    every candidate; the narrowed routes narrow a sweep one pivot past the
    kept answers to those `_touched` names, then walk or lift the rest.
    Yields the patch context, for spies that must be undone with it. On
    leaving, check that the route's combination ran and the other did not,
    and that a full walk never narrowed."""
    ran = collections.Counter()
    full, walk = SWEEP_PATHS[path]
    with monkeypatch.context() as patch:
        patch.setattr(nc, "FULL_WALK_LIMIT", full)
        patch.setattr(nc, "WALK_LIMIT", walk)
        for name in ("_walk", "_answer", "_touched"):
            fn = getattr(nc, name)
            patch.setattr(nc, name, lambda *args, fn=fn, name=name: (
                ran.update([name]) or fn(*args)))
        yield patch
    combination, other = ("_walk", "_answer") if walk > 0 else ("_answer", "_walk")
    assert ran[combination] > 0 and not ran[other], ran
    assert path in NARROWED or not ran["_touched"], ran


def assert_sweep_matches_cycles(state, p):
    """Check the sweep on every nonbasic instance arc against
    evaluate_fc_entering: equal deltas and objective deltas, every entry
    admissible."""
    cand, delta, xoj, ok = nc.evaluate_all_entering(state)
    assert np.array_equal(cand, np.flatnonzero(~state.basic[: state.m]))
    assert ok.all()
    for pos, j in enumerate(cand.tolist()):
        ev = nc.evaluate_fc_entering(state, j)
        assert delta[pos] == ev.delta
        assert xoj[pos] == ev.objective_delta
    return cand, delta, xoj, ok


def rail(nodes, base):
    """A path of `nodes` nodes from `base`. The first node sends a unit to
    each other node of the first two thirds, so the forward arcs there sit
    strictly inside their bounds. The zero-supply nodes of the last third
    start on arcs toward the root; backward arcs cost nothing, so the big-M
    start hangs each of them below its predecessor on an empty basic
    backward arc. The other backward arcs and shortcuts both ways stay
    idle."""
    busy = nodes - nodes // 3
    supply = [busy - 1] + [-1] * (busy - 1) + [0] * (nodes - busy)
    arcs = []
    for i in range(base, base + nodes - 1):
        arcs.append((i, i + 1, 1, 10 + i, 2 * nodes))
        arcs.append((i + 1, i, 0, 7, 2 * nodes))
    for i in range(base, base + nodes - 3, 2):
        arcs += [(i, i + 3, 4, 5, 2), (i + 3, i, 4, 5, 2)]
    return supply, arcs


def rail_ladder(depth):
    """Two rails joined by rungs. Each rail hangs from its source in the
    optimal basis, so the LP tree is exactly `depth` deep."""
    s1, a1 = rail(depth, 0)
    s2, a2 = rail(depth, depth)
    rungs = []
    for i in range(0, depth, 2):
        rungs += [(i, depth + i, 50, 3, 2), (depth + i, i, 50, 3, 2)]
    return nc.make_problem(s1 + s2, a1 + a2 + rungs)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_sweep_matches_cycle_walk_on_deep_trees(monkeypatch, depth):
    # the depths straddle every power of two, where the lifting adds a level
    for path in SWEEP_PATHS:
        with sweep_path(monkeypatch, path):
            check_sweeps_on_rail_ladder(depth)


def check_sweeps_on_rail_ladder(depth):
    p = rail_ladder(depth)
    state = nc.solve_lp(p, p.cost)
    assert int(np.asarray(state.depth).max()) == depth
    assert_sweep_matches_cycles(state, p)
    pivots = 0
    for _ in range(5):
        cand, delta, xoj, ok = nc.evaluate_all_entering(state)
        moves = np.flatnonzero(delta > 0)
        if not moves.size:
            break
        j = int(cand[moves[np.argmin(xoj[moves])]])
        nc.pivot(state, nc.evaluate_fc_entering(state, j))
        pivots += 1
        assert_sweep_matches_cycles(state, p)
    assert pivots == 5 or depth < 4
    # the first pivots of a cold solve, while uncapped artificial arcs carry
    # flow: the sweep is exact on pushes that raise them too
    cold = nc.SimplexState(p, p.cost)
    for _ in range(depth):
        j = cold._price()
        if not 0 <= j < cold.m:
            break
        nc.pivot(cold, nc.evaluate_fc_entering(cold, j))
        assert_sweep_matches_cycles(cold, p)


def test_sweep_on_fresh_all_artificial_state(monkeypatch):
    # sources 0 and 1, sinks 2 and 4, transshipment node 3
    p = nc.make_problem([3, 2, -4, 0, -1], [
        (0, 2, 1, 5, 9), (2, 0, 1, 5, 9), (1, 3, 1, 5, 9), (3, 4, 1, 5, 9),
        (4, 1, 1, 5, 9), (3, 2, 1, 5, 9), (0, 1, 1, 5, 9),
    ])
    state = nc.SimplexState(p, p.cost)
    assert int(np.asarray(state.depth).max()) == 1
    for path in SWEEP_PATHS:
        state.sweep_version = -1  # drop the kept answers
        with sweep_path(monkeypatch, path):
            cand, delta, xoj, ok = assert_sweep_matches_cycles(state, p)
        # before solve_lp caps them, positive pushes both drain and fill the
        # artificial arcs, and the sweep prices either kind exactly
        fills = [any(e >= state.m and s > 0 for e, s in state._cycle(j)[2])
                 for j in cand.tolist()]
        pos = delta > 0
        assert pos.any() and {fills[i] for i in np.flatnonzero(pos)} == {True, False}


def test_sweep_with_no_nonbasic_arc():
    p = nc.make_problem([5, -5], [(0, 1, 3, 7, 10)])
    state = nc.solve_lp(p, p.cost)
    assert state.basic[0]
    cand, delta, xoj, ok = nc.evaluate_all_entering(state)
    assert cand.size == delta.size == xoj.size == ok.size == 0
    assert delta.dtype == xoj.dtype == np.int64 and ok.dtype == bool


def two_legs(feeder_cap=4, shortcut_cap=9):
    # R=0 supplies 4 to T=6 down the right leg 0->4->5->6. A saturated
    # negative-cost feeder 0->3 sends feeder_cap more round the left leg
    # 3->2->1->0. The left leg's arcs cost -1, so the big-M start hangs
    # nodes 1, 2 and 3 below R before the feeder enters, and the basis hangs
    # from R. Pushing along the shortcut 3->6 (arc 7) empties the left leg
    # arcs 2, 1, 0 in push order from R, then the right leg arcs 5, 4, 3.
    return nc.make_problem([4, 0, 0, 0, 0, 0, -4], [
        (3, 2, -1, 1, 9), (2, 1, -1, 2, 9), (1, 0, -1, 4, 9),
        (0, 4, 1, 8, 9), (4, 5, 1, 16, 9), (5, 6, 1, 32, 9),
        (0, 3, -10, 64, feeder_cap), (3, 6, 20, 128, shortcut_cap),
    ])


def test_sweep_sums_every_tied_release_on_both_sides(monkeypatch):
    # every leg arc carries 4, so the shortcut empties all six at once
    p = two_legs()
    state = nc.solve_lp(p, p.cost)
    _, _, cycle = state._cycle(7)
    at = [e for e, _ in cycle].index(7)
    assert sorted(e for e, s in cycle[:at] if s < 0) == [0, 1, 2]
    assert sorted(e for e, s in cycle[at + 1:] if s < 0) == [3, 4, 5]
    for path in SWEEP_PATHS:
        state.sweep_version = -1  # drop the kept answers
        with sweep_path(monkeypatch, path):
            cand, delta, xoj, ok = assert_sweep_matches_cycles(state, p)
        assert cand.tolist() == [6, 7] and delta.tolist() == [4, 4] and ok.all()
        # feeder: -(-13) * 4 - (1 + 2 + 4) - 64 for its own charge at its bound
        # shortcut: 20 * 4 + 128 - (1 + 2 + 4 + 8 + 16 + 32)
        assert xoj.tolist() == [-19, 145]


@pytest.mark.parametrize("feeder_cap,shortcut_cap,leaving", [
    (3, 9, 0),  # ties on the left leg only: the arc nearest node 3, where the flow leaves
    (3, 3, 7),  # the left leg ties with the shortcut's own bound: a bound flip
    (4, 4, 3),  # the tie reaches the right leg: its arc nearest the apex R
    (4, 9, 3),
])
def test_ratio_test_takes_the_last_blocking_arc_in_push_order(feeder_cap, shortcut_cap, leaving):
    p = two_legs(feeder_cap, shortcut_cap)
    state = nc.solve_lp(p, p.cost)
    delta, k, cycle = state._cycle(7)
    assert cycle == [(2, -1), (1, -1), (0, -1), (7, 1), (5, -1), (4, -1), (3, -1)]
    assert (delta, k) == (min(feeder_cap, shortcut_cap), leaving)
    nc.pivot(state, nc.evaluate_fc_entering(state, 7))
    assert not state.basic[leaving]
    assert state.flow[leaving] == (shortcut_cap if leaving == 7 else 0)
    state.assert_valid_basis()


# -- pivot ----------------------------------------------------------------------


def test_pivot_bound_flip_keeps_tree():
    # entering arc blocks on its own capacity: it moves to its other bound,
    # tree unchanged
    p = nc.make_problem([5, -5], [(0, 1, 1, 0, 8), (0, 1, 3, 0, 4)])
    state = nc.solve_lp(p, [1.0, 3.0])
    assert not state.basic[1] and state.flow[1] == 0
    tree_before = [list(adj) for adj in state.tree_adj]
    ev = nc.evaluate_fc_entering(state, 1)
    assert ev.leaving == ev.entering == 1
    nc.pivot(state, ev)
    assert not state.basic[1] and state.flow[1] == 4
    assert [list(adj) for adj in state.tree_adj] == tree_before
    state.assert_valid_basis()


def test_pivot_degenerate_changes_tree_not_flows():
    rng = np.random.default_rng(5)
    found = False
    for _ in range(40):
        p = random_transport(rng, 3, 3)
        try:
            state = nc.solve_lp(p, p.cost.tolist())
        except nc.Infeasible:
            continue
        cand, delta, xoj, ok = nc.evaluate_all_entering(state)
        for pos, j in enumerate(cand):
            if delta[pos] == 0 and ok[pos]:
                ev = nc.evaluate_fc_entering(state, int(j))
                if ev.leaving == ev.entering:
                    continue
                flows = state.flow.copy()
                nc.pivot(state, ev)
                assert np.array_equal(state.flow, flows)
                assert state.basic[j]
                state.assert_valid_basis()
                found = True
                break
        if found:
            break
    assert found, "no degenerate pivot candidate surfaced"


def test_pivot_rejects_stale_eval():
    p = parallel_arcs_problem(80, 50)
    state = nc.solve_lp(p, [1.0, 1.0])
    ev = nc.evaluate_fc_entering(state, 1)
    nc.pivot(state, ev)
    with pytest.raises(nc.StalePivotEval):
        nc.pivot(state, ev)


def test_pivot_objective_delta_applies_exactly():
    p = parallel_arcs_problem(80, 50)
    state = nc.solve_lp(p, [1.0, 1.0])
    before = nc.fc_objective(p, state.real_flows())
    ev = nc.evaluate_fc_entering(state, 1)
    nc.pivot(state, ev)
    assert nc.fc_objective(p, state.real_flows()) == before + ev.objective_delta


# -- incremental tree labels --------------------------------------------------------

LABELS = ("parent", "pred_arc", "depth", "pot_work")


def scrambled_rebuild(state):
    """A copy of `state` whose labels were set to -7 and then rebuilt in full."""
    full = state.copy()
    for name in LABELS:
        label = getattr(full, name)
        label[:] = [-7] * len(label)
    full._rebuild()
    return full


@pytest.fixture
def checked_exchanges(monkeypatch):
    """After every pivot, the kept labels must equal a full relabel of a copy
    whose labels were scrambled first, with no float tolerance. Returns the
    count of exchanges whose leaving arc lay on each cycle side."""
    sides = {"a": 0, "b": 0}
    apply = nc.SimplexState._apply

    def checked(state, j, k, delta, cycle):
        apply(state, j, k, delta, cycle)
        if k != j:
            arcs = [e for e, _ in cycle]
            sides["a" if arcs.index(k) < arcs.index(j) else "b"] += 1
        full = scrambled_rebuild(state)
        for name in LABELS:
            assert np.array_equal(getattr(state, name), getattr(full, name)), name
        state.assert_valid_basis()

    monkeypatch.setattr(nc.SimplexState, "_apply", checked)
    return sides


def fctp_instance():
    return probio.generate_fctp(probio.FctpSpec(8, 12, total_supply=600, seed=4))


def netgen_instance():
    return probio.generate_netgen_fc(probio.NetgenFcSpec(
        nodes=40, source_count=6, sink_count=8, arc_count=240, total_supply=900, seed=3))


@pytest.mark.parametrize("make", [fctp_instance, netgen_instance], ids=["fctp", "netgen"])
def test_cold_solve_keeps_full_relabel_labels(checked_exchanges, make):
    p = make()
    state = nc.solve_lp(p, p.cost)
    assert state.pivot_count > 20
    assert checked_exchanges["a"] > 0 and checked_exchanges["b"] > 0


@pytest.mark.parametrize("depth", [8, 17, 33])
def test_cold_solve_of_deep_trees_keeps_full_relabel_labels(checked_exchanges, depth):
    p = rail_ladder(depth)
    state = nc.solve_lp(p, p.cost)
    assert int(np.asarray(state.depth).max()) == depth
    assert checked_exchanges["a"] + checked_exchanges["b"] >= depth


@pytest.mark.parametrize("make", [fctp_instance, netgen_instance], ids=["fctp", "netgen"])
def test_warm_start_keeps_full_relabel_labels(checked_exchanges, make):
    # fractional penalties as the search sets them, so float potentials round;
    # on the FCTP instance, shifting a moved subtree's potentials by one
    # constant would differ from these labels in the last bit
    p = make()
    state = nc.solve_lp(p, p.cost)
    rng = np.random.default_rng(8)
    for _ in range(4):
        before = state.pivot_count
        v = rng.uniform(1.0, 50.0, size=p.arc_count)
        nc.reoptimize(state, p.cost + p.fixed / v)
        assert state.pivot_count > before
    assert checked_exchanges["a"] > 0 and checked_exchanges["b"] > 0


def test_fc_pivots_keep_full_relabel_labels(checked_exchanges):
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost + 0.37)
    for _ in range(40):
        cand, delta, xoj, ok = nc.evaluate_all_entering(state)
        moves = np.flatnonzero(ok)
        j = int(cand[moves[np.argmin(xoj[moves])]])
        nc.pivot(state, nc.evaluate_fc_entering(state, j))
    assert checked_exchanges["a"] > 0 and checked_exchanges["b"] > 0


def assert_refused_unchanged(state, ev, leaving):
    """A pivot of `ev` forged to leave by `leaving` is refused and changes nothing."""
    before = state.copy()
    with pytest.raises(nc.SimplexStalled):
        nc.pivot(state, dataclasses.replace(ev, leaving=leaving))
    for name in LABELS + ("flow", "basic"):
        assert np.array_equal(getattr(state, name), getattr(before, name)), name
    assert state.tree_adj == before.tree_adj
    state.assert_valid_basis()


def test_exchange_with_leaving_arc_off_the_cycle_is_refused():
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    cand, delta, xoj, ok = nc.evaluate_all_entering(state)
    ev = next(ev for ev in (nc.evaluate_fc_entering(state, int(j)) for j in cand)
              if ev.leaving != ev.entering)
    on_cycle = {e for e, _ in ev._cycle}
    off = int(next(e for e in np.flatnonzero(state.basic) if e not in on_cycle))
    assert_refused_unchanged(state, ev, off)


def test_exchange_with_leaving_arc_off_its_bound_is_refused_before_any_change():
    # an arc of the cycle that the push leaves strictly inside its bounds
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    cand, delta, xoj, ok = nc.evaluate_all_entering(state)
    ev = next(ev for ev in (nc.evaluate_fc_entering(state, int(j)) for j in cand[delta > 0])
              if ev.leaving != ev.entering)
    inner = [e for e, s in ev._cycle
             if e != ev.entering and 0 < state.flow[e] + s * ev.delta < state.cap[e]]
    assert inner
    assert_refused_unchanged(state, ev, inner[0])


def test_valid_basis_refuses_nonbasic_arc_between_its_bounds():
    # one unit round a nonbasic arc's cycle keeps conservation, the tree
    # arcs' bounds and every label, and leaves the arc strictly inside
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    cand, delta, xoj, ok = nc.evaluate_all_entering(state)
    j = int(next(j for j, d in zip(cand, delta) if d > 0 and state.cap[j] > 1))
    for e, s in state._cycle(j)[2]:
        state.flow[e] += s
    with pytest.raises(nc.SimplexStalled, match="away from its bound"):
        state.assert_valid_basis()


def test_relabel_of_cyclic_basis_arcs_is_refused():
    # a nonbasic arc added to the tree adjacency closes a cycle, round which
    # the walk would run for ever
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    j = int(np.flatnonzero(~state.basic)[0])
    state.tree_adj[int(state.tail[j])].append(j)
    state.tree_adj[int(state.head[j])].append(j)
    with pytest.raises(nc.SimplexStalled):
        state._rebuild()


def test_copy_shares_no_array_or_adjacency_list():
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    clone = state.copy()
    arrays = [name for name, value in vars(state).items() if isinstance(value, np.ndarray)]
    assert {"pot_work", "price_sign", "flow", "basic", "work"} <= set(arrays)
    for name in arrays:
        assert not np.shares_memory(getattr(clone, name), getattr(state, name)), name
    lists = [name for name, value in vars(state).items() if isinstance(value, list)]
    assert {"parent", "pred_arc", "depth", "tree_adj"} <= set(lists)
    for name in lists:
        assert getattr(clone, name) is not getattr(state, name), name
    assert not any(a is b for a, b in zip(clone.tree_adj, state.tree_adj))
    snapshot = {name: getattr(state, name).copy() for name in arrays}
    labels = {name: list(getattr(state, name)) for name in ("parent", "pred_arc", "depth")}
    adjacency = [list(adj) for adj in state.tree_adj]
    nc.reoptimize(clone, p.cost + p.fixed / 7.0)
    for _ in range(10):
        cand, delta, xoj, ok = nc.evaluate_all_entering(clone)
        j = int(cand[np.argmin(np.where(ok, xoj, np.iinfo(np.int64).max))])
        nc.pivot(clone, nc.evaluate_fc_entering(clone, j))
    assert not np.array_equal(clone.flow, state.flow)
    assert any(getattr(clone, name) != labels[name] for name in labels)
    for name in arrays:
        assert np.array_equal(getattr(state, name), snapshot[name]), name
    for name in labels:
        assert getattr(state, name) == labels[name], name
    assert state.tree_adj == adjacency
    state.assert_valid_basis()


@pytest.mark.parametrize("name,node,value", [
    ("parent", "root", 0), ("pot_work", "root", 1),
    ("depth", "leaf", 0), ("parent", "leaf", "grandparent"), ("pred_arc", "leaf", "nonbasic"),
    ("pot_work", "leaf", "one unit off"),
])
def test_valid_basis_checks_tree_labels(name, node, value):
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    state.assert_valid_basis()
    leaf = int(np.argmax(state.depth))
    i = state.root if node == "root" else leaf
    if value == "grandparent":
        value = state.parent[state.parent[leaf]]
    elif value == "nonbasic":
        value = int(np.flatnonzero(~state.basic)[0])
    elif value == "one unit off":
        # the smallest step of the integer potentials: 1/S of a cost unit
        value = state.pot_work[leaf] + 1
    getattr(state, name)[i] = value
    with pytest.raises(nc.SimplexStalled):
        state.assert_valid_basis()


def _corrupt_tree_count(state):
    state.basic[int(np.flatnonzero(~state.basic)[0])] = True


def _corrupt_flow_bound(state):
    j = int(np.flatnonzero(state.basic[:state.m])[0])
    state.flow[j] = state.cap[j] + 1


def _corrupt_conservation(state):
    # one more unit on a tree arc that has room: every bound still holds
    j = int(np.flatnonzero(state.basic & (state.flow < state.cap))[0])
    state.flow[j] += 1


def _corrupt_label_range(state):
    state.pred_arc[int(np.argmax(state.depth))] = state.E


@pytest.mark.parametrize("corrupt,match", [
    (_corrupt_tree_count, "tree arc count is not node count"),
    (_corrupt_flow_bound, "flow bound violated"),
    (_corrupt_conservation, "flow conservation violated"),
    (_corrupt_label_range, "parent or pred arc label out of range"),
], ids=["tree-count", "flow-bound", "conservation", "label-range"])
def test_valid_basis_refuses_a_corrupted_copy(corrupt, match):
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    bad = state.copy()
    corrupt(bad)
    with pytest.raises(nc.SimplexStalled, match=match):
        bad.assert_valid_basis()
    state.assert_valid_basis()  # the copy shares nothing with the solved state


def test_relabel_of_a_basis_that_does_not_span_is_refused():
    p = fctp_instance()
    bad = nc.solve_lp(p, p.cost).copy()
    j = int(np.flatnonzero(bad.basic[:bad.m])[0])
    bad.tree_adj[int(bad.tail[j])].remove(j)
    bad.tree_adj[int(bad.head[j])].remove(j)
    with pytest.raises(nc.SimplexStalled, match="basis arcs do not span every node"):
        bad._rebuild()


# -- labels kept through cost changes ----------------------------------------------


@pytest.fixture
def entry_checked_optimize(monkeypatch):
    """Every optimize call starts by checking the basis and its labels, so
    labels that a cost change left stale fail before the first pricing.
    Returns the list of checked calls."""
    checked = []
    optimize = nc.SimplexState.optimize

    def gated(state):
        state.assert_valid_basis()
        checked.append(state)
        return optimize(state)

    monkeypatch.setattr(nc.SimplexState, "optimize", gated)
    return checked


def zero_or_costly_transport(seed):
    """A 3x3 transportation instance whose arcs cost 0 or more than twice
    the capped big-M: no costly arc can enter the big-M tree, which then
    holds only zero-cost instance arcs, and a sink that only costly arcs
    reach keeps its flow through the root."""
    p = random_transport(np.random.default_rng(seed), 3, 3)
    return nc.NetworkProblem(p.supply, p.tail, p.head, np.where(p.cost <= 3, 0, p.cost * 10**12),
                             p.fixed, p.cap)


def test_feasibility_proof_relabels_when_only_root_costs_change(entry_checked_optimize):
    # phase 1 prices real arcs 0, which changes no instance tree arc here;
    # only the root arcs' working costs change, and they must relabel
    proofs = 0
    for seed in range(12):
        p = zero_or_costly_transport(seed)
        assert nc.default_bigm(p) == nc.BIGM_CAP
        start = nc.SimplexState(p, p.cost)
        start.optimize()
        tree = np.flatnonzero(start.basic[: start.m])
        assert np.all(p.cost[tree] == 0)
        proofs += start.has_artificial_flow() and tree.size > 0
        feasible, ref_cost, _ = min_cost_flow(p.node_count, p.supply.tolist(), problem_rows(p))
        try:
            state = nc.solve_lp(p, p.cost)
        except nc.Infeasible:
            assert not feasible
            continue
        assert feasible
        assert sum(int(c) * int(x) for c, x in zip(p.cost, state.real_flows())) == ref_cost
        assert_root_capped(state)
    assert proofs >= 3


def test_oracle_enumeration_keeps_valid_labels(monkeypatch, entry_checked_optimize):
    # every optimize is the cold solve's or one warm re-solve's: the root
    # node is solved cold, every later node warm from the previous basis
    p = probio.generate_fctp(probio.FctpSpec(4, 4, total_supply=400, fc_count=12, seed=9000))
    cold, warm = [], []
    solve_lp, reoptimize = oracle.solve_lp, oracle.reoptimize

    def counted_solve_lp(*args):
        state = solve_lp(*args)
        cold.append(len(entry_checked_optimize))
        return state

    def counted_reoptimize(*args):
        warm.append(1)
        return reoptimize(*args)

    monkeypatch.setattr(oracle, "solve_lp", counted_solve_lp)
    monkeypatch.setattr(oracle, "reoptimize", counted_reoptimize)
    res = oracle.brute_force_opt(p, max_fc_arcs=14)
    assert len(cold) == 1 and len(warm) == res.subsets_explored - 1 > 0
    assert len(entry_checked_optimize) == cold[0] + len(warm)
    assert res.optimum == nc.fc_objective(p, res.witness_flows)


@pytest.mark.parametrize("make", [fctp_instance, netgen_instance], ids=["fctp", "netgen"])
def test_cost_changes_keep_labels_equal_to_a_rebuild(monkeypatch, make):
    # fractional changes as penalties make them; a change confined to
    # nonbasic arcs keeps the labels, one on a tree arc rebuilds them
    p = make()
    state = nc.solve_lp(p, p.cost)
    rebuilds = []
    rebuild = nc.SimplexState._rebuild
    monkeypatch.setattr(nc.SimplexState, "_rebuild",
                        lambda st: (st is state and rebuilds.append(1)) or rebuild(st))
    rng = np.random.default_rng(11)
    costs = p.cost.astype(np.float64)
    for trial in range(40):
        on_tree = trial % 2 == 1
        pool = np.flatnonzero(state.basic[: state.m] == on_tree)
        picks = rng.choice(pool, size=min(3, pool.size), replace=False)
        costs = costs.copy()
        costs[picks] += rng.uniform(0.5, 40.0, size=picks.size) * rng.choice([-1, 1], picks.size)
        before = len(rebuilds)
        root_cost = float(state.bigm) if trial % 4 == 0 else None
        state.set_costs(costs, root_cost)
        assert len(rebuilds) - before == on_tree
        full = scrambled_rebuild(state)
        for name in LABELS:
            assert np.array_equal(getattr(state, name), getattr(full, name)), name
        state.assert_valid_basis()
        state.optimize()


def zero_cap_netgen_instance():
    # capacities from 0: one real arc has none, besides the capped root arcs
    return probio.generate_netgen_fc(probio.NetgenFcSpec(
        nodes=40, source_count=6, sink_count=8, arc_count=240, total_supply=900,
        cap_range=(0, 90), seed=0))


def two_mask_violation(state):
    """Each arc's pricing violation by the formula `_price` read before it
    kept a sign per arc: -rc at flow 0 and rc otherwise, zeroed on tree arcs
    and on arcs of capacity 0."""
    rc = state.reduced_costs()
    viol = np.where(state.flow == 0, -rc, rc)
    viol[state.basic | (state.cap == 0)] = 0.0
    return viol


def implied_price_sign(state):
    """The pricing sign that the basis, flows and capacities imply."""
    return np.where(state.basic | (state.cap == 0), 0.0,
                    np.where(state.flow == 0, -1.0, 1.0))


@pytest.fixture
def checked_signs(monkeypatch):
    """After every exchange, bound flip and cap of the root arcs, the kept
    `price_sign` must equal the one the state implies, and every `_price`
    must return the arc the two-mask formula picks. Returns counts of the
    events checked."""
    seen = collections.Counter()
    apply, price, close = (nc.SimplexState._apply, nc.SimplexState._price,
                           nc.SimplexState.close_artificial_arcs)

    def checked_apply(state, j, k, delta, cycle):
        apply(state, j, k, delta, cycle)
        seen["flip" if k == j else "exchange"] += 1
        assert np.array_equal(state.price_sign, implied_price_sign(state))

    def checked_price(state):
        viol = two_mask_violation(state)
        want = int(np.argmax(viol))
        got = price(state)
        assert got == (want if viol[want] > 0 else -1)
        seen["priced"] += 1
        return got

    def checked_close(state):
        close(state)
        seen["closed"] += 1
        assert np.array_equal(state.price_sign, implied_price_sign(state))

    monkeypatch.setattr(nc.SimplexState, "_apply", checked_apply)
    monkeypatch.setattr(nc.SimplexState, "_price", checked_price)
    monkeypatch.setattr(nc.SimplexState, "close_artificial_arcs", checked_close)
    return seen


def test_kept_price_sign_matches_the_state_and_prices_as_two_masks(checked_signs):
    # solve_lp by big-M alone, and by phase 1 then the cap
    routes = collections.Counter()
    for p in [zero_or_costly_transport(seed) for seed in range(12)] + [fctp_instance()]:
        before = checked_signs["closed"]
        try:
            nc.solve_lp(p, p.cost)
        except nc.Infeasible:
            continue
        routes["phase 1" if checked_signs["closed"] - before == 2 else "big-M"] += 1
    assert routes["phase 1"] > 0 and routes["big-M"] > 0
    # warm starts under random penalties, with arcs of capacity 0 besides the root arcs
    p = zero_cap_netgen_instance()
    state = nc.solve_lp(p, p.cost)
    rng = np.random.default_rng(3)
    for _ in range(20):
        nc.reoptimize(state, p.cost + p.fixed / rng.uniform(1.0, 50.0, size=p.arc_count))
    # pivots on a copy move its signs and leave the original's
    kept = state.price_sign.copy()
    clone = state.copy()
    nc.reoptimize(clone, p.cost.astype(np.float64))
    assert not np.array_equal(clone.price_sign, kept)
    assert np.array_equal(state.price_sign, kept)
    assert np.array_equal(clone.price_sign, implied_price_sign(clone))
    gits.run(fctp_instance())
    assert checked_signs["flip"] > 0 and checked_signs["exchange"] > 1000
    assert checked_signs["priced"] > 1000


# -- kept sweep answers ---------------------------------------------------------------


def assert_sweep_is_fresh(state):
    """The sweep with the state's kept answers must equal a from-scratch sweep
    of a copy whose kept answers were dropped, and evaluate_fc_entering on
    every candidate."""
    fresh = state.copy()
    fresh.sweep_version = -1
    want = nc.evaluate_all_entering(fresh)
    got = assert_sweep_matches_cycles(state, state.problem)
    for name, a, b in zip(("candidates", "delta", "objective delta", "admissible"), got, want):
        assert np.array_equal(a, b), name
    # every degenerate answer, kept or new, names an arc of its cycle that
    # blocks the push at 0
    cand, delta = got[0], got[1]
    for j in cand[delta == 0].tolist():
        _, _, cycle = state._cycle(j)
        residual = {e: int(state.cap[e] - state.flow[e]) if s > 0 else int(state.flow[e])
                    for e, s in cycle}
        assert residual.get(int(state.sweep_witness[j])) == 0, j


def spy_answers(monkeypatch, state):
    """Record the candidates each sweep of `state` (not of its copies)
    answers, by walk or by lifting."""
    answered = []
    for name in ("_walk", "_answer"):
        fn = getattr(nc, name)
        monkeypatch.setattr(nc, name, lambda st, *rest, fn=fn: (
            st is state and answered.append(rest[-1].tolist())) or fn(st, *rest))
    return answered


def spy_narrowing(monkeypatch, state):
    """Record each sweep of `state` that `_touched` narrows."""
    narrowed = []
    touched = nc._touched
    monkeypatch.setattr(nc, "_touched", lambda st, jump, cand: (
        st is state and narrowed.append(cand.size)) or touched(st, jump, cand))
    return narrowed


@pytest.fixture
def checked_sweeps(monkeypatch):
    """Sweep after every pivot, so that each sweep is one pivot past the kept
    answers, and check it with assert_sweep_is_fresh. Returns counts of the
    pivot kinds seen. A sweep that does not narrow must answer every
    candidate. In one that narrows, a kept degenerate answer whose witness
    is off the pivot's cycle must not be answered again; "witness skip"
    counts those whose new cycle meets the cycle of a pivot that changed
    flows, and "witness on cycle" the answers whose witness is on it that
    were."""
    seen = collections.Counter()
    apply = nc.SimplexState._apply

    def checked(state, j, k, delta, cycle):
        seen["zero capacity entered"] += state.cap[j] == 0
        kept = state.sweep_version == state.version
        cand = np.flatnonzero(~state.basic[: state.m])
        degenerate = cand[state.sweep_delta[cand] == 0] if kept else cand[:0]
        witness = state.sweep_witness[degenerate]
        apply(state, j, k, delta, cycle)
        if k == j:
            seen["flip"] += 1
        else:
            arcs = [e for e, _ in cycle]
            seen["a" if arcs.index(k) < arcs.index(j) else "b"] += 1
            seen["degenerate"] += delta == 0
            seen["root leaves"] += k >= state.m
        seen["one past"] += kept
        with monkeypatch.context() as patch:
            answered = spy_answers(patch, state)
            narrowed = spy_narrowing(patch, state)
            assert_sweep_is_fresh(state)
        redo = set(sum(answered, []))
        seen["narrowed"] += bool(narrowed)
        if not narrowed:
            assert redo == set(np.flatnonzero(~state.basic[: state.m]).tolist())
            return
        on_cycle = {e for e, _ in cycle}
        for c, w in zip(degenerate.tolist(), witness.tolist()):
            if c in (j, k):
                continue
            if w in on_cycle:
                seen["witness on cycle"] += c in redo
            else:
                assert c not in redo, c
                if delta:
                    _, _, new = state._cycle(c)
                    seen["witness skip"] += any(e in on_cycle for e, _ in new)

    monkeypatch.setattr(nc.SimplexState, "_apply", checked)
    return seen


@pytest.mark.parametrize("make", [fctp_instance, netgen_instance], ids=["fctp", "netgen"])
def test_kept_sweep_is_exact_through_cold_solves_and_warm_starts(monkeypatch, checked_sweeps,
                                                                 make):
    # only the FCTP instance's solves flip a real arc between its bounds; on
    # neither does a capped root arc enter
    p = make()
    kinds = ("a", "b", "degenerate", "root leaves", "one past")
    for path in SWEEP_PATHS:
        checked_sweeps.clear()
        with sweep_path(monkeypatch, path):
            state = nc.solve_lp(p, p.cost)
            rng = np.random.default_rng(3)
            for _ in range(3):
                nc.reoptimize(state, p.cost + p.fixed / rng.uniform(1.0, 50.0, size=p.arc_count))
        for kind in kinds + (("flip",) if make is fctp_instance else ()):
            assert checked_sweeps[kind] > 0, (path, kind)
        assert checked_sweeps["zero capacity entered"] == 0
        narrowed = checked_sweeps["one past"] if path in NARROWED else 0
        assert checked_sweeps["narrowed"] == narrowed, path


def test_kept_sweep_is_exact_through_fc_pivots(monkeypatch, checked_sweeps):
    # the search's own moves, with degenerate exchanges among them
    p = fctp_instance()
    for path in SWEEP_PATHS:
        with sweep_path(monkeypatch, path):
            state = nc.solve_lp(p, p.cost + 0.37)
            checked_sweeps.clear()
            rng = np.random.default_rng(12)
            for step in range(60):
                cand, delta, xoj, ok = nc.evaluate_all_entering(state)
                pos = int(np.argmin(xoj)) if step % 3 else int(rng.integers(cand.size))
                nc.pivot(state, nc.evaluate_fc_entering(state, int(cand[pos])))
        kinds = ("a", "b", "degenerate")
        if path in NARROWED:
            kinds += ("witness skip", "witness on cycle")
        for kind in kinds:
            assert checked_sweeps[kind] > 0, (path, kind)
        assert checked_sweeps["one past"] == 60
        assert checked_sweeps["narrowed"] == (60 if path in NARROWED else 0), path


def test_kept_sweep_is_exact_on_deep_trees(monkeypatch, checked_sweeps):
    p = rail_ladder(33)
    for path in SWEEP_PATHS:
        checked_sweeps.clear()
        with sweep_path(monkeypatch, path):
            nc.solve_lp(p, p.cost)
        assert checked_sweeps["a"] + checked_sweeps["b"] >= 33, path


def test_second_sweep_without_a_pivot_answers_nothing_again(monkeypatch):
    p = fctp_instance()
    for path in NARROWED:
        with sweep_path(monkeypatch, path) as patch:
            state = nc.solve_lp(p, p.cost)
            answered = spy_answers(patch, state)
            first = nc.evaluate_all_entering(state)
            assert [len(a) for a in answered] == [first[0].size]
            first[1][:] = -1  # the caller's arrays are its own
            first[2][:] = -1
            second = assert_sweep_matches_cycles(state, p)
            assert len(answered) == 1
            # unchanged costs: no relabel, no pivot, the kept answers stay
            nc.reoptimize(state, p.cost)
            assert_sweep_is_fresh(state)
            assert len(answered) == 1
            # one pivot later only the touched candidates are answered again
            cand, delta, xoj, _ = second
            nc.pivot(state, nc.evaluate_fc_entering(state, int(cand[np.argmin(xoj)])))
            assert_sweep_is_fresh(state)
            assert 0 < len(answered[1]) < first[0].size


def test_full_walk_answers_every_candidate_and_keeps_them_for_a_narrowed_sweep(monkeypatch):
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost + 0.37)
    with sweep_path(monkeypatch, "full walk"):
        cand, _, xoj, _ = nc.evaluate_all_entering(state)
        nc.pivot(state, nc.evaluate_fc_entering(state, int(cand[np.argmin(xoj)])))
        # one pivot past: a full walk must not read a kept answer, even one
        # that a narrowed sweep would keep
        cand = np.flatnonzero(~state.basic[: state.m])
        state.sweep_delta[cand] = -1
        state.sweep_xoj[cand] = -1
        state.sweep_witness[cand] = -1
        with monkeypatch.context() as patch:
            answered = spy_answers(patch, state)
            assert_sweep_is_fresh(state)
        assert answered == [cand.tolist()]
        cand, _, xoj, _ = nc.evaluate_all_entering(state)
        nc.pivot(state, nc.evaluate_fc_entering(state, int(cand[np.argmin(xoj)])))
    # the next sweep narrows and reuses what the full walk kept
    with sweep_path(monkeypatch, "narrowed lift") as patch:
        answered = spy_answers(patch, state)
        assert_sweep_is_fresh(state)
    assert 0 < len(answered[0]) < np.count_nonzero(~state.basic[: state.m])


def test_leaving_arc_is_answered_again_whatever_its_stale_answer(monkeypatch):
    p = fctp_instance()
    for path in NARROWED:
        with sweep_path(monkeypatch, path) as patch:
            state = nc.solve_lp(p, p.cost + 0.37)
            cand, _, _, _ = nc.evaluate_all_entering(state)
            ev = next(ev for ev in (nc.evaluate_fc_entering(state, int(j)) for j in cand)
                      if ev.leaving != ev.entering and ev.leaving < state.m)
            k = ev.leaving
            on_cycle = {e for e, _ in ev._cycle}
            # k is basic, so its kept entries are stale: make them a degenerate
            # answer whose witness lies off the cycle, which would otherwise be kept
            state.sweep_delta[k] = 0
            state.sweep_witness[k] = next(e for e in range(state.m) if e not in on_cycle)
            nc.pivot(state, ev)
            answered = spy_answers(patch, state)
            assert_sweep_is_fresh(state)
            assert k in answered[0]


def test_sweep_after_reoptimize_answers_every_candidate(monkeypatch):
    p = netgen_instance()
    for path in SWEEP_PATHS:
        with sweep_path(monkeypatch, path) as patch:
            state = nc.solve_lp(p, p.cost)
            nc.evaluate_all_entering(state)
            before = state.version
            nc.reoptimize(state, p.cost + p.fixed / 3.0)
            assert state.version > before + 1
            answered = spy_answers(patch, state)
            assert_sweep_is_fresh(state)
            assert len(answered[0]) == np.count_nonzero(~state.basic[: state.m])


def test_copy_pivoted_differently_keeps_its_own_sweep():
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost + 0.37)
    cand, delta, xoj, _ = nc.evaluate_all_entering(state)
    clone = state.copy()
    order = np.argsort(xoj, kind="stable")
    nc.pivot(state, nc.evaluate_fc_entering(state, int(cand[order[0]])))
    nc.pivot(clone, nc.evaluate_fc_entering(clone, int(cand[order[-1]])))
    for _ in range(5):
        for s in (state, clone):
            assert_sweep_is_fresh(s)
            c, _, x, _ = nc.evaluate_all_entering(s)
            nc.pivot(s, nc.evaluate_fc_entering(s, int(c[np.argmin(x)])))
    assert not np.array_equal(state.flow, clone.flow)
    assert_sweep_is_fresh(state)
    assert_sweep_is_fresh(clone)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans(),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
def test_kept_sweep_is_exact_on_random_pivot_sequences(seed, netgen, picks):
    # every pick sweeps, then pivots on a candidate it names, re-solves under
    # new costs (a jump of several versions) or pivots nothing (a kept sweep)
    rng = np.random.default_rng(seed)
    if netgen:
        p = probio.generate_netgen_fc(probio.NetgenFcSpec(
            nodes=10, source_count=3, sink_count=3, arc_count=36, total_supply=40,
            cap_range=(5, 30), seed=seed))
    else:
        p = random_transport(rng, 3, 4, fmax=30, cap_lo=2, cap_hi=9)
    try:
        state = nc.solve_lp(p, p.cost)
    except nc.Infeasible:
        return
    for pick in picks:
        assert_sweep_is_fresh(state)
        cand = np.flatnonzero(~state.basic[: state.m])
        if pick % 8 == 0:
            nc.reoptimize(state, p.cost + p.fixed / rng.uniform(1.0, 20.0, size=p.arc_count))
        elif pick % 8 != 1 and cand.size:
            nc.pivot(state, nc.evaluate_fc_entering(state, int(cand[pick % cand.size])))
    assert_sweep_is_fresh(state)
    state.assert_valid_basis()


def test_capping_the_root_arcs_drops_the_kept_sweep(monkeypatch):
    # source 0, sink 1, transshipment nodes 2 and 3, whose artificial arcs
    # point at the root and stay in the optimal tree at flow 0. A cycle
    # through the root lowers one of them, so it is degenerate before the
    # cap too; the cap makes the root arc it raises block as well, and that
    # one, last in push order, leaves instead
    p = nc.make_problem([2, -2, 0, 0], [
        (3, 0, 3, 5, 9), (2, 0, 7, 5, 9), (0, 1, 4, 5, 9), (0, 2, 3, 5, 9),
    ])
    for path in NARROWED:
        with sweep_path(monkeypatch, path) as patch:
            state = nc.SimplexState(p, p.cost)
            with pytest.raises(nc.SimplexStalled):
                state.close_artificial_arcs()
            state.optimize()
            assert not state.has_artificial_flow()
            assert_sweep_is_fresh(state)
            cand = nc.evaluate_all_entering(state)[0]
            stale = [nc.evaluate_fc_entering(state, j) for j in cand.tolist()]
            answered = spy_answers(patch, state)
            state.close_artificial_arcs()
            assert_sweep_is_fresh(state)
            assert answered == [cand.tolist()]
            new = [nc.evaluate_fc_entering(state, j) for j in cand.tolist()]
            assert any(a.leaving != b.leaving and b.leaving >= state.m for a, b in zip(stale, new))
            with pytest.raises(nc.StalePivotEval):
                nc.pivot(state, stale[0])


# -- bounds read from flows ---------------------------------------------------------


def weak_tree_arcs(state):
    """Tree arcs that fail the strong-feasibility test of Ahuja, Magnanti and
    Orlin: no positive flow can pass them toward the root, because an arc
    pointing up is at its capacity or one pointing down is at 0. A capped
    root arc always fails it."""
    e = np.asarray(state.pred_arc[: state.n])
    up = state.tail[e] == np.arange(state.n)
    return e[np.where(up, state.flow[e] == state.cap[e], state.flow[e] == 0)]


def weak_real_tree_arcs(state):
    return int(np.count_nonzero(weak_tree_arcs(state) < state.m))


@pytest.fixture
def exchanges(monkeypatch):
    """Per pivot: the capacity of the entering arc, and for an exchange the
    count of real tree arcs failing the strong-feasibility test after it."""
    seen = {"entered cap": [], "weak": []}
    apply = nc.SimplexState._apply

    def spied(state, j, k, delta, cycle):
        seen["entered cap"].append(int(state.cap[j]))
        apply(state, j, k, delta, cycle)
        if k != j:
            seen["weak"].append(weak_real_tree_arcs(state))

    monkeypatch.setattr(nc.SimplexState, "_apply", spied)
    return seen


@pytest.mark.parametrize("make", [fctp_instance, netgen_instance], ids=["fctp", "netgen"])
def test_no_zero_capacity_arc_enters_through_solves_and_a_search(exchanges, make):
    # a capped root arc has equal bounds: entering it could only flip it
    # between them or swap it into the tree with no flow change
    p = make()
    state = nc.solve_lp(p, p.cost)
    rng = np.random.default_rng(5)
    for _ in range(5):
        nc.reoptimize(state, p.cost + p.fixed / rng.uniform(1.0, 50.0, size=p.arc_count))
    gits.GhostImageSearch(p, gits.Params(MaxOutsideIter=5)).run()
    assert len(exchanges["entered cap"]) > 300
    assert min(exchanges["entered cap"]) > 0


def test_fctp_tree_stays_strongly_feasible_through_warm_starts_and_a_search(exchanges):
    # the LP tree keeps one root arc, so no pivot after the cap passes
    # through the root, and the last-blocking rule keeps every tree arc
    # passable toward the root
    p = fctp_instance()
    state = nc.solve_lp(p, p.cost)
    rng = np.random.default_rng(0)
    for _ in range(20):
        nc.reoptimize(state, p.cost + p.fixed / rng.uniform(1.0, 50.0, size=p.arc_count))
    eng = gits.GhostImageSearch(p, gits.Params())
    eng.run()
    assert len(exchanges["weak"]) > 2000
    assert max(exchanges["weak"]) == 0
    assert weak_real_tree_arcs(eng.state) == 0


def test_zero_supply_nodes_start_on_arcs_toward_the_root():
    # a transshipment node's artificial arc pointing down would sit at 0, a
    # tree arc no flow can pass toward the root
    p = netgen_instance()
    assert (p.supply == 0).sum() > 20 and (p.supply > 0).sum() > 1
    state = nc.SimplexState(p, p.cost)
    art = np.arange(state.m, state.E)
    assert np.array_equal(state.head[art] == state.root, p.supply >= 0)
    assert weak_tree_arcs(state).size == 0
    state = nc.solve_lp(p, p.cost)
    assert weak_real_tree_arcs(state) == 0


def test_sole_source_starts_at_its_artificial_capacity():
    p = nc.make_problem([5, 0, -5], [(0, 1, 1, 0, 9), (1, 2, 1, 0, 9)])
    state = nc.SimplexState(p, p.cost)
    assert weak_tree_arcs(state).tolist() == [state.m]
    state = nc.solve_lp(p, p.cost)
    assert state.real_flows().tolist() == [5, 5]


# -- solver invariants ------------------------------------------------------------


def test_solver_determinism():
    rng = np.random.default_rng(11)
    p = random_transport(rng, 4, 4)
    costs = p.cost.tolist()
    s1 = nc.solve_lp(p, costs)
    s2 = nc.solve_lp(p, costs)
    assert np.array_equal(s1.real_flows(), s2.real_flows())
    assert s1.pivot_count == s2.pivot_count


def test_integrality_preserved_through_pivots():
    rng = np.random.default_rng(21)
    p = random_transport(rng, 4, 3, fmax=40)
    state = nc.solve_lp(p, p.cost.tolist())
    assert state.flow.dtype == np.int64
    for _ in range(5):
        cand, delta, xoj, ok = nc.evaluate_all_entering(state)
        sel = np.nonzero(ok)[0]
        if not sel.size:
            break
        j = int(cand[sel[0]])
        nc.pivot(state, nc.evaluate_fc_entering(state, j))
        state.assert_valid_basis()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_random_instances_solve_clean(seed, m, n):
    rng = np.random.default_rng(seed)
    p = random_transport(rng, m, n, cap_lo=2, cap_hi=9)
    rows = problem_rows(p)
    feasible, ref_cost, _ = min_cost_flow(p.node_count, p.supply, rows)
    try:
        state = nc.solve_lp(p, p.cost.tolist())
    except nc.Infeasible:
        assert not feasible
        return
    assert feasible
    state.assert_valid_basis()
    assert int(np.dot(state.real_flows(), p.cost.tolist())) == ref_cost
