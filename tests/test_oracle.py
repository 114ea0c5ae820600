import itertools
import warnings

import numpy as np
import pytest

from fixnet import gits
from fixnet import netcore as nc
from fixnet import oracle, probio


def two_by_two_diagonal():
    return nc.make_problem(
        [5, 5, -5, -5],
        [(0, 2, 1, 0, 10), (0, 3, 1, 100, 10), (1, 2, 1, 100, 10), (1, 3, 1, 0, 10)],
    )


def enumerate_transport_tables(sup, dem, caps):
    """Yield every integer transportation table with the given margins.

    Independent route: raw composition enumeration, no LP involved.
    """
    m, n = len(sup), len(dem)

    def rows(row_idx, remaining_dem):
        if row_idx == m:
            if all(r == 0 for r in remaining_dem):
                yield []
            return
        total = sup[row_idx]

        def cells(col, left, acc):
            if col == n - 1:
                hi = min(left, remaining_dem[col], caps[row_idx][col])
                if left <= hi:
                    yield acc + [left]
                return
            hi = min(left, remaining_dem[col], caps[row_idx][col])
            for val in range(hi + 1):
                yield from cells(col + 1, left - val, acc + [val])

        for row in cells(0, total, []):
            rest = [remaining_dem[c] - row[c] for c in range(n)]
            for tail in rows(row_idx + 1, rest):
                yield [row] + tail

    yield from rows(0, dem[:])


def exhaustive_fc_optimum(problem, m, n):
    sup = list(problem.supply[:m])
    dem = [-b for b in problem.supply[m:]]
    caps = [[0] * n for _ in range(m)]
    costs = [[0] * n for _ in range(m)]
    fixes = [[0] * n for _ in range(m)]
    for t, h, c, f, u in zip(*(col.tolist() for col in (problem.tail, problem.head,
                                                           problem.cost, problem.fixed,
                                                           problem.cap))):
        caps[t][h - m] = u
        costs[t][h - m] = c
        fixes[t][h - m] = f
    best = None
    for table in enumerate_transport_tables(sup, dem, caps):
        val = 0
        for i in range(m):
            for k in range(n):
                x = table[i][k]
                if x:
                    val += costs[i][k] * x + fixes[i][k]
        if best is None or val < best:
            best = val
    return best


def small_fc_instance(seed, m=3, n=3, supply=8):
    rng = np.random.default_rng(seed)
    sup = [supply // m] * m
    sup[0] += supply - sum(sup)
    dem = [supply // n] * n
    dem[0] += supply - sum(dem)
    arcs = []
    for i in range(m):
        for k in range(n):
            arcs.append((i, m + k, int(rng.integers(1, 7)), int(rng.integers(5, 60)),
                         int(rng.integers(2, supply + 1))))
    return nc.make_problem(sup + [-d for d in dem], arcs)


# -- brute_force_opt -----------------------------------------------------------


def test_oracle_no_charges_is_one_lp():
    p = nc.make_problem([5, -5], [(0, 1, 3, 0, 10)])
    res = oracle.brute_force_opt(p)
    assert res.subsets_explored == 1
    assert res.optimum == 15


def test_oracle_diagonal_instance():
    res = oracle.brute_force_opt(two_by_two_diagonal())
    assert res.optimum == 10
    assert list(res.witness_flows) == [5, 0, 0, 5]


def test_oracle_explores_every_pattern():
    # branch and bound enumerates the 2^k open/closed patterns implicitly:
    # each is solved at a leaf or cut off by a bound. Each branching fixes
    # one charged arc and adds two nodes, so the count of LPs is odd and at
    # most 2^(k+1) - 1, and the optimum is the index-order enumeration's.
    p = probio.generate_fctp(
        probio.FctpSpec(sources=2, sinks=2, total_supply=10, fc_count=3, seed=1)
    )
    res = oracle.brute_force_opt(p)
    assert res.subsets_explored % 2 == 1 and res.subsets_explored <= 2 ** 4 - 1
    assert res.optimum == index_order_optimum(p)
    report = oracle.check_solution(p, res.witness_flows)
    assert report.feasible and report.objective == res.optimum


def test_oracle_rejects_oversized_instances():
    p = probio.generate_fctp(probio.FctpSpec(sources=5, sinks=5, total_supply=100, seed=0))
    with pytest.raises(oracle.TooLarge):
        oracle.brute_force_opt(p, max_fc_arcs=20)


def test_oracle_handles_deep_chains_whose_closure_disconnects():
    # closing a chain arc leaves no open route; the node LP must still route
    # the chain at BigM, and the node is then empty, not a crash
    p = nc.make_problem(
        [5, 0, 0, -5],
        [(0, 1, 1, 10, 5), (1, 2, 1, 10, 5), (2, 3, 1, 10, 5)],
    )
    res = oracle.brute_force_opt(p)
    assert res.optimum == 15 + 30  # the single chain, all charges paid
    assert list(res.witness_flows) == [5, 5, 5]


def test_oracle_refuses_costs_that_outweigh_the_capped_bigm():
    # closed at the capped big-M 1e12, arc 0 still undercuts arc 1, so no
    # pattern prices arc 1 alone: the enumeration would report 10000001000000
    # as proven, while the optimum is 10000000000005
    p = nc.make_problem([5, -5], [(0, 1, 2 * 10**12, 10**6, 10),
                                  (0, 1, 2 * 10**12 + 1, 0, 10)])
    with pytest.raises(oracle.TooLarge):
        oracle.brute_force_opt(p)


@pytest.mark.parametrize("arcs,refused", [
    ([(0, 1, 10**12 - 1, 7, 10)], False),
    ([(0, 1, 10**12, 7, 10)], True),
    ([(0, 1, 10**12 - 1, 7, 10), (1, 0, 10**15, 0, 0)], False),  # no capacity, no detour
    ([(0, 1, 10**12 - 10, 100, 10)], True),  # |c_j| falls short, c_j + F_j/U_j does not
], ids=["below", "equal", "uncapacitated-arc", "charge-spread"])
def test_oracle_bigm_must_exceed_the_summed_unit_costs(arcs, refused):
    p = nc.make_problem([5, -5], arcs)
    assert nc.default_bigm(p) == nc.BIGM_CAP
    if refused:
        with pytest.raises(oracle.TooLarge):
            oracle.brute_force_opt(p)
    else:
        assert oracle.brute_force_opt(p).optimum == 5 * (10**12 - 1) + 7


def test_oracle_matches_exhaustive_table_enumeration():
    for seed in range(6):
        p = small_fc_instance(seed)
        want = exhaustive_fc_optimum(p, 3, 3)
        got = oracle.brute_force_opt(p)
        assert got.optimum == want
        assert nc.fc_objective(p, got.witness_flows) == got.optimum


def index_order_optimum(problem):
    """Independent reference: every open/closed pattern of the charged arcs
    in plain index order, a closed arc at capacity 0, each pattern solved
    cold at the unit costs and charged for the arcs its flow uses."""
    fc = np.flatnonzero(problem.fixed > 0)
    best = None
    for closed in itertools.product((False, True), repeat=fc.size):
        cap = problem.cap.copy()
        cap[fc[list(closed)]] = 0
        q = nc.NetworkProblem(problem.supply, problem.tail, problem.head,
                              problem.cost, problem.fixed, cap)
        try:
            flows = nc.solve_lp(q, q.cost).real_flows()
        except nc.Infeasible:
            continue
        value = nc.fc_objective(problem, flows)
        best = value if best is None else min(best, value)
    return best


ORDER_CASES = [
    ("fctp", lambda seed: probio.generate_fctp(probio.FctpSpec(
        3, 4, total_supply=60, fc_count=8, seed=seed))),
    ("netgen", lambda seed: probio.generate_netgen_fc(probio.NetgenFcSpec(
        nodes=7, source_count=2, sink_count=2, arc_count=10, total_supply=90,
        cap_range=(30, 90), seed=seed))),
    # seed 0 has a charged arc of capacity 0, which the LP can never price
    ("netgen-cap0", lambda seed: probio.generate_netgen_fc(probio.NetgenFcSpec(
        nodes=7, source_count=2, sink_count=2, arc_count=10, total_supply=90,
        cap_range=(0, 90), seed=seed))),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make", [m for _, m in ORDER_CASES], ids=[i for i, _ in ORDER_CASES])
def test_reordered_enumeration_keeps_the_index_order_optimum(make, seed):
    # branch and bound visits the patterns in its own branching order and
    # cuts most of them off by a bound; it must keep the optimum of the
    # plain index-order enumeration
    p = make(seed)
    res = oracle.brute_force_opt(p)
    assert res.optimum == index_order_optimum(p)
    report = oracle.check_solution(p, res.witness_flows)
    assert report.feasible and report.objective == res.optimum


def random_network(rng):
    """A network of 3 to 5 nodes and 5 to 9 arcs with unit costs from -4 to
    9, seven in ten arcs charged, capacities from 0 to 8 and a parallel copy
    of its first arc. Supplies are those of a random flow within the
    capacities; four in ten then move units from the last node to node 0,
    which often leaves no feasible flow."""
    n = int(rng.integers(3, 6))
    arcs = []
    for _ in range(int(rng.integers(4, 9))):
        tail, head = rng.choice(n, size=2, replace=False).tolist()
        fixed = int(rng.integers(1, 40)) if rng.random() < 0.7 else 0
        arcs.append((tail, head, int(rng.integers(-4, 10)), fixed, int(rng.integers(0, 9))))
    arcs.append(arcs[0][:2] + (int(rng.integers(-4, 10)), int(rng.integers(0, 40)), 5))
    supply = [0] * n
    for tail, head, _, _, cap in arcs:
        x = int(rng.integers(0, cap + 1))
        supply[tail] += x
        supply[head] -= x
    shift = int(rng.integers(2, 9)) if rng.random() < 0.4 else 0
    supply[0] += shift
    supply[-1] -= shift
    return nc.make_problem(supply, arcs)


def test_oracle_agrees_with_the_index_order_reference_on_random_networks():
    rng = np.random.default_rng(2024)
    seen = {"infeasible": 0, "cap0-charged": 0, "negative": 0}
    for _ in range(200):
        p = random_network(rng)
        want = index_order_optimum(p)
        seen["cap0-charged"] += bool(np.any((p.cap == 0) & (p.fixed > 0)))
        seen["negative"] += bool(np.any(p.cost < 0))
        if want is None:
            seen["infeasible"] += 1
            with pytest.raises(nc.Infeasible):
                oracle.brute_force_opt(p)
            continue
        res = oracle.brute_force_opt(p)
        assert res.optimum == want
        report = oracle.check_solution(p, res.witness_flows)
        assert report.feasible and report.objective == want
    assert min(seen.values()) >= 20, seen


def test_oracle_margin_covers_an_lp_stopped_within_the_pricing_tolerance():
    # Free, arc 1's charge spreads to (2^24 - 1) / 2^24 a unit on the grid
    # of S = 2^24, below arc 0's 1, so the root LP puts all 10^8 units on
    # arc 1. Rounding the spread down lowers the bound by 10^8 / 2^24, about
    # 6, below the incumbent's 10^8 - 1, so the node is kept with no free
    # arc fractional: the branch on a free arc at a bound is reachable
    # because sum U_j >= S. Its open child on arc 1 is the optimum. (The
    # name dates from a float simplex, whose pricing tolerance stopped this
    # LP on arc 0.)
    u = 10**8
    p = nc.make_problem([u, -u], [(0, 1, 1, 0, u), (0, 1, 0, u - 1, u)])
    res = oracle.brute_force_opt(p)
    assert res.optimum == u - 1 == index_order_optimum(p)
    assert list(res.witness_flows) == [0, u]


def test_oracle_proves_a_testset1_fctp_beyond_twenty_charged_arcs():
    # the 10x10 type A testset1 row: 100 charged arcs
    p = probio.generate_fctp(probio.FctpSpec(10, 10, total_supply=10000,
                                             fc_range=(50, 200), seed=120))
    res = oracle.brute_force_opt(p, max_fc_arcs=100)
    assert res.optimum == 36083
    report = oracle.check_solution(p, res.witness_flows)
    assert report.feasible and report.objective == res.optimum
    assert gits.run(p).best_value >= res.optimum


# The optimum of each of the nine small_exact instances of benchmark seed 0,
# as the enumeration of all 2^12 open/closed patterns proved it. Another
# optimal witness is legal, so the witness is certified, not pinned.
SMALL_EXACT_SEED0 = [(4, 9000, 2154), (4, 9001, 2429), (4, 9002, 2431),
                     (5, 9003, 2026), (5, 9004, 2384), (5, 9005, 2151),
                     (6, 9006, 2896), (6, 9007, 2257), (6, 9008, 2713)]


@pytest.mark.parametrize("size,seed,optimum", SMALL_EXACT_SEED0,
                         ids=[str(case[1]) for case in SMALL_EXACT_SEED0])
def test_oracle_keeps_the_pinned_small_exact_answers(size, seed, optimum):
    p = probio.generate_fctp(probio.FctpSpec(size, size, total_supply=100 * size,
                                             cost_range=(3, 8), fc_range=(50, 200),
                                             fc_count=12, seed=seed))
    res = oracle.brute_force_opt(p, max_fc_arcs=14)
    assert res.optimum == optimum
    report = oracle.check_solution(p, res.witness_flows)
    assert report.feasible and report.objective == optimum


def test_oracle_witness_consistency():
    p = small_fc_instance(11)
    res = oracle.brute_force_opt(p)
    report = oracle.check_solution(p, res.witness_flows)
    assert report.feasible
    assert report.objective == res.optimum


def test_oracle_never_beats_any_feasible_solution():
    p = small_fc_instance(12)
    res = oracle.brute_force_opt(p)
    heur = gits.run(p)
    assert res.optimum <= heur.best_value
    lp = nc.solve_lp(p, p.cost.tolist())
    lp_obj = int(np.dot(lp.real_flows(), p.cost.tolist()))
    assert lp_obj <= res.optimum


def test_closing_arcs_never_improves_pattern_value():
    # independent monotonicity route: capacity closure on nested patterns
    p = small_fc_instance(13)
    costs = p.cost.tolist()
    fc = np.flatnonzero(p.fixed > 0)[:4].tolist()

    def closed_value(closed):
        cap = p.cap.copy()
        cap[list(closed)] = 0
        q = nc.NetworkProblem(p.supply, p.tail, p.head, p.cost, p.fixed, cap)
        try:
            s = nc.solve_lp(q, costs)
        except nc.Infeasible:
            return None
        return int(np.dot(s.real_flows(), costs))

    for size in range(len(fc)):
        for subset in itertools.combinations(fc, size):
            base = closed_value(set(subset))
            if base is None:
                continue
            for extra in fc:
                if extra in subset:
                    continue
                bigger = closed_value(set(subset) | {extra})
                if bigger is not None:
                    assert bigger >= base


# -- check_solution ---------------------------------------------------------------


def test_check_solution_accepts_witness():
    p = two_by_two_diagonal()
    report = oracle.check_solution(p, [5, 0, 0, 5])
    assert report.feasible
    assert report.objective == 10
    assert report.violations == []


def test_check_solution_names_bound_violation():
    p = two_by_two_diagonal()
    report = oracle.check_solution(p, [11, -6, 0, 5])
    assert not report.feasible
    assert any("arc 0" in v for v in report.violations)
    assert any("arc 1" in v for v in report.violations)
    assert report.objective is None


def test_check_solution_names_conservation_violation():
    p = two_by_two_diagonal()
    report = oracle.check_solution(p, [5, 0, 0, 4])
    assert not report.feasible
    assert any("node" in v for v in report.violations)


def test_check_solution_names_a_flow_vector_of_the_wrong_shape():
    report = oracle.check_solution(two_by_two_diagonal(), [5, 0, 0])
    assert not report.feasible and report.objective is None
    assert report.violations == ["flow vector has shape (3,), expected (4,)"]


def test_check_solution_flags_fractional_flow():
    p = two_by_two_diagonal()
    report = oracle.check_solution(p, np.array([5.0, 0.0, 0.5, 4.5]))
    assert not report.feasible
    assert any("fractional" in v for v in report.violations)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300])
def test_check_solution_flags_non_finite_and_huge_flows_without_casting(bad):
    p = nc.make_problem([5, -5], [(0, 1, 3, 100, 10)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast of bad to int64 would warn
        report = oracle.check_solution(p, np.array([bad]))
        with pytest.raises(nc.InfeasibleFlows):
            nc.fc_objective(p, [bad])
    assert not report.feasible and report.objective is None
    assert report.violations and all(v.startswith("arc 0:") for v in report.violations)


def test_check_solution_validates_heuristic_output():
    p = small_fc_instance(21)
    res = gits.run(p)
    report = oracle.check_solution(p, res.best_flows)
    assert report.feasible
    assert report.objective == res.best_value
