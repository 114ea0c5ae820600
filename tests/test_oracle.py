import hashlib
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
    for a in problem.arcs:
        caps[a.tail][a.head - m] = a.capacity
        costs[a.tail][a.head - m] = a.cost
        fixes[a.tail][a.head - m] = a.fixed
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
    p = probio.generate_fctp(
        probio.FctpSpec(sources=2, sinks=2, total_supply=10, fc_count=3, seed=1)
    )
    res = oracle.brute_force_opt(p)
    assert res.subsets_explored == 2 ** 3


def test_oracle_rejects_oversized_instances():
    p = probio.generate_fctp(probio.FctpSpec(sources=5, sinks=5, total_supply=100, seed=0))
    with pytest.raises(oracle.TooLarge):
        oracle.brute_force_opt(p, max_fc_arcs=20)


def test_oracle_handles_deep_chains_whose_closure_disconnects():
    # closing all three chain arcs leaves no open route; the pattern LP must
    # still route the chain at BigM, not crash the enumeration
    p = nc.make_problem(
        [5, 0, 0, -5],
        [(0, 1, 1, 10, 5), (1, 2, 1, 10, 5), (2, 3, 1, 10, 5)],
    )
    res = oracle.brute_force_opt(p)
    assert res.subsets_explored == 8
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
], ids=["below", "equal", "uncapacitated-arc"])
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
    # the oracle toggles its charged arcs by reduced cost, not by index,
    # re-solves only toggles that break optimality, and prices each distinct
    # flow vector once
    p = make(seed)
    k = int(np.count_nonzero(p.fixed))
    res = oracle.brute_force_opt(p)
    assert res.subsets_explored == 2**k
    assert res.optimum == index_order_optimum(p)
    report = oracle.check_solution(p, res.witness_flows)
    assert report.feasible and report.objective == res.optimum


@pytest.mark.parametrize("seed", [9000, 9001, 9002])
def test_oracle_re_solves_only_toggles_that_break_optimality(monkeypatch, seed):
    # Between two re-solves, every cost change but the toggle that forced the
    # second must be on a nonbasic arc that pricing does not pick at the
    # potentials of that moment; the forcing toggle is on a tree arc or is
    # picked. An inverted skip rule still finds every optimum here.
    p = probio.generate_fctp(probio.FctpSpec(4, 4, total_supply=400, fc_count=12, seed=seed))
    last = [p.cost.astype(np.float64)]
    forcing = []
    reoptimize = oracle.reoptimize

    def spy(state, costs):
        c = np.asarray(costs, dtype=np.float64)
        changed = np.flatnonzero(c != last[0])
        breaks = [j for j in changed.tolist()
                  if state.basic[j] or state.prices(j, c[j])]
        forcing.append(len(breaks))
        last[0] = c.copy()
        return reoptimize(state, costs)

    monkeypatch.setattr(oracle, "reoptimize", spy)
    res = oracle.brute_force_opt(p, max_fc_arcs=14)
    assert forcing and set(forcing) == {1}
    assert res.subsets_explored == 2**12


# brute_force_opt's optimum and the sha256 of its witness flows (int64 bytes)
# on the nine small_exact instances of benchmark seed 0, before the exact skip
# rule and the per-call objective dict: neither may change an answer.
SMALL_EXACT_SEED0 = [
    (4, 9000, 2154, "da41ac6151f1bb12d799b88e28a635229fde35e12b80470d6506df15192b0de5"),
    (4, 9001, 2429, "639c4bf2a1b9095657bdc7e5f9aa454112e8744b80a36d752d83287a9e884b70"),
    (4, 9002, 2431, "e6748d92a100755d99392384d2cf9796d654faf631673522524a5dca0d88d77b"),
    (5, 9003, 2026, "b474c3f9b64491fd4d79a292c964cbf557fba3500878bb068e86c6d589a03cd6"),
    (5, 9004, 2384, "f2749435c074beed6ebc6f1e05273a88212f6b924a159bb5285cc7fb5f1b27df"),
    (5, 9005, 2151, "2f7ec6d1e79c2d44fbad145183724dc18badb5da3f00dbf3c19a91e626259796"),
    (6, 9006, 2896, "07de189765240f2e71f3e3ffe1739dc31e4aa0620cfc8fcb821b67c49b68afba"),
    (6, 9007, 2257, "39b9fea1e9de5a4fff9c6f589787fa34eefcb4a483ce29a382835478db7612c1"),
    (6, 9008, 2713, "dbe9199139d42bfded98bb14577067ba6b3cd7ebd4657b8fc8a27a849a9c9b40"),
]


@pytest.mark.parametrize("size,seed,optimum,witness", SMALL_EXACT_SEED0,
                         ids=[str(case[1]) for case in SMALL_EXACT_SEED0])
def test_oracle_keeps_the_pinned_small_exact_answers(size, seed, optimum, witness):
    p = probio.generate_fctp(probio.FctpSpec(size, size, total_supply=100 * size,
                                             cost_range=(3, 8), fc_range=(50, 200),
                                             fc_count=12, seed=seed))
    res = oracle.brute_force_opt(p, max_fc_arcs=14)
    flows = np.asarray(res.witness_flows, dtype=np.int64)
    assert (res.optimum, res.subsets_explored) == (optimum, 2**12)
    assert hashlib.sha256(flows.tobytes()).hexdigest() == witness


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
    lp = nc.solve_lp(p, [a.cost for a in p.arcs])
    lp_obj = int(np.dot(lp.real_flows(), [a.cost for a in p.arcs]))
    assert lp_obj <= res.optimum


def test_closing_arcs_never_improves_pattern_value():
    # independent monotonicity route: capacity closure on nested patterns
    p = small_fc_instance(13)
    costs = [a.cost for a in p.arcs]
    fc = [j for j, a in enumerate(p.arcs) if a.fixed > 0][:4]

    def closed_value(closed):
        arcs = []
        for j, a in enumerate(p.arcs):
            cap = 0 if j in closed else a.capacity
            arcs.append((a.tail, a.head, a.cost, a.fixed, cap))
        q = nc.make_problem(p.supply, arcs)
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
