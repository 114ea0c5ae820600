"""Acceptance suite. Each criterion prints one pass/fail line (visible with
pytest -s; captured output is shown on failure) and asserts its tolerance."""

import time
from pathlib import Path

import numpy as np
import pytest

from fixnet import bench, gits
from fixnet import netcore as nc
from fixnet import oracle, probio
from ssp_reference import min_cost_flow, problem_rows


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- shared expensive fixtures -------------------------------------------------


@pytest.fixture(scope="session")
def small_quality_runs():
    """30 seeded dense transportation instances, 4x4 to 6x6, vs the oracle."""
    out = []
    idx = 0
    for m, n in [(4, 4), (5, 5), (6, 6)]:
        for _ in range(10):
            seed = 9000 + idx
            idx += 1
            spec = probio.FctpSpec(sources=m, sinks=n, total_supply=100 * m,
                                   cost_range=(3, 8), fc_range=(50, 200),
                                   fc_count=12, seed=seed)
            problem = probio.generate_fctp(spec)
            result = gits.run(problem)
            opt = oracle.brute_force_opt(problem, max_fc_arcs=14)
            out.append((problem, result, opt))
    return out


@pytest.fixture(scope="session")
def zero_fc_runs():
    """20 seeded instances with no fixed charges at all."""
    out = []
    for seed in range(20):
        spec = probio.FctpSpec(sources=4, sinks=5, total_supply=120,
                               fc_range=(50, 200), fc_count=0, seed=500 + seed)
        problem = probio.generate_fctp(spec)
        costs = problem.cost.tolist()
        lp = nc.solve_lp(problem, costs)
        lp_obj = int(np.dot(lp.real_flows(), costs))
        result = gits.run(problem)
        out.append((problem, result, lp_obj))
    return out


# -- criterion 1: small-problem quality mirror ----------------------------------


def test_criterion_1_small_problem_quality(small_quality_runs):
    ratios = [res.best_value / opt.optimum for _, res, opt in small_quality_runs]
    mean_ratio = float(np.mean(ratios))
    optimal = sum(1 for _, res, opt in small_quality_runs
                  if res.best_value == opt.optimum)
    lower_ok = all(r >= 1.0 - 1e-9 for r in ratios)
    ok = mean_ratio <= 1.01 and lower_ok and optimal * 3 >= len(small_quality_runs)
    report(1, "small-problem quality vs oracle", ok,
           f"mean ratio {mean_ratio:.5f} (<= 1.01), proven optimal "
           f"{optimal}/{len(small_quality_runs)} (>= 1/3)")


def test_criterion_1_sandwich_bound(small_quality_runs):
    # LP relaxation <= exact optimum <= heuristic on every instance
    ok = True
    for problem, res, opt in small_quality_runs:
        costs = problem.cost.tolist()
        lp = nc.solve_lp(problem, costs)
        lp_obj = int(np.dot(lp.real_flows(), costs))
        if not lp_obj <= opt.optimum <= res.best_value:
            ok = False
            break
    report(1, "lower-bound sandwich", ok, "LP <= oracle <= heuristic on all 30")


# -- criterion 2: zero-fixed-charge degeneration ---------------------------------


def test_criterion_2_zero_charge_equals_lp(zero_fc_runs):
    bad = [(res.best_value, lp) for _, res, lp in zero_fc_runs if res.best_value != lp]
    report(2, "zero-charge runs equal the LP optimum exactly", not bad,
           f"{len(zero_fc_runs)} instances, tolerance 0" + (f"; first miss {bad[0]}" if bad else ""))


# -- criterion 3: simplex oracle equivalence --------------------------------------


def _mixed_instances(count):
    out = []
    for seed in range(count):
        if seed % 2 == 0:
            spec = probio.FctpSpec(sources=4 + seed % 3, sinks=5 + seed % 4,
                                   total_supply=150, fc_count=0, seed=seed)
            out.append(probio.generate_fctp(spec))
        else:
            spec = probio.NetgenFcSpec(nodes=18 + seed % 10, source_count=5,
                                       sink_count=6, arc_count=80 + seed % 30,
                                       total_supply=600, cap_range=(40, 200),
                                       seed=seed)
            out.append(probio.generate_netgen_fc(spec))
    return out


def test_criterion_3_simplex_matches_ssp_and_warm_start():
    rng = np.random.default_rng(31)
    instances = _mixed_instances(50)
    for problem in instances:
        assert problem.node_count <= 30 and problem.arc_count <= 120
        costs = problem.cost
        rows = problem_rows(problem)
        feasible, ref_cost, _ = min_cost_flow(problem.node_count, problem.supply, rows)
        state = nc.solve_lp(problem, costs)
        got = int(np.dot(state.real_flows(), costs))
        assert feasible and got == ref_cost, f"LP {got} != SSP {ref_cost}"
        perturbed = costs + rng.integers(-2, 6, size=problem.arc_count)
        nc.reoptimize(state, perturbed)
        cold = nc.solve_lp(problem, perturbed)
        warm_obj = int(np.dot(state.real_flows(), perturbed))
        cold_obj = int(np.dot(cold.real_flows(), perturbed))
        assert warm_obj == cold_obj, f"warm {warm_obj} != cold {cold_obj}"
    report(3, "simplex equals SSP oracle and warm start equals cold solve", True,
           "50 instances, tolerance 0")


# -- criterion 4: pivot-delta exactness --------------------------------------------


def test_criterion_4_pivot_delta_exactness():
    rng = np.random.default_rng(41)
    checked_states = 0
    checked_evals = 0
    for seed in range(25):
        spec = probio.FctpSpec(sources=3, sinks=3, total_supply=60,
                               fc_range=(20, 120), fc_count=6, seed=700 + seed)
        problem = probio.generate_fctp(spec)
        state = nc.solve_lp(problem, problem.cost.tolist())
        for _ in range(10):
            before = nc.fc_objective(problem, state.real_flows())
            cand, delta, xoj, ok = nc.evaluate_all_entering(state)
            admissible = []
            for pos, j in enumerate(cand):
                ev = nc.evaluate_fc_entering(state, int(j))
                assert ev.delta == delta[pos]
                if not ok[pos]:
                    continue
                assert ev.objective_delta == xoj[pos]
                clone = state.copy()
                nc.pivot(clone, ev)
                after = nc.fc_objective(problem, clone.real_flows())
                assert after - before == ev.objective_delta, (
                    f"arc {j}: recompute {after - before} != delta {ev.objective_delta}"
                )
                checked_evals += 1
                admissible.append(ev)
            checked_states += 1
            if not admissible:
                break
            # walk to the next sampled state along a random admissible pivot
            nc.pivot(state, admissible[int(rng.integers(0, len(admissible)))])
    report(4, "pivot deltas exact at sampled states", True,
           f"{checked_states} states, {checked_evals} evaluations, tolerance 0")


# -- criterion 5: monotone global best and consistency ------------------------------


def test_criterion_5_monotonicity_and_consistency(small_quality_runs, zero_fc_runs):
    runs = [(p, r) for p, r, _ in small_quality_runs]
    runs += [(p, r) for p, r, _ in zero_fc_runs]
    for problem, res in runs:
        trace = res.gbest_trace
        assert all(x >= y for x, y in zip(trace, trace[1:])), "trace increased"
        rep = oracle.check_solution(problem, res.best_flows)
        assert rep.feasible, rep.violations
        assert rep.objective == res.best_value
    report(5, "global-best trace nonincreasing, solutions check out", True,
           f"{len(runs)} runs")


# -- criterion 6: scale smoke test ---------------------------------------------------


def test_criterion_6_large_dense_run_under_budget():
    spec = probio.FctpSpec(sources=50, sinks=100, total_supply=50000,
                           cost_range=(3, 8), fc_range=(6400, 25600), seed=6)
    problem = probio.generate_fctp(spec)
    assert problem.arc_count == 5000
    t0 = time.perf_counter()
    res = gits.run(problem)
    elapsed = time.perf_counter() - t0
    rep = oracle.check_solution(problem, res.best_flows)
    ok = elapsed < 60.0 and rep.feasible and rep.objective == res.best_value
    report(6, "50x100 dense run inside the time budget", ok,
           f"{elapsed:.1f}s (< 60s), best {res.best_value}")


# -- criterion 7: suite reproducibility -----------------------------------------------


TS2_EXPECTED = set()
for nodes in (500, 1000, 3000, 5000):
    for frac in ((0.30, 0.70), (0.20, 0.20)):
        for arcs in (10000, 50000, 100000):
            for supply in (100000, 500000):
                for fc in ((20, 200), (1600, 6400)):
                    TS2_EXPECTED.add(
                        (nodes, int(nodes * frac[0]), int(nodes * frac[1]),
                         arcs, supply, fc)
                    )


def _suite_fingerprint(directory):
    prints = {}
    for path in sorted(Path(directory).glob("*.fcnf")):
        prints[path.name] = path.read_bytes()
    return prints


def test_criterion_7_testset2_reproducible(tmp_path):
    dir1 = tmp_path / "a"
    dir2 = tmp_path / "b"
    assert bench.main(["generate", "--suite", "testset2", "--seed", "17",
                       "--out-dir", str(dir1)]) == 0
    assert bench.main(["generate", "--suite", "testset2", "--seed", "17",
                       "--out-dir", str(dir2)]) == 0
    fp1, fp2 = _suite_fingerprint(dir1), _suite_fingerprint(dir2)
    assert len(fp1) == 96
    assert fp1 == fp2, "suites are not byte-identical"
    seen = set()
    for path in sorted(dir1.glob("*.fcnf")):
        problem = probio.parse_fcnf(path.read_text())
        srcs = int(np.count_nonzero(problem.supply > 0))
        snks = int(np.count_nonzero(problem.supply < 0))
        total = int(problem.supply[problem.supply > 0].sum())
        fx = problem.fixed
        fc = (20, 200) if fx.max() <= 200 else (1600, 6400)
        assert fx.min() >= fc[0] and fx.max() <= fc[1]
        assert np.all((200 <= problem.cap) & (problem.cap <= 1500))
        assert np.all((3 <= problem.cost) & (problem.cost <= 8))
        seen.add((problem.node_count, srcs, snks, problem.arc_count, total, fc))
    ok = seen == TS2_EXPECTED
    report(7, "testset2 suite: 96 byte-stable instances, full factorial", ok,
           f"{len(fp1)} files, {len(seen)} distinct factor combinations")


# -- criterion 8: ring buffer and diversification properties ---------------------------


def _scripted_engine(params):
    problem = probio.generate_fctp(
        probio.FctpSpec(sources=3, sinks=3, total_supply=30, fc_count=6, seed=1)
    )
    eng = gits.GhostImageSearch(problem, params)
    eng._bootstrap()
    return eng


def test_criterion_8_ring_and_diversification_properties():
    rng = np.random.default_rng(88)

    # strictly-oldest eviction against a newest-first shadow list
    prm = gits.Params(sLim=5, LimMatch=10**6)
    eng = _scripted_engine(prm)
    mem = eng.mem
    k = eng.fc.size  # patterns are over the charged arcs
    shadow = [mem.ring[0].copy()] + [np.zeros(k, dtype=bool)] * (prm.sLim - 1)
    for _ in range(40):
        vec = np.zeros(k, dtype=bool)
        vec[rng.integers(0, 2, size=k).astype(bool)] = True
        mem.zero_now = vec
        matched = eng.dup_check()
        if not matched:
            shadow = [vec.copy()] + shadow[: prm.sLim - 1]
        rows = [mem.ring[(mem.first + i) % prm.sLim] for i in range(prm.sLim)]
        assert all(np.array_equal(a, b) for a, b in zip(rows, shadow))

    # a match streak past LimMatch always triggers diversification
    prm = gits.Params(LimMatch=4, MaxPass=50)
    eng = _scripted_engine(prm)
    calls = []
    real_diversify = eng.diversify
    eng.diversify = lambda: (calls.append(eng.mem.n_match), real_diversify())
    streak = 0
    for _ in range(30):
        eng.mem.zero_now = eng.mem.ring[eng.mem.first].copy()
        eng.dup_check()
        streak += 1
        if streak > prm.LimMatch:
            assert len(calls) == 1 or calls, "match budget exceeded without diversify"
    assert calls and all(c > prm.LimMatch for c in calls)

    # the pass counter never exceeds its budget, stopping instead
    prm = gits.Params(MaxPass=3)
    eng = _scripted_engine(prm)
    stopped = False
    for _ in range(10):
        try:
            eng.diversify()
        except gits._StopSearch:
            stopped = True
            break
        assert eng.mem.pass_num <= prm.MaxPass
    assert stopped and eng.mem.pass_num == prm.MaxPass

    # frequency counts reset exactly at pass multiples of ZeroRefresh
    prm = gits.Params(MaxPass=100, ZeroRefresh=3)
    eng = _scripted_engine(prm)
    for expected_pass in range(1, 10):
        eng.mem.sum_zero[:] = 7
        eng.diversify()
        assert eng.mem.pass_num == expected_pass
        if expected_pass % prm.ZeroRefresh == 0:
            assert not eng.mem.sum_zero.any()
        else:
            assert eng.mem.sum_zero.any()

    report(8, "ring eviction, diversify trigger, pass cap, refresh cadence", True)


def test_criterion_8_pass_budget_in_real_runs(small_quality_runs):
    ok = all(res.passes_used <= gits.Params().MaxPass for _, res, _ in small_quality_runs)
    report(8, "pass budget respected across quality runs", ok)
