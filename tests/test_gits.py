import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixnet import gits
from fixnet import netcore as nc
from fixnet import oracle, probio


def two_by_two_diagonal():
    return nc.make_problem(
        [5, 5, -5, -5],
        [(0, 2, 1, 0, 10), (0, 3, 1, 100, 10), (1, 2, 1, 100, 10), (1, 3, 1, 0, 10)],
    )


def bootstrapped_engine(problem=None, params=None, collect=False):
    eng = gits.GhostImageSearch(problem or two_by_two_diagonal(),
                                params or gits.Params(), collect_trace=collect)
    eng._bootstrap()
    return eng


def zero_fc_instance(seed):
    rng = np.random.default_rng(seed)
    sup = [int(rng.integers(5, 15)) for _ in range(3)]
    tot = sum(sup)
    dem = [tot // 3, tot // 3, tot - 2 * (tot // 3)]
    arcs = []
    for i in range(3):
        for k in range(3):
            arcs.append((i, 3 + k, int(rng.integers(1, 9)), 0, tot))
    return nc.make_problem(sup + [-d for d in dem], arcs)


# -- params ---------------------------------------------------------------------


def test_params_defaults_match_tuned_values():
    p = gits.Params()
    assert (p.MaxIter, p.MaxPass, p.MaxInsideImprove) == (50, 10, 40)
    assert (p.BadLuck, p.OutOfLuck) == (5, 20)
    assert (p.Alpha1, p.Alpha2, p.Alpha3, p.Beta) == (0.3, 0.45, 0.25, 0.4)
    assert (p.MaxSol, p.LimMatch, p.sLim, p.ZeroRefresh) == (1000, 10, 10, 30)
    assert (p.DescentTenure, p.AscentTenure) == (10, 10)


def test_params_validation():
    with pytest.raises(ValueError):
        gits.Params(Alpha1=0.5, Alpha2=0.5, Alpha3=0.5)
    with pytest.raises(ValueError):
        gits.Params(sLim=0)
    with pytest.raises(ValueError):
        gits.Params(MaxOutsideIter=-1)


@pytest.mark.parametrize("field,value", [
    ("TimeLimit", float("nan")), ("TimeLimit", float("inf")), ("TimeLimit", -1.0),
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", 0.0), ("epsilon", -1e-6),
    ("Beta", -0.1), ("Beta", 1.5),
])
def test_params_reject_non_finite_or_out_of_range_floats(field, value):
    with pytest.raises(ValueError, match=field):
        gits.Params(**{field: value})
    with pytest.raises(ValueError, match=field):
        gits.apply_overrides(gits.Params(), [f"{field}={value}"])


@pytest.mark.parametrize("field,value", [
    ("DoTabu", "no"), ("DoTabu", 1), ("sLim", 2.5), ("DescentTenure", "5"), ("Beta", "0.4"),
    ("MaxIter", True), ("MaxIter", 2.5), ("MaxOutsideIter", 1.0), ("TimeLimit", "1"),
])
def test_params_reject_a_value_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=field):
        gits.Params(**{field: value})


def test_params_take_numpy_numbers_and_ints_for_floats():
    p = gits.Params(MaxIter=np.int64(3), sLim=np.int32(4), Beta=np.float64(0.5), TimeLimit=5)
    assert (p.MaxIter, p.sLim, p.Beta, p.TimeLimit) == (3, 4, 0.5, 5)
    assert gits.Params(MaxOutsideIter=0).MaxOutsideIter == 0


def test_params_config_round_trip():
    text = """# every field, none at its default
    MaxIter=60
    MaxPass=3
    MaxInsideImprove=30
    BadLuck=4
    OutOfLuck=15
    Alpha1=0.5
    Alpha2=0.3
    Alpha3=0.2
    Beta=0.25
    MaxSol=500
    DescentTenure=3
    AscentTenure=7
    LimMatch=5
    sLim=6
    ZeroRefresh=20
    DoTabu=false
    epsilon=1e-7
    MaxOutsideIter=4
    TimeLimit=2.5
    """
    p = gits.Params(MaxIter=60, MaxPass=3, MaxInsideImprove=30, BadLuck=4, OutOfLuck=15,
                    Alpha1=0.5, Alpha2=0.3, Alpha3=0.2, Beta=0.25, MaxSol=500,
                    DescentTenure=3, AscentTenure=7, LimMatch=5, sLim=6, ZeroRefresh=20,
                    DoTabu=False, epsilon=1e-7, MaxOutsideIter=4, TimeLimit=2.5)
    assert gits.params_from_config(text) == p
    assert all(getattr(p, f.name) != f.default for f in dataclasses.fields(p))


def test_params_overrides_read_none_and_booleans_and_refuse_a_bare_key():
    p = gits.apply_overrides(gits.Params(MaxOutsideIter=3, TimeLimit=2.0, DoTabu=False),
                             ["MaxOutsideIter=none", "TimeLimit=", "DoTabu=on"])
    assert (p.MaxOutsideIter, p.TimeLimit, p.DoTabu) == (None, None, True)
    with pytest.raises(ValueError, match="DoTabu: expected a boolean"):
        gits.apply_overrides(p, ["DoTabu=maybe"])
    with pytest.raises(ValueError, match="expected KEY=VALUE"):
        gits.apply_overrides(p, ["MaxPass"])
    with pytest.raises(ValueError):  # None only where the field allows it
        gits.apply_overrides(p, ["MaxIter=none"])


def test_params_are_frozen():
    p = gits.Params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.MaxIter = 5
    assert p == gits.Params()


def test_params_overrides():
    p = gits.apply_overrides(gits.Params(), ["MaxPass=2", "DoTabu=false", "epsilon=1e-7"])
    assert p.MaxPass == 2 and p.DoTabu is False and p.epsilon == 1e-7
    with pytest.raises(ValueError):
        gits.apply_overrides(gits.Params(), ["NoSuchKey=1"])
    with pytest.raises(ValueError, match=r"^MaxIter: expected an integer, got 'abc'$"):
        gits.apply_overrides(gits.Params(), ["MaxIter=abc"])
    with pytest.raises(ValueError, match=r"^MaxOutsideIter: expected an integer, got '2.5'$"):
        gits.apply_overrides(gits.Params(), ["MaxOutsideIter=2.5"])
    with pytest.raises(ValueError, match=r"^Beta: expected a number, got 'half'$"):
        gits.apply_overrides(gits.Params(), ["Beta=half"])
    with pytest.raises(ValueError, match=r"^TimeLimit: expected a number, got '1s'$"):
        gits.apply_overrides(gits.Params(), ["TimeLimit=1s"])


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(gits.Params)
                                   if f.type in ("float", "Optional[float]")])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-past-float"])
def test_params_refuse_a_non_finite_value_for_every_float_field(field, value):
    # NaN passes every comparison a range check makes, Alpha1 + Alpha2 +
    # Alpha3 == 1 included, so finiteness is checked on its own; an int past
    # the float range is refused there too, not by an OverflowError later
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        gits.Params(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        gits.apply_overrides(gits.Params(), [f"{field}={value}"])


# -- build_penalties --------------------------------------------------------------


def make_pen(v):
    """Penalties over len(v) charged arcs."""
    v = np.asarray(v, dtype=np.float64)
    return gits.Penalties(v=v, mean=v.copy(), u_o=0, u0=np.zeros(v.size, dtype=np.int64))


def record_penalties(monkeypatch):
    """Collect every penalty vector the search builds from now on."""
    seen = []
    build = gits.build_penalties

    def recording(*args):
        seen.append(build(*args))
        return seen[-1]

    monkeypatch.setattr(gits, "build_penalties", recording)
    return seen


def test_build_penalties_direct_formula():
    p = gits.build_penalties(np.array([50.0]), np.array([100]), bigm=10**6, eps=1e-6)
    assert p[0] == 2.0


def test_build_penalties_small_denominator_gives_bigm():
    p = gits.build_penalties(np.array([1e-9]), np.array([100]), bigm=10**6, eps=1e-6)
    assert p[0] == 10**6


def test_build_penalties_uncharged_arc_is_zero(monkeypatch):
    # penalties cover the charged arcs only: the ghost re-solve prices an
    # uncharged arc at exactly its unit cost c_j
    eng = bootstrapped_engine(quality_instance(5))
    free = eng.problem.fixed == 0
    assert free.any() and eng.fc.size
    seen = []
    solve = gits.reoptimize

    def recording(state, costs):
        seen.append(costs)
        return solve(state, costs)

    monkeypatch.setattr(gits, "reoptimize", recording)
    penalties = record_penalties(monkeypatch)
    eng.ghost_resolve()
    (costs,), (p,) = seen, penalties
    cost = eng.problem.cost.astype(np.float64)
    assert np.array_equal(costs[free], cost[free])
    assert np.array_equal(costs[eng.fc], cost[eng.fc] + p)


def test_build_penalties_huge_denominator_gives_zero():
    p = gits.build_penalties(np.array([10.0**7]), np.array([100]), bigm=10**6, eps=1e-6)
    assert p[0] == 0.0


# -- v_update ---------------------------------------------------------------------


def test_v_update_first_solution_overwrites_mean():
    pen = make_pen([20.0])
    pen.mean[:] = 777.0
    gits.v_update(pen, np.array([10]), gits.Params())
    assert pen.num_sol == 1
    assert pen.mean[0] == 10.0


def test_v_update_published_example():
    # Alpha (0.3, 0.45, 0.25), Beta 0.4, x*=10, v=20, U_o=50, first solution:
    # Mean = 10, UMean = 0.4*10 + 0.6*50 = 34, v = 3 + 9 + 8.5 = 20.5
    pen = make_pen([20.0])
    pen.u_o = 50
    gits.v_update(pen, np.array([10]), gits.Params())
    assert pen.mean[0] == 10.0
    assert pen.v[0] == pytest.approx(20.5, abs=1e-12)


def test_v_update_fixed_point():
    pen = make_pen([7.0, 7.0])
    pen.u_o = 7
    pen.mean[:] = 7.0
    for _ in range(5):
        gits.v_update(pen, np.array([7, 7]), gits.Params())
    assert np.allclose(pen.v, 7.0)


# -- mini_diversify ----------------------------------------------------------------


def test_mini_diversify_reflection_and_clamp():
    eng = bootstrapped_engine()
    pen = eng.pen
    pen.u_o = 100
    pen.v[:] = [30.0, 150.0]
    eng.mini_diversify()
    assert list(pen.v) == [70.0, 1.0]
    assert eng.xstar_val == eng.bigm


def test_mini_diversify_is_involution_in_the_interior():
    eng = bootstrapped_engine()
    pen = eng.pen
    pen.u_o = 100
    pen.v[:] = [30.0, 60.0]
    eng.mini_diversify()
    eng.mini_diversify()
    assert list(pen.v) == [30.0, 60.0]


# -- dup_check ----------------------------------------------------------------------


def pattern(m, bits):
    v = np.zeros(m, dtype=bool)
    v[list(bits)] = True
    return v


def test_dup_check_detects_reseeded_pattern():
    eng = bootstrapped_engine()
    # ring slot 0 already holds the bootstrap pattern
    assert eng.dup_check() is True
    assert eng.mem.n_match == 1


def test_dup_check_ring_matches_shadow_model():
    # eviction order vs an explicit newest-first list of the last sLim inserts
    prm = gits.Params(sLim=4, LimMatch=10**6)
    eng = bootstrapped_engine(params=prm)
    mem = eng.mem
    k = eng.fc.size  # patterns are over the charged arcs
    seed_row = mem.ring[0].copy()
    shadow = [seed_row] + [np.zeros(k, dtype=bool)] * (prm.sLim - 1)
    shadow_sum = mem.sum_zero.copy()
    rng = np.random.default_rng(3)
    for step in range(12):
        bits = {int(b) for b in rng.choice(k, size=rng.integers(0, k + 1), replace=False)}
        vec = pattern(k, bits)
        mem.zero_now = vec
        matched = eng.dup_check()
        model_match = any(np.array_equal(row, vec) for row in shadow)
        assert matched == model_match
        if not matched:
            shadow = [vec.copy()] + shadow[: prm.sLim - 1]
            shadow_sum += vec
        ring_rows = [mem.ring[(mem.first + i) % prm.sLim] for i in range(prm.sLim)]
        for got, want in zip(ring_rows, shadow):
            assert np.array_equal(got, want)
        assert np.array_equal(mem.sum_zero, shadow_sum)


def test_dup_check_match_budget_triggers_diversify(monkeypatch):
    prm = gits.Params(LimMatch=3)
    eng = bootstrapped_engine(params=prm)
    calls = []
    monkeypatch.setattr(eng, "diversify", lambda: calls.append(1))
    vec = eng.mem.ring[0].copy()
    for k in range(1, 5):
        eng.mem.zero_now = vec.copy()
        eng.dup_check()
        if k <= 3:
            assert eng.mem.n_match == k and not calls
    assert calls == [1]
    assert eng.mem.n_match == 0


def test_dup_check_recovery_counters():
    prm = gits.Params(LimMatch=10**6)
    eng = bootstrapped_engine(params=prm)
    mem = eng.mem
    mem.zero_now = mem.ring[0].copy()
    eng.dup_check()
    assert mem.n_match == 1
    mem.zero_now = pattern(eng.fc.size, {1})
    eng.dup_check()  # a miss right after matches resets the match count
    assert mem.n_match == 0


# -- diversify -----------------------------------------------------------------------


def test_diversify_uniform_counts_give_proxy_bound(monkeypatch):
    eng = bootstrapped_engine()
    pen, mem = eng.pen, eng.mem
    mem.sum_zero[:] = 6
    pen.u0[:] = [4, 9]
    penalties = record_penalties(monkeypatch)
    eng.diversify()
    # both arcs exceed Max/2, so v = floor(1.0 * U0) and p = F / U0
    F = eng.problem.fixed[eng.fc].astype(float)
    assert np.allclose(penalties[-1], F / np.array([4.0, 9.0]))
    assert mem.pass_num == 1


def test_diversify_zero_count_clamps_to_one(monkeypatch):
    eng = bootstrapped_engine()
    pen, mem = eng.pen, eng.mem
    mem.sum_zero[:] = [8, 0]
    pen.u0[:] = [4, 9]
    penalties = record_penalties(monkeypatch)
    eng.diversify()
    # second arc count 0 <= Max/2: v = max(floor(0*U0), 1) = 1 so p = F
    assert penalties[-1][1] == pytest.approx(float(eng.problem.fixed[eng.fc[1]]))


def test_diversify_resets_ring_and_refresh_cadence():
    prm = gits.Params(ZeroRefresh=2)
    eng = bootstrapped_engine(params=prm)
    mem = eng.mem
    mem.sum_zero[:] = 5
    eng.diversify()
    assert mem.pass_num == 1
    assert mem.first == 0
    assert np.array_equal(mem.ring[0], mem.zero_now)
    assert not mem.ring[1:].any()
    assert mem.sum_zero.any()  # pass 1 is not a multiple of 2
    mem.sum_zero[:] = 5
    eng.diversify()
    assert mem.pass_num == 2
    assert not mem.sum_zero.any()  # refreshed exactly at the cadence


def test_diversify_stops_at_pass_budget():
    prm = gits.Params(MaxPass=2)
    eng = bootstrapped_engine(params=prm)
    eng.mem.pass_num = 2
    with pytest.raises(gits._StopSearch):
        eng.diversify()


# -- phase1_restrict ---------------------------------------------------------------


def test_phase1_keeps_closed_arcs_at_zero_and_never_worsens():
    eng = bootstrapped_engine(
        probio.generate_fctp(
            probio.FctpSpec(sources=4, sinks=4, total_supply=100,
                            fc_range=(50, 200), fc_count=10, seed=31)
        )
    )
    x_prime = eng.state.real_flows()
    closed = eng.fc[eng.mem.zero_now]
    cost = eng.problem.cost
    cx_before = int(np.dot(cost, x_prime))
    x_refined = eng.phase1_restrict()
    assert np.all(x_refined[closed] == 0)
    assert int(np.dot(cost, x_refined)) <= cx_before


def test_phase1_idempotent_at_its_own_optimum():
    eng = bootstrapped_engine(
        probio.generate_fctp(
            probio.FctpSpec(sources=4, sinks=4, total_supply=100,
                            fc_range=(50, 200), fc_count=10, seed=32)
        )
    )
    x1 = eng.phase1_restrict()
    pivots = eng.state.pivot_count
    x2 = eng.phase1_restrict()
    assert np.array_equal(x1, x2)
    assert eng.state.pivot_count == pivots


# -- descend_step / inside loop --------------------------------------------------------


class RecordingEngine(gits.GhostImageSearch):
    """Logs (objective delta, tabu[leaving] - inside_iter) after every pivot."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tenure_log = []

    def descend_step(self, ev):
        pivots = self.state.pivot_count
        super().descend_step(ev)
        if ev.leaving < self.m and self.state.pivot_count > pivots:
            self.tenure_log.append(
                (int(ev.objective_delta), int(self.mem.tabu[ev.leaving]) - self.mem.inside_iter)
            )


def quality_instance(seed, m=4, n=4, fc_count=10):
    return probio.generate_fctp(
        probio.FctpSpec(sources=m, sinks=n, total_supply=25 * m,
                        fc_range=(50, 200), fc_count=fc_count, seed=seed)
    )


def test_sweep_and_pivot_disagreement_raises(monkeypatch):
    sweep = nc.evaluate_all_entering

    def perturbed(state):
        cand, delta, xoj, admissible = sweep(state)
        return cand, delta, xoj + 1, admissible

    monkeypatch.setattr(nc, "evaluate_all_entering", perturbed)
    with pytest.raises(nc.SimplexStalled):
        gits.run(quality_instance(7))


def test_tabu_mark_matches_tenure_rule():
    prm = gits.Params()
    eng = RecordingEngine(quality_instance(1), prm)
    eng.run()
    assert eng.tenure_log, "no pivots recorded"
    for delta, tenure in eng.tenure_log:
        assert tenure == (prm.DescentTenure if delta < 0 else prm.AscentTenure)


def test_phase_tenure_overrides_reach_the_search():
    prm = gits.apply_overrides(gits.Params(), ["DescentTenure=3", "AscentTenure=7"])
    eng = RecordingEngine(quality_instance(1), prm)
    eng.run()
    assert {tenure for _, tenure in eng.tenure_log} == {3, 7}
    assert all(tenure == (3 if delta < 0 else 7) for delta, tenure in eng.tenure_log)


def test_descent_flips_at_most_once_per_inside_loop():
    eng = gits.GhostImageSearch(quality_instance(2), gits.Params(), collect_trace=True)
    eng.run()
    by_loop = {}
    for jiter, inside_iter, _, _, delta, descent, _, _ in eng.move_log:
        by_loop.setdefault(jiter, []).append((inside_iter, descent, delta))
    for moves in by_loop.values():
        flags = [descent for _, descent, _ in moves]
        # once descent turns False it stays False within the loop
        for a, b in zip(flags, flags[1:]):
            assert not (b and not a)


def test_descent_moves_strictly_improve_until_flip():
    eng = gits.GhostImageSearch(quality_instance(3), gits.Params(), collect_trace=True)
    eng.run()
    loops = {}
    for jiter, inside_iter, _, _, delta, descent, _, _ in eng.move_log:
        loops.setdefault(jiter, []).append((descent, delta))
    for moves in loops.values():
        descent_deltas = [delta for descent, delta in moves if descent]
        # every descent-phase move except the flip itself improves strictly
        assert all(d < 0 for d in descent_deltas[:-1])


def test_do_tabu_false_never_enters_ascent():
    eng = gits.GhostImageSearch(quality_instance(4), gits.Params(DoTabu=False),
                                collect_trace=True)
    eng.run()
    assert eng.move_log
    assert all(descent for *_, descent, _, _ in eng.move_log)


def test_tabu_rule_never_violated_at_selection():
    eng = gits.GhostImageSearch(quality_instance(5), gits.Params(), collect_trace=True)
    eng.run()
    for _, inside_iter, _, _, delta, _, tabu_at_sel, aspire_margin in eng.move_log:
        assert tabu_at_sel < inside_iter or delta < aspire_margin


def test_max_iter_one_attempts_at_most_one_pivot_per_loop():
    eng = gits.GhostImageSearch(quality_instance(6), gits.Params(MaxIter=1),
                                collect_trace=True)
    eng.run()
    assert all(inside_iter == 1 for _, inside_iter, *_ in eng.move_log)


def test_inside_loop_survives_no_admissible_move(monkeypatch):
    # a sweep with no candidate: iterations count, nothing pivots
    prm = gits.Params(MaxIter=50, MaxInsideImprove=5)
    eng = bootstrapped_engine(params=prm)
    eng.phase1_restrict()
    pivots_before = eng.state.pivot_count

    def no_candidate(state):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0, dtype=bool)

    monkeypatch.setattr(gits.netcore, "evaluate_all_entering", no_candidate)
    eng.inside_loop()
    assert eng.state.pivot_count == pivots_before
    assert eng.mem.inside_iter == prm.MaxInsideImprove + 1  # exits on the improve gap
    assert eng.mem.improve is False


# -- run --------------------------------------------------------------------------------


def test_run_zero_charges_equals_lp_exactly():
    for seed in range(4):
        p = zero_fc_instance(seed)
        costs = p.cost.tolist()
        lp = nc.solve_lp(p, costs)
        lp_obj = int(np.dot(lp.real_flows(), costs))
        res = gits.run(p)
        assert res.best_value == lp_obj


def test_run_diagonal_instance_finds_ten():
    res = gits.run(two_by_two_diagonal())
    assert res.best_value == 10
    assert nc.fc_objective(two_by_two_diagonal(), res.best_flows) == 10


def test_run_with_no_charged_arc_returns_the_bootstrap_lp_flows():
    # every zero pattern over no charged arc is empty and the plain-cost LP
    # flows are optimal, so the run ends after the bootstrap
    p = probio.generate_fctp(probio.FctpSpec(5, 5, 250, fc_count=0, seed=8))
    assert not p.fixed.any()
    lp = nc.solve_lp(p, p.cost)
    eng = gits.GhostImageSearch(p)
    eng._bootstrap()
    res = gits.run(p)
    assert res.best_value == nc.fc_objective(p, lp.real_flows())
    assert np.array_equal(res.best_flows, lp.real_flows())
    assert res.total_pivots == eng.state.pivot_count
    assert (res.outside_iters, res.inside_iters, res.passes_used) == (0, 0, 0)


def test_run_out_of_luck_one_stops_after_one_outside_iteration():
    # on this instance the first inside loop cannot improve on the ghost
    # image's flows, and a default run goes on to the outer budget
    p = probio.generate_fctp(probio.FctpSpec(3, 3, 60, seed=1))
    assert gits.run(p, gits.Params(OutOfLuck=1)).outside_iters == 1
    assert gits.run(p).outside_iters > 1


def exits_instance():
    return probio.generate_fctp(probio.FctpSpec(6, 6, 600, fc_count=12, seed=9006))


def test_run_time_limit_zero_returns_the_bootstrap_best():
    p = exits_instance()
    res = gits.run(p, gits.Params(TimeLimit=0.0))
    assert (res.outside_iters, res.inside_iters) == (0, 0)
    rep = oracle.check_solution(p, res.best_flows)
    assert rep.feasible and rep.objective == res.best_value == 3012


def test_run_max_outside_iter_zero_runs_one_outside_iteration():
    res = gits.run(exits_instance(), gits.Params(MaxOutsideIter=0))
    assert res.outside_iters == 1


def test_run_deterministic_including_statistics():
    p = quality_instance(7)
    a = gits.run(p)
    b = gits.run(p)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_flows, b.best_flows)
    for field in ("best_pass", "gbest_iter", "passes_used", "outside_iters",
                  "inside_iters", "total_pivots", "gbest_trace"):
        assert getattr(a, field) == getattr(b, field)


def test_run_trace_is_strictly_decreasing_and_consistent():
    p = quality_instance(8)
    res = gits.run(p)
    assert all(x > y for x, y in zip(res.gbest_trace, res.gbest_trace[1:]))
    assert res.gbest_trace[-1] == res.best_value
    assert nc.fc_objective(p, res.best_flows) == res.best_value


def late_best_instance():
    # with LimMatch=1 the search diversifies often, and its best comes late
    return probio.generate_fctp(probio.FctpSpec(6, 6, total_supply=150, fc_range=(200, 800),
                                                seed=23))


def test_run_dates_the_best_by_the_pass_and_outer_iteration_that_found_it():
    res = gits.run(late_best_instance(), gits.Params(LimMatch=1))
    assert (res.best_value, res.best_pass, res.gbest_iter) == (4464, 9, 27)


def test_global_best_is_the_least_of_the_lp_and_every_local_best_taken():
    p = late_best_instance()
    lp = nc.fc_objective(p, nc.solve_lp(p, p.cost.astype(np.float64)).real_flows())
    eng = gits.GhostImageSearch(p, gits.Params(LimMatch=1))
    take = eng._take_local_best
    taken = [lp]
    dates = []

    def spy(x, value):
        take(x, value)
        if value < min(taken):
            dates.append((eng.mem.pass_num, eng.mem.jiter))
        taken.append(value)
        assert eng.xstar_val == value and eng.xg_val == min(taken)
        assert nc.fc_objective(p, eng.xg) == eng.xg_val

    eng._take_local_best = spy
    res = eng.run()
    assert len(taken) > len(res.gbest_trace) > 1
    assert res.gbest_trace[0] == lp
    assert res.best_value == min(taken) == res.gbest_trace[-1]
    assert dates[-1] == (res.best_pass, res.gbest_iter)


def test_run_small_batch_quality_sanity():
    ratios = []
    for seed in range(5):
        p = quality_instance(100 + seed, m=5, n=5, fc_count=10)
        opt = oracle.brute_force_opt(p, max_fc_arcs=12).optimum
        res = gits.run(p)
        assert res.best_value >= opt
        ratios.append(res.best_value / opt)
    assert float(np.mean(ratios)) <= 1.02


def test_run_respects_lower_bound_sandwich():
    p = quality_instance(55, m=4, n=4, fc_count=8)
    costs = p.cost.tolist()
    lp = nc.solve_lp(p, costs)
    lp_obj = int(np.dot(lp.real_flows(), costs))
    opt = oracle.brute_force_opt(p).optimum
    res = gits.run(p)
    assert lp_obj <= opt <= res.best_value


@pytest.mark.parametrize("arcs,best", [
    ([(0, 1, 3 * 10**11, 0, 10)], 15 * 10**11),
    ([(0, 1, 3 * 10**11, 0, 3), (0, 1, 4 * 10**11, 9, 10)], 17 * 10**11 + 9),
])
def test_run_when_every_flow_costs_more_than_bigm(arcs, best):
    # bigm is capped at 1e12, below the cost of any flow here
    p = nc.make_problem([5, -5], arcs)
    res = gits.run(p)
    assert res.best_value == best == oracle.brute_force_opt(p).optimum
    rep = oracle.check_solution(p, res.best_flows)
    assert rep.feasible and rep.objective == best
    assert res.gbest_trace[-1] == best


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_run_best_is_always_feasible_and_exact(seed):
    p = quality_instance(seed, m=3, n=3, fc_count=6)
    res = gits.run(p)
    assert nc.fc_objective(p, res.best_flows) == res.best_value
