"""Self-organizing ghost-image tabu search over a warm-started network simplex.

The search keeps an idealized LP relaxation whose penalties p_j = F_j/v_j on
the charged arcs spread each fixed charge over a self-adjusting typical flow
v_j; an uncharged arc keeps its unit cost. Outer passes alternate penalty
re-solves with a restriction refinement and an inside loop of
fixed-charge-guided simplex pivots under simple tabu control; duplicate zero
patterns trigger frequency-based diversification.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, fields, replace
from sys import float_info
from typing import Optional

import numpy as np

from . import netcore
from .netcore import fc_objective, reoptimize, solve_lp, validate


class _StopSearch(Exception):
    """Raised when the diversification budget is exhausted."""


@dataclass(frozen=True)
class Params:
    """Tuning knobs. Field names double as config / --param keys."""

    MaxIter: int = 50
    MaxPass: int = 10
    MaxInsideImprove: int = 40
    BadLuck: int = 5
    OutOfLuck: int = 20
    Alpha1: float = 0.3
    Alpha2: float = 0.45
    Alpha3: float = 0.25
    Beta: float = 0.4
    MaxSol: int = 1000
    DescentTenure: int = 10
    AscentTenure: int = 10
    LimMatch: int = 10
    sLim: int = 10
    ZeroRefresh: int = 30
    DoTabu: bool = True
    epsilon: float = 1e-6
    MaxOutsideIter: Optional[int] = None
    TimeLimit: Optional[float] = None

    def __post_init__(self):
        for name, (kind, nullable) in _FIELD_KINDS.items():
            value = getattr(self, name)
            if value is None and nullable:
                continue
            # a bool is only a bool; an int field takes numpy integers too
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, _ABSTRACT[kind]):
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
            least = 0 if name == "MaxOutsideIter" else 1
            if kind is int and value < least:
                raise ValueError(f"{name} must be an integer of at least {least}")
            if kind is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if abs(self.Alpha1 + self.Alpha2 + self.Alpha3 - 1.0) > 1e-9:
            raise ValueError("Alpha1 + Alpha2 + Alpha3 must equal 1")
        if not 0.0 <= self.Beta <= 1.0:
            raise ValueError("Beta must lie in [0, 1]")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.TimeLimit is not None and not self.TimeLimit >= 0.0:
            raise ValueError("TimeLimit must be a non-negative number of seconds")


# The Params schema, read once from the annotations: per field, its kind and
# whether None is allowed. Every check and every KEY=VALUE parse reads it.
_ANNOTATIONS = {"int": (int, False), "float": (float, False), "bool": (bool, False),
                "Optional[int]": (int, True), "Optional[float]": (float, True)}
_FIELD_KINDS = {f.name: _ANNOTATIONS[f.type] for f in fields(Params)}
_ABSTRACT = {int: numbers.Integral, float: numbers.Real, bool: bool}
# Compared exactly, an int too large for a float lies outside, and NaN fails.
_FLOAT_MAX = float_info.max
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _cast_field(name: str, raw: str):
    kind, nullable = _FIELD_KINDS[name]
    raw = raw.strip()
    if nullable and raw.lower() in ("", "none"):
        return None
    if kind is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name}: expected {noun}, got {raw!r}") from None


def params_from_config(text: str, base: Optional[Params] = None) -> Params:
    """Parse key=value lines (comments start with '#') on top of base defaults."""
    params = base if base is not None else Params()
    pairs = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected KEY=VALUE, got {raw!r}")
        key, val = line.split("=", 1)
        pairs.append(f"{key.strip()}={val.strip()}")
    return apply_overrides(params, pairs)


def apply_overrides(params: Params, pairs) -> Params:
    """Apply KEY=VALUE strings; keys are Params field names."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        key, val = pair.split("=", 1)
        key = key.strip()
        if key not in _FIELD_KINDS:
            raise ValueError(f"unknown parameter {key!r}")
        updates[key] = _cast_field(key, val)
    return replace(params, **updates)


@dataclass
class Penalties:
    """Ghost-image parameters, one entry per charged arc in index order:
    typical flows v, history means and max-flow proxies u0; u_o is the
    scalar flow proxy and num_sol the count of blended solutions."""

    v: np.ndarray
    mean: np.ndarray
    u_o: int
    u0: np.ndarray
    num_sol: int = 0


@dataclass
class SearchMemory:
    """Tabu marks per arc; the current zero pattern, the (sLim, k) signature
    ring and the zero counts per charged arc; every loop counter and flag."""

    tabu: np.ndarray
    ring: np.ndarray
    sum_zero: np.ndarray
    zero_now: np.ndarray
    first: int = 0
    jiter: int = 0
    inside_iter: int = 0
    pass_num: int = 0
    no_luck: int = 0
    n_match: int = 0
    gbest_iter: int = 0
    best_pass: int = 0
    last_inside_improve: int = 0
    aspire: int = 0
    descent: bool = True
    improve: bool = False
    inside_ok: bool = True

    @classmethod
    def fresh(cls, arc_count: int, charged_count: int, params: Params) -> "SearchMemory":
        return cls(
            tabu=np.zeros(arc_count, dtype=np.int64),
            ring=np.zeros((params.sLim, charged_count), dtype=bool),
            sum_zero=np.zeros(charged_count, dtype=np.int64),
            zero_now=np.zeros(charged_count, dtype=bool),
        )


@dataclass
class RunResult:
    """Best solution found plus run statistics."""

    best_flows: np.ndarray
    best_value: int
    best_pass: int
    gbest_iter: int
    passes_used: int
    outside_iters: int
    inside_iters: int
    total_pivots: int
    elapsed: float
    gbest_trace: list = field(default_factory=list)


def build_penalties(v: np.ndarray, fixed: np.ndarray, bigm: float, eps: float) -> np.ndarray:
    """Penalties p_j = F_j / v_j over the charged arcs, given their typical
    flows v and charges F > 0: v_j < eps gives BigM, v_j > BigM gives 0.
    BigM is also the price ceiling: a denominator small enough to push
    F_j / v_j past it marks the arc as closed, exactly like v_j < eps."""
    with np.errstate(divide="ignore"):
        p = np.where(v > bigm, 0.0, np.minimum(fixed / v, float(bigm)))
    p[v < eps] = float(bigm)
    return p


def v_update(pen: Penalties, xstar: np.ndarray, params: Params) -> Penalties:
    """Blend the locally best flows on the charged arcs, xstar, into the
    typical-flow estimates v.

    Mean_j tracks a running mean over at most MaxSol recorded solutions; v_j
    becomes the Alpha-weighted mix of the incumbent flow, the previous v_j and
    the Beta-damped history/proxy mean.
    """
    pen.num_sol += 1
    y = min(pen.num_sol, params.MaxSol)
    x = 1.0 / y
    xs = xstar.astype(np.float64)
    pen.mean = x * xs + (1.0 - x) * pen.mean
    umean = params.Beta * pen.mean + (1.0 - params.Beta) * pen.u_o
    pen.v = params.Alpha1 * xs + params.Alpha2 * pen.v + params.Alpha3 * umean
    return pen


class GhostImageSearch:
    """One run of the search on one instance; owns its simplex state and memory."""

    def __init__(self, problem: netcore.NetworkProblem, params: Optional[Params] = None,
                 collect_trace: bool = False):
        self.problem = validate(problem)
        self.params = params if params is not None else Params()
        self.m = problem.arc_count
        self.c_float = problem.cost.astype(np.float64)
        # the charged arcs: every ghost-image array is indexed like this
        self.fc = np.flatnonzero(problem.fixed > 0)
        self.state: Optional[netcore.SimplexState] = None
        self.pen: Optional[Penalties] = None
        self.mem: Optional[SearchMemory] = None
        self.collect_trace = collect_trace
        self.move_log: list = []
        self.total_inside = 0
        self.xdd_val = 0

    # -- incumbents -----------------------------------------------------------

    def _take_local_best(self, x: np.ndarray, value: int) -> None:
        """Make flows x of fixed-charge value `value` the local best and blend
        them into v. The only writer of both incumbents after the bootstrap,
        but for mini_diversify's threshold: a strict improvement on the global
        best copies x, extends the trace and dates it (gbest_iter, best_pass)."""
        self.xstar = x
        self.xstar_val = value
        v_update(self.pen, x[self.fc], self.params)
        if value < self.xg_val:
            self.xg = x.copy()
            self.xg_val = value
            self.trace.append(value)
            self.mem.gbest_iter = self.mem.jiter
            self.mem.best_pass = self.mem.pass_num

    def _keep_if_better(self, inside_iter: int) -> bool:
        """Take the current flows as the local best when they improve on it,
        dating the improvement at inside_iter; returns whether they did."""
        if self.xdd_val >= self.xstar_val:
            return False
        self.mem.improve = True
        self.mem.last_inside_improve = inside_iter
        self._take_local_best(self.state.real_flows(), self.xdd_val)
        return True

    # -- the ghost image: LP(p) under the current penalties ------------------

    def _working_costs(self, charged: np.ndarray) -> np.ndarray:
        """The unit costs, plus `charged` (one entry per charged arc)."""
        costs = self.c_float.copy()
        costs[self.fc] += charged
        return costs

    def ghost_resolve(self, force: bool = False) -> None:
        """Re-solve LP(p) from the current basis under penalties built from v.

        The flows raise the proxies u0, become the local best when they
        improve on it (always when forced) and give the current zero pattern.
        """
        fc = self.fc
        p = build_penalties(self.pen.v, self.problem.fixed[fc], self.bigm, self.params.epsilon)
        reoptimize(self.state, self._working_costs(p))
        x = self.state.real_flows()
        xo = fc_objective(self.problem, x)
        np.maximum(self.pen.u0, x[fc], out=self.pen.u0)
        if force or xo < self.xstar_val:
            self._take_local_best(x, xo)
        self.mem.zero_now = x[fc] == 0

    # -- bootstrap: initial LP, first penalties, first test solution ---------

    def _bootstrap(self) -> None:
        prm = self.params
        self.mem = mem = SearchMemory.fresh(self.m, self.fc.size, prm)
        self.state = solve_lp(self.problem, self.c_float)
        self.bigm = self.state.bigm
        self._max_outside = prm.MaxOutsideIter if prm.MaxOutsideIter is not None else prm.MaxIter

        x = self.state.real_flows()
        self.xstar = x
        self.xstar_val = self.xg_val = fc_objective(self.problem, x)
        self.xg = x.copy()
        self.trace = [self.xg_val]

        cap = self.problem.cap[self.fc].astype(np.float64)
        u0 = x[self.fc]
        self.pen = Penalties(v=cap, mean=cap.copy(), u_o=int(u0.max(initial=0)), u0=u0,
                             num_sol=1)
        self.ghost_resolve()
        mem.ring[0] = mem.zero_now
        mem.sum_zero = mem.zero_now.astype(np.int64)

    # -- phase I: restriction refinement -------------------------------------

    def phase1_restrict(self) -> np.ndarray:
        """Pin the currently-zero charged arcs at zero cost-wise and re-optimize."""
        mem = self.mem
        reoptimize(self.state, self._working_costs(np.where(mem.zero_now, float(self.bigm), 0.0)))
        x = self.state.real_flows()
        self.xdd_val = fc_objective(self.problem, x)
        if mem.jiter <= self.params.MaxIter // 4:
            np.maximum(self.pen.u0, x[self.fc], out=self.pen.u0)
        return x

    # -- phase II: inside loop -----------------------------------------------

    def inside_loop(self) -> None:
        prm, mem, state = self.params, self.mem, self.state
        mem.inside_iter = 0
        mem.last_inside_improve = 0
        mem.descent = True
        mem.improve = False
        mem.tabu[:] = 0
        mem.aspire = min(self.xdd_val, self.xstar_val)
        mem.inside_ok = True
        while mem.inside_iter < prm.MaxIter and mem.inside_ok:
            mem.inside_iter += 1
            self.total_inside += 1
            cand, _, xoj, _ = netcore.evaluate_all_entering(state)
            allowed = (mem.tabu[cand] < mem.inside_iter) | (xoj < mem.aspire - self.xdd_val)
            sel = np.nonzero(allowed)[0]
            if sel.size:
                pos = sel[int(np.argmin(xoj[sel]))]
                jstar = int(cand[pos])
                ev = netcore.evaluate_fc_entering(state, jstar)
                if ev.objective_delta != xoj[pos]:
                    raise netcore.SimplexStalled(
                        f"arc {jstar}: sweep delta {xoj[pos]} != pivot delta {ev.objective_delta}")
                if self.collect_trace:
                    self.move_log.append(
                        (
                            mem.jiter,
                            mem.inside_iter,
                            jstar,
                            ev.leaving,
                            int(ev.objective_delta),
                            mem.descent,
                            int(mem.tabu[jstar]),
                            int(mem.aspire - self.xdd_val),
                        )
                    )
                self.descend_step(ev)
            # no allowed move: count the iteration, pivot nothing
            if mem.inside_iter - mem.last_inside_improve > prm.MaxInsideImprove:
                mem.inside_ok = False

    def pivot_jstar(self, ev: netcore.PivotEval) -> None:
        """Apply the chosen pivot and raise the max-flow proxies u0."""
        netcore.pivot(self.state, ev)
        self.xdd_val += ev.objective_delta
        np.maximum(self.pen.u0, self.state.flow[self.fc], out=self.pen.u0)

    def descend_step(self, ev: netcore.PivotEval) -> None:
        """One move: descent while deltas improve, then a single tabu ascent phase.

        The first non-improving delta flips Descent off for the rest of the
        inside loop. The leaving arc stays tabu for the tenure of the move's
        sign: DescentTenure after an improving move, else AscentTenure.
        """
        prm, mem = self.params, self.mem
        if mem.descent:
            if ev.objective_delta < 0:
                self.pivot_jstar(ev)
                mem.aspire = min(self.xstar_val, self.xdd_val)
            else:
                mem.descent = False
                self._keep_if_better(mem.inside_iter - 1)
                if not prm.DoTabu:
                    mem.inside_ok = False
                    return
                self.pivot_jstar(ev)
        else:
            self.pivot_jstar(ev)
            if ev.objective_delta < 0 and self._keep_if_better(mem.inside_iter):
                mem.aspire = self.xstar_val
        if ev.leaving < self.m:  # artificial root arcs are never sweep candidates
            tenure = prm.DescentTenure if ev.objective_delta < 0 else prm.AscentTenure
            mem.tabu[ev.leaving] = mem.inside_iter + tenure

    # -- penalty self-organization -------------------------------------------

    def mini_diversify(self) -> None:
        """Reflect v through the scalar flow proxy and restart the local best."""
        pen = self.pen
        pen.v = np.maximum(pen.u_o - pen.v, 1.0)
        # the next flows below this become the local best: any flow unless
        # BIGM_CAP binds, else only flows that beat the global best
        self.xstar_val = max(self.bigm, self.xg_val)

    def dup_check(self) -> bool:
        """Scan the signature ring for the current zero pattern.

        A hit past the match budget triggers diversification; a miss records
        the pattern, accumulates frequency counts and evicts the oldest slot.
        Returns whether a duplicate was found.
        """
        prm, mem = self.params, self.mem
        if np.any(np.all(mem.ring == mem.zero_now, axis=1)):
            mem.n_match += 1
            if mem.n_match > prm.LimMatch:
                self.diversify()
                mem.n_match = 0
            return True
        mem.n_match = 0
        mem.sum_zero += mem.zero_now
        last = (mem.first - 1) % prm.sLim
        mem.ring[last] = mem.zero_now
        mem.first = last
        return False

    def diversify(self) -> None:
        """Frequency-based restart of v from the zero-pattern counts."""
        prm, mem, pen = self.params, self.mem, self.pen
        if mem.pass_num == prm.MaxPass:
            raise _StopSearch
        mem.pass_num += 1
        counts = mem.sum_zero
        mx = int(counts.max(initial=0))
        f = counts / mx if mx > 0 else np.zeros(counts.size, dtype=np.float64)
        v = np.floor(f * pen.u0)
        pen.v = np.where(2 * counts > mx, v, np.maximum(v, 1.0))
        self.ghost_resolve(force=True)
        mem.first = 0
        mem.ring[:] = False
        mem.ring[0] = mem.zero_now
        if mem.pass_num % prm.ZeroRefresh == 0:
            mem.sum_zero[:] = 0

    # -- main loop -------------------------------------------------------------

    def run(self) -> RunResult:
        t0 = time.perf_counter()
        prm = self.params
        self._bootstrap()
        mem = self.mem
        try:
            # With no charged arc the plain-cost LP flows the bootstrap took
            # are optimal, so there is nothing to search.
            while self.fc.size and mem.jiter <= self._max_outside:
                if prm.TimeLimit is not None and time.perf_counter() - t0 > prm.TimeLimit:
                    break
                self.phase1_restrict()
                self.inside_loop()
                mem.jiter += 1
                if mem.improve:
                    mem.no_luck = 0
                else:
                    mem.no_luck += 1
                    if mem.no_luck == prm.OutOfLuck:
                        break
                    if mem.no_luck == prm.BadLuck:
                        self.mini_diversify()
                self.ghost_resolve()
                self.dup_check()
        except _StopSearch:
            pass
        elapsed = time.perf_counter() - t0
        return RunResult(
            best_flows=self.xg.copy(),
            best_value=self.xg_val,
            best_pass=mem.best_pass,
            gbest_iter=mem.gbest_iter,
            passes_used=mem.pass_num,
            outside_iters=mem.jiter,
            inside_iters=self.total_inside,
            total_pivots=self.state.pivot_count,
            elapsed=elapsed,
            gbest_trace=list(self.trace),
        )


def run(problem: netcore.NetworkProblem, params: Optional[Params] = None) -> RunResult:
    """Solve a fixed-charge instance heuristically; deterministic per input."""
    return GhostImageSearch(problem, params).run()
