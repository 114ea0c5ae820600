"""Exact reference optimizer for desk-scale instances and a solver-independent
solution checker.

The optimizer enumerates every open/closed pattern over the charged arcs and
prices each pattern with an LP. Gray-code order means consecutive patterns
differ in one arc, so every LP after the first is a one-toggle warm start.
The arcs the plain-cost LP is least likely to use, those of highest reduced
cost there, take the bits that toggle most often, so most toggles change the
cost of an arc the current LP leaves empty: the tree labels are kept and few
pivots follow. A toggle is re-solved only when it moves a tree arc or when
exact pricing would let the toggled arc enter; otherwise the basis is still
optimal and the pattern keeps the previous pattern's flows. Each distinct
flow vector is checked and charged once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .netcore import (
    FixnetError,
    NetworkProblem,
    check_flows,
    fc_objective,
    reoptimize,
    solve_lp,
    validate,
)


class TooLarge(FixnetError):
    pass


@dataclass
class OracleResult:
    optimum: int
    witness_flows: np.ndarray
    subsets_explored: int


@dataclass
class SolutionReport:
    feasible: bool
    violations: List[str] = field(default_factory=list)
    objective: Optional[int] = None


def check_solution(problem: NetworkProblem, flows) -> SolutionReport:
    """Verify conservation, bounds and integrality; recompute the objective
    from raw flows. Never raises; violations are reported by name."""
    violations, value = check_flows(problem, flows)
    return SolutionReport(not violations, violations, value)


def brute_force_opt(problem: NetworkProblem, max_fc_arcs: int = 20) -> OracleResult:
    """Provably optimal solution via exhaustive open/closed pattern pricing.

    Closing an arc is realized by raising its cost to BigM, which keeps every
    pattern LP warm-startable. A pattern LP may still route flow on a closed
    arc; it then prices a feasible solution, valid and never better than
    optimal. BigM must exceed the summed |c_j| of the arcs with capacity:
    then every cycle that opens a closed arc costs more than it saves, so the
    pattern of an optimal flow's used arcs finds a flow at least as good, and
    TooLarge is raised otherwise. Charges follow actual flow, so an open arc
    left at zero pays nothing, and the minimum over all patterns is the exact
    optimum.

    The charged arcs are ordered once, by descending reduced cost at the
    plain-cost LP and then by descending unit cost, and the Gray-code bit
    of rank i toggles the i-th; every pattern is still priced. A toggle of
    a nonbasic arc that `SimplexState.prices` does not pick at its new cost
    is not re-solved: no tree arc's cost changed, so the potentials and
    every other reduced cost are those of the last re-solve, which left no
    violation, and a re-solve would make no pivot. The next re-solve
    installs the whole vector. A toggle of a tree arc is always re-solved.
    Without a pivot the flows, and so the value, are the previous pattern's.
    The objective of each distinct flow vector is computed once, through
    the full check, and kept in a dict for this call only; the incumbent
    changes only on a strict improvement, so the witness is the first flow
    vector found at the optimum.
    """
    validate(problem)
    fc = np.flatnonzero(problem.fixed > 0).tolist()
    if len(fc) > max_fc_arcs:
        raise TooLarge(f"{len(fc)} charged arcs exceed the limit {max_fc_arcs}")
    base = problem.cost.astype(np.float64)
    state = solve_lp(problem, base)
    if state.bigm <= sum(map(abs, problem.cost[problem.cap > 0].tolist())):
        raise TooLarge(f"unit costs sum past the capped big-M {state.bigm}, "
                       "so closing arcs by cost is unsound")
    bigm = float(state.bigm)
    rc, cost = state.reduced_costs().tolist(), problem.cost.tolist()
    fc.sort(key=lambda j: (-rc[j], -cost[j]))  # stable: full ties keep index order

    best_flows = state.real_flows()
    best_val = fc_objective(problem, best_flows)
    seen = {best_flows.tobytes(): best_val}

    costs = base.copy()
    for step in range(1, 1 << len(fc)):
        bit = (step & -step).bit_length() - 1
        arc = fc[bit]
        costs[arc] = bigm if costs[arc] != bigm else base[arc]
        if not state.basic[arc] and not state.prices(arc, costs[arc]):
            continue
        pivots = state.pivot_count
        reoptimize(state, costs)
        if state.pivot_count == pivots:
            continue
        flows = state.real_flows()
        key = flows.tobytes()
        val = seen.get(key)
        if val is None:
            val = seen[key] = fc_objective(problem, flows)
            if val < best_val:
                best_val = val
                best_flows = flows
    return OracleResult(optimum=best_val, witness_flows=best_flows,
                        subsets_explored=1 << len(fc))
