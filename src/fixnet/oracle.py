"""Exact reference optimizer for desk-scale instances and a solver-independent
solution checker.

The optimizer enumerates every open/closed pattern over the charged arcs and
prices each pattern with an LP. Gray-code order means consecutive patterns
differ in one arc, so every LP after the first is a one-toggle warm start.
The arcs the plain-cost LP is least likely to use, those of highest reduced
cost there, take the bits that toggle most often, so most toggles change the
cost of an arc the current LP leaves empty: the tree labels are kept and few
pivots follow. A pattern whose re-solve does not pivot keeps the previous
pattern's flows, and its objective is not recomputed.
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
    of rank i toggles the i-th; every pattern is still priced. Raising the
    cost of a nonbasic arc at 0, or lowering it at capacity, keeps the basis
    optimal, so that toggle is not re-solved; the next re-solve installs the
    whole vector. The objective is recomputed only when a re-solve pivots:
    without a pivot the flows, and so the value, are the previous pattern's.
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

    flows = state.real_flows()
    best_val = fc_objective(problem, flows)
    best_flows = flows

    costs = base.copy()
    for step in range(1, 1 << len(fc)):
        bit = (step & -step).bit_length() - 1
        arc = fc[bit]
        raised = costs[arc] != bigm
        costs[arc] = bigm if raised else base[arc]
        if not state.basic[arc] and (state.flow[arc] == 0) == raised:
            continue
        pivots = state.pivot_count
        reoptimize(state, costs)
        if state.pivot_count == pivots:
            continue
        flows = state.real_flows()
        val = fc_objective(problem, flows)
        if val < best_val:
            best_val = val
            best_flows = flows
    return OracleResult(optimum=best_val, witness_flows=best_flows,
                        subsets_explored=1 << len(fc))
