"""Exact reference optimizer for desk-scale instances and a solver-independent
solution checker.

The optimizer is depth-first LP-based branch and bound (Land and Doig,
Econometrica 28, 1960) over the charged arcs, each node priced by the
network simplex warm-started from the previous node's basis. A closed arc
is priced at BigM, so every node LP is feasible whenever the instance is;
a guard on BigM makes that sound, and pruning keeps a margin for the float
LP bound (see `brute_force_opt`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .netcore import (
    PRICE_TOL,
    FixnetError,
    NetworkProblem,
    check_flows,
    fc_objective,
    reoptimize,
    solve_lp,
    validate,
)

# A node's mark on a charged arc, and the row of its working cost in the
# table `brute_force_opt` picks from.
OPEN, FREE, CLOSED = 0, 1, 2


class TooLarge(FixnetError):
    pass


@dataclass
class OracleResult:
    """An optimum, a flow vector attaining it, and in `subsets_explored` the
    number of LP nodes the branch and bound solved, the root included; the
    benchmark's tracer sums that field as `oracle.subsets_explored`."""

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
    """Provably optimal solution by depth-first LP-based branch and bound.

    A node marks each charged arc open, closed or free. Its LP prices open
    arcs at c_j, closed arcs at BigM and free arcs at c_j + F_j/max(U_j, 1),
    whose cost on [0, U_j] is at most c_j x_j + F_j [x_j > 0] and meets it at
    0 and U_j. The node's bound is the LP value plus the open arcs' charges.
    Every node's flows are charged by `fc_objective` as a candidate
    incumbent, which changes only on a strict improvement, so the witness
    is the first flow vector found at the optimum. A node is done when its
    LP routes flow on a closed arc (it is then empty, see the guard), when
    its bound leaves no integer below the incumbent's value (see the
    margin), or when it has no free arc of positive capacity: its LP costs
    are then integers, so its LP is exact. Otherwise it branches on the free
    arc with 0 < x_j < U_j that maximizes F_j (1 - x_j/U_j), or, when none is
    fractional, on the free arc of largest such score, open child first.
    The root is solved cold and every later node by `reoptimize` from the
    previous node's basis; `subsets_explored` counts these LPs.

    Margin: objectives are integers, so a node is pruned when its float
    bound exceeds best - 1 by, with m arcs, n nodes and eps = 2^-52,
        margin = PRICE_TOL sum U_j + 4 (m + n) eps (R sum U_j + sum F_j).
    The first term covers a basis that is optimal only to PRICE_TOL, which
    can overstate the LP value by that much; the second covers the rounding
    of the float working costs, potentials and dot product, each a sum of
    at most m + n terms bounded by R sum U_j + sum F_j, with R as below.
    Under a margin below 1/2 a node whose free arcs all sit at 0 or U_j is
    always pruned, its bound being at least its own flows' value; a larger
    margin lets such a node branch, on an arc at a bound.

    Guard: R is the exact sum, over the arcs with capacity, of the largest
    working cost an open or free arc can take in absolute value,
    max(|c_j|, |c_j + F_j/U_j|). While BigM exceeds R + margin, a cycle that
    carries flow over a closed arc costs more per unit than the LP's
    tolerance allows, so an LP that routes flow on a closed arc proves that
    no flow leaves its node's closed arcs empty. TooLarge is raised
    otherwise, and when more than `max_fc_arcs` arcs carry a charge.
    """
    validate(problem)
    fc = np.flatnonzero(problem.fixed > 0)
    if fc.size > max_fc_arcs:
        raise TooLarge(f"{fc.size} charged arcs exceed the limit {max_fc_arcs}")
    cost, fixed, cap = problem.cost, problem.fixed, problem.cap
    reach = sum(max(abs(c), abs(c + Fraction(f, u)))
                for c, f, u in zip(cost.tolist(), fixed.tolist(), cap.tolist()) if u > 0)
    cap_sum = cap.sum(dtype=np.float64)
    margin = PRICE_TOL * cap_sum + 4 * (problem.arc_count + problem.node_count) \
        * np.finfo(np.float64).eps * (float(reach) * cap_sum + fixed.sum(dtype=np.float64))
    f_fc, u_fc = fixed[fc], cap[fc]
    costs = cost.astype(np.float64)
    costs[fc] += f_fc / np.maximum(u_fc, 1)
    state = solve_lp(problem, costs)
    if state.bigm <= reach + Fraction(margin):
        raise TooLarge(f"unit costs sum past the capped big-M {state.bigm}, charges spread "
                       "over capacities included, so closing arcs by cost is unsound")
    levels = np.array([cost[fc], costs[fc], np.full(fc.size, float(state.bigm))])
    stack, nodes, best_val, best_flows = [np.full(fc.size, FREE)], 0, np.inf, None
    while stack:
        status = stack.pop()
        if nodes:
            costs[fc] = np.choose(status, levels)
            reoptimize(state, costs)
        nodes += 1
        flows = state.real_flows()
        val = fc_objective(problem, flows)
        if val < best_val:
            best_val, best_flows = val, flows
        x, free = flows[fc], (status == FREE) & (u_fc > 0)
        bound = float(costs @ flows) + int(f_fc[status == OPEN].sum())
        if x[status == CLOSED].any() or not free.any() or bound - margin > best_val - 1:
            continue
        frac = free & (x > 0) & (x < u_fc)
        score = np.where(frac if frac.any() else free, f_fc * (1 - x / np.maximum(u_fc, 1)), -1)
        branch = np.arange(fc.size) == score.argmax()
        stack += [np.where(branch, mark, status) for mark in (CLOSED, OPEN)]
    return OracleResult(optimum=best_val, witness_flows=best_flows, subsets_explored=nodes)
