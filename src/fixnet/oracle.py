"""Exact reference optimizer for desk-scale instances and a solver-independent
solution checker.

The optimizer is depth-first LP-based branch and bound (Land and Doig,
Econometrica 28, 1960) over the charged arcs, each node priced by the
network simplex warm-started from the previous node's basis. A closed arc
is priced at BigM, so every node LP is feasible whenever the instance is;
a guard on BigM makes that sound (see `brute_force_opt`). Node LPs, bounds
and pruning are exact: every working cost is on the simplex's integer grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .netcore import (
    FixnetError,
    NetworkProblem,
    check_flows,
    default_bigm,
    fc_objective,
    reoptimize,
    solve_lp,
    validate,
    working_scale,
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
    arcs at c_j, closed arcs at BigM and free arcs at c_j + floor(S F_j /
    U_j) / S (c_j at U_j = 0), with S the simplex's working-cost scale; that
    cost is at most c_j x_j + F_j [x_j > 0] on [0, U_j], so the node LP is a
    relaxation, and it is on the grid 1/S, so the simplex solves the node LP
    exactly. The node's bound is the LP value plus the open arcs' charges,
    an exact integer in units of 1/S. Every node's flows are charged by
    `fc_objective` as a candidate incumbent, which changes only on a strict
    improvement, so the witness is the first flow vector found at the
    optimum. A node is done when its LP routes flow on a closed arc (it is
    then empty, see the guard), when its bound exceeds the incumbent's value
    minus 1, or when it has no free arc of positive capacity: its LP is then
    exact. Otherwise it branches on the free arc with 0 < x_j < U_j that
    maximizes F_j (1 - x_j/U_j), or, when none is fractional, on the free
    arc of largest such score (reachable only when sum U_j >= S over the
    charged arcs), open child first. The root is solved cold and every later
    node by `reoptimize` from the previous node's basis; `subsets_explored`
    counts these LPs.

    Guard: while S BigM exceeds R = sum over the arcs with capacity of
    max(|S c_j|, |S c_j + floor(S F_j / U_j)|), a cycle that carries flow
    over a closed arc costs more than any cycle without one, so an LP that
    routes flow on a closed arc proves that no flow leaves its node's closed
    arcs empty. Otherwise TooLarge is raised once a solve of the unit costs
    has found the instance feasible; it is raised too when more than
    `max_fc_arcs` arcs carry a charge.
    """
    validate(problem)
    fc = np.flatnonzero(problem.fixed > 0)
    if fc.size > max_fc_arcs:
        raise TooLarge(f"{fc.size} charged arcs exceed the limit {max_fc_arcs}")
    bigm = default_bigm(problem)
    scale, _ = working_scale(problem, bigm)
    # working costs in units of 1/S, open and free
    opened, cap = (scale * problem.cost).tolist(), problem.cap.tolist()
    spread = [w + scale * f // u if u else w
              for w, f, u in zip(opened, problem.fixed.tolist(), cap)]
    reach = sum(max(abs(w), abs(v)) for w, v, u in zip(opened, spread, cap) if u > 0)
    if scale * bigm <= reach:
        solve_lp(problem, problem.cost)  # an infeasible instance is reported as such
        raise TooLarge(f"unit costs sum past the capped big-M {bigm}, charges spread "
                       "over capacities included, so closing arcs by cost is unsound")
    f_fc, u_fc = problem.fixed[fc], problem.cap[fc]
    work = np.array(spread, dtype=np.int64)
    levels = np.array([scale * problem.cost[fc], work[fc], np.full(fc.size, scale * bigm)])
    state = solve_lp(problem, work / scale)
    stack, nodes, best_val, best_flows = [np.full(fc.size, FREE)], 0, np.inf, None
    while stack:
        status = stack.pop()
        if nodes:
            work[fc] = np.choose(status, levels)
            reoptimize(state, work / scale)
        nodes += 1
        flows = state.real_flows()
        val = fc_objective(problem, flows)
        if val < best_val:
            best_val, best_flows = val, flows
        x, free = flows[fc], (status == FREE) & (u_fc > 0)
        used = np.flatnonzero(flows)  # the bound is an exact Python int in units of 1/S
        bound = work[used].astype(object) @ flows[used] + scale * int(f_fc[status == OPEN].sum())
        if x[status == CLOSED].any() or not free.any() or bound > scale * (best_val - 1):
            continue
        frac = free & (x > 0) & (x < u_fc)
        score = np.where(frac if frac.any() else free, f_fc * (1 - x / np.maximum(u_fc, 1)), -1)
        branch = np.arange(fc.size) == score.argmax()
        stack += [np.where(branch, mark, status) for mark in (CLOSED, OPEN)]
    return OracleResult(optimum=best_val, witness_flows=best_flows, subsets_explored=nodes)
