"""Fixed-charge network model and a warm-startable primal network simplex.

An instance is a set of read-only int64 arrays: supplies per node, and tail,
head, unit cost, fixed charge and capacity per arc. Flows are 64-bit integers
too; working costs are int64 on a grid of 1/S so that penalized costs can be
non-integral. The basis is a spanning tree over the instance nodes and a
virtual root, joined to every node by an artificial arc. `solve_lp` proves
feasibility once and then caps the artificial arcs at zero, so no later cost
vector can route flow through the root and every pivot on a cycle through
it is degenerate. The basis stores only which arcs are in the tree: a
nonbasic arc sits at 0 or at its capacity, and its flow says which, so it
is pushed up from 0 and down otherwise. An arc of capacity 0 can carry
nothing and is never priced. The last-blocking leaving rule keeps a
strongly feasible tree (positive flow can reach the root from every node)
strongly feasible, which rules out cycling; a pivot whose cycle passes
through the root leaves by a capped root arc and can break that property,
so the pivot limit of `optimize` is the backstop. Instance costs are
integers, so all pivot-delta arithmetic is exact, and potentials and reduced
costs are integers in units of 1/S (`working_scale`), so pricing needs no
tolerance.

Pricing reads a sign kept per arc, which each pivot updates on its entering
and leaving arc, so it rebuilds no mask over the arcs. The parent, pred-arc
and depth labels are Python lists, because the relabel, the ratio test and
the sweep's walk read them one element at a time; the sweep's lifting route
builds int64 arrays of them once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

BIGM_CAP = 10**12
BIGM_FLOOR = 1000
# A sweep answers its candidates by the linear walk when their count times
# the tree depth is at most this, else by binary lifting. A walk climbs at
# most twice the depth per candidate; at this bound it was never slower than
# lifting on trees of depth 11 to 127.
WALK_LIMIT = 1024
# A sweep walks every candidate, without narrowing them to those a pivot
# touched, when their count times the tree depth is at most this. Every
# small_exact sweep is (at most 225); on 8x12 and 10x10 FCTP searches, whose
# sweeps are 567 to 1155, this bound and twice it ran equally, while at
# WALK_LIMIT their sweeps took 1.35 to 2.1 times as long.
FULL_WALK_LIMIT = WALK_LIMIT // 4

_INT64_MAX = np.iinfo(np.int64).max


class FixnetError(Exception):
    """Base class for solver errors."""


class UnbalancedSupply(FixnetError):
    pass


class BadArcEndpoint(FixnetError):
    pass


class NegativeCapacityOrCharge(FixnetError):
    pass


class Infeasible(FixnetError):
    pass


class InfeasibleFlows(FixnetError):
    pass


class StalePivotEval(FixnetError):
    pass


class SimplexStalled(FixnetError):
    """Internal invariant breach; never expected on valid input."""


class OutOfExactRange(FixnetError, ValueError):
    """Costs, charges and capacities whose objective bound reaches 2^62."""


class ArcData(NamedTuple):
    """Directed arc: unit cost, fixed charge paid when flow is positive, capacity."""

    tail: int
    head: int
    cost: int
    fixed: int
    capacity: int


def _int64_column(values, name: str, owner: str, error) -> np.ndarray:
    """Read-only int64 copy of a one-dimensional column; raises `error` naming
    the first entry that is not an integer inside the int64 range."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise error(f"{name} must be a one-dimensional sequence")
    kind = arr.dtype.kind
    if kind == "f":
        ok = np.isfinite(arr) & (arr == np.floor(arr)) & (np.abs(arr) < 2.0**63)
    elif kind == "u":
        ok = arr <= _INT64_MAX
    else:  # objects (Python ints beyond 64 bits), strings and the like fail
        ok = np.full(arr.shape, kind in "bi")
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        raise error(f"{owner} {j}: {name} {arr[j]} is not an integer in the int64 range")
    out = arr.astype(np.int64)
    out.flags.writeable = False
    return out


# NetworkProblem columns: field, what it is indexed by, error raised for
# entries that are not integers inside the int64 range.
_COLUMNS = (
    ("supply", "node", ValueError),
    ("tail", "arc", BadArcEndpoint),
    ("head", "arc", BadArcEndpoint),
    ("cost", "arc", NegativeCapacityOrCharge),
    ("fixed", "arc", NegativeCapacityOrCharge),
    ("cap", "arc", NegativeCapacityOrCharge),
)


@dataclass(frozen=True, eq=False)
class NetworkProblem:
    """Pure network with per-node supplies (positive = source) and fixed-charge
    arcs, held as read-only int64 arrays. Construction converts and checks
    every column; `validate` checks the network invariants on top."""

    supply: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    cost: np.ndarray
    fixed: np.ndarray
    cap: np.ndarray

    def __post_init__(self):
        for name, owner, error in _COLUMNS:
            object.__setattr__(self, name, _int64_column(getattr(self, name), name, owner, error))
        if len({getattr(self, name).size for name, _, _ in _COLUMNS[1:]}) > 1:
            raise ValueError("arc columns differ in length")

    @property
    def node_count(self) -> int:
        return self.supply.size

    @property
    def arc_count(self) -> int:
        return self.tail.size

    @property
    def arcs(self) -> Tuple[ArcData, ...]:
        """Per-arc records, built on each access; the arrays are the model."""
        return tuple(map(ArcData._make, zip(self.tail.tolist(), self.head.tolist(),
                                            self.cost.tolist(), self.fixed.tolist(),
                                            self.cap.tolist())))

    def __eq__(self, other):
        if not isinstance(other, NetworkProblem):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name, _, _ in _COLUMNS)

    __hash__ = None


def make_problem(supply: Sequence[int], arcs: Sequence) -> NetworkProblem:
    """Build a NetworkProblem from a supply vector and (tail, head, cost, fixed, capacity) rows."""
    return NetworkProblem(supply, *(tuple(zip(*arcs)) or ((),) * 5))


def validate(problem: NetworkProblem) -> NetworkProblem:
    """Check model invariants; returns the problem unchanged when sound.

    The last checks are the exact-integer range contract: B = sum |c_j| U_j +
    sum F_j (`_objective_bound`) must stay below 2^62, else `OutOfExactRange`.
    Once `solve_lp` has capped the root arcs, every objective, and every
    objective delta of a pivot with a positive flow change d, is at most B
    in magnitude: d is at most the capacity of each arc on its cycle, so the
    linear term is at most sum |c_j| U_j, and the charges gained or released
    are at most sum F_j. The sweep's int64 deltas, charge sums and objective
    deltas therefore stay below 2^63. Its root-path cost sums may wrap (an
    arc of capacity 0 adds nothing to B), but int64 arithmetic is exact
    modulo 2^64, so their difference times the delta is exact because its
    true value is in range. The search subtracts one objective from another,
    which stays below 2 B < 2^63. A working-cost scale must also exist at
    BIGM_CAP, the largest big-M (`working_scale`).
    """
    n = problem.node_count
    if n < 1:
        raise ValueError("an instance needs at least one node")
    total = sum(problem.supply.tolist())
    if total != 0:
        raise UnbalancedSupply(f"supplies sum to {total}, expected 0")
    if sum(problem.supply[problem.supply > 0].tolist()) > _INT64_MAX:
        raise ValueError("total supply exceeds the int64 range")
    t, h = problem.tail, problem.head
    bad = np.flatnonzero((t < 0) | (t >= n) | (h < 0) | (h >= n) | (t == h))
    if bad.size:
        j = bad[0]
        raise BadArcEndpoint(f"arc {j}: endpoints ({t[j]}, {h[j]}) invalid")
    for what, col in (("capacity", problem.cap), ("fixed charge", problem.fixed)):
        bad = np.flatnonzero(col < 0)
        if bad.size:
            raise NegativeCapacityOrCharge(f"arc {bad[0]}: {what} {col[bad[0]]}")
    bound = _objective_bound(problem)
    if bound >= 2**62:
        raise OutOfExactRange(f"sum |c_j| U_j + sum F_j = {bound} reaches 2^62")
    working_scale(problem, BIGM_CAP)
    return problem


def _objective_bound(problem: NetworkProblem) -> int:
    """B = sum |c_j| U_j + sum F_j, exact, for an instance whose capacities
    and fixed charges are non-negative (`validate` checks them first).

    A float64 sum of these non-negative terms is off by a relative (arcs +
    1) * 2^-53 at most, so below 2^61 it proves B < 2^62. Then the int64 sum
    is exact, since every partial sum is at most B; a cost of -2^63, which
    int64 `abs` leaves negative, fails the screen on an arc of positive
    capacity. Otherwise B is summed in Python ints.
    """
    cost, cap, fixed = problem.cost, problem.cap, problem.fixed
    if np.abs(cost.astype(np.float64)) @ cap + fixed.sum(dtype=np.float64) < 2.0**61:
        return int(np.abs(cost) @ cap + fixed.sum())
    return sum(abs(c) * u for c, u in zip(cost.tolist(), cap.tolist())) + sum(fixed.tolist())


def default_bigm(problem: NetworkProblem) -> int:
    """Instance cost dominator: 2 B (`_objective_bound`), floored and capped."""
    return int(min(max(2 * _objective_bound(problem), BIGM_FLOOR), BIGM_CAP))


def working_scale(problem: NetworkProblem, bigm: int) -> Tuple[int, int]:
    """(S, T) under big-M `bigm`: T = max |c_j| + bigm bounds every working
    cost (c_j plus a penalty of at most BigM, BigM, or 1 in phase 1), and S
    is the largest power of two with S T <= 2^53, so S c is exact in float64,
    and (n + 2) S T < 2^62, so potentials (sums of at most n working costs)
    and reduced costs fit in int64. Raises `OutOfExactRange` if S < 1."""
    t = max(-int(problem.cost.min(initial=0)), int(problem.cost.max(initial=0))) + bigm
    k = min(2**53 // t, (2**62 - 1) // ((problem.node_count + 2) * t)).bit_length() - 1
    if k < 0:
        raise OutOfExactRange(f"no working-cost scale for T = {t}, n = {problem.node_count}")
    return 1 << k, t


def check_flows(problem: NetworkProblem, flows) -> Tuple[List[str], Optional[int]]:
    """Every breach of shape, integrality, arc bounds and node conservation by
    a flow vector, plus its exact fixed-charge objective (None unless feasible).

    Non-finite entries count as non-integral. Bounds are tested before any
    cast to int64; conservation is tested once every entry is known to have
    an int64 value.
    """
    m = problem.arc_count
    x = np.asarray(flows)
    if x.shape != (m,):
        return [f"flow vector has shape {x.shape}, expected ({m},)"], None
    violations = []
    if x.dtype.kind not in "biu":
        x = x.astype(np.float64, copy=False)
        for j in np.flatnonzero(~(np.isfinite(x) & (x == np.floor(x)))):
            kind = "fractional" if np.isfinite(x[j]) else "non-finite"
            violations.append(f"arc {j}: {kind} flow {x[j]}")
    for j in np.flatnonzero((x < 0) | (x > problem.cap)):
        violations.append(f"arc {j}: flow {x[j]} outside [0, {problem.cap[j]}]")
    if violations and x.dtype.kind not in "bi":
        return violations, None
    x = x.astype(np.int64, copy=False)
    net = np.zeros(problem.node_count, dtype=np.int64)
    np.add.at(net, problem.tail, x)
    np.subtract.at(net, problem.head, x)
    for i in np.flatnonzero(net != problem.supply):
        violations.append(f"node {i}: net outflow {net[i]} != supply {problem.supply[i]}")
    if violations:
        return violations, None
    used = np.flatnonzero(x)
    value = sum(c * f for c, f in zip(problem.cost[used].tolist(), x[used].tolist()))
    return violations, value + sum(problem.fixed[used].tolist())


def fc_objective(problem: NetworkProblem, flows) -> int:
    """Fixed-charge objective sum c_j x_j + sum {F_j : x_j > 0} of a feasible
    flow; raises InfeasibleFlows with the first breach otherwise."""
    violations, value = check_flows(problem, flows)
    if violations:
        raise InfeasibleFlows(violations[0])
    return value


@dataclass(frozen=True)
class PivotEval:
    """Outcome of a tentative pivot: entering arc, leaving arc, blocking flow
    change and the exact fixed-charge objective delta at that change."""

    entering: int
    leaving: int
    delta: int
    objective_delta: int
    _cycle: list
    _version: int


class SimplexState:
    """Basic feasible solution of the bounded network LP over an instance.

    The arc set is the instance's arcs followed by one artificial arc per node
    into a virtual root. Artificial arcs start with the total supply as
    capacity and BigM as cost; once `solve_lp` has drained them, their
    capacity is zero and they only hold the tree together. `basic` marks
    the tree arcs; every other arc's flow is 0 or its capacity. Warm starts
    keep the basis and swap the working cost vector.
    """

    def __init__(self, problem: NetworkProblem, costs):
        self.problem = problem
        n = problem.node_count
        m = problem.arc_count
        self.n = n
        self.m = m
        self.root = n
        self.E = m + n
        self.bigm = default_bigm(problem)
        self.scale, self.max_cost = working_scale(problem, self.bigm)

        supply = problem.supply
        source = supply >= 0
        art_cap = max(int(supply[source].sum()), 1)

        # Artificial arcs: nodes without demand point at the root, demand
        # nodes away from it, so the all-artificial tree is strongly feasible
        # but for a sole source, which starts at its artificial capacity.
        nodes = np.arange(n, dtype=np.int64)
        self.tail = np.concatenate([problem.tail, np.where(source, nodes, self.root)])
        self.head = np.concatenate([problem.head, np.where(source, self.root, nodes)])
        self.cap = np.concatenate([problem.cap, np.full(n, art_cap, dtype=np.int64)])
        self.fixed = np.concatenate([problem.fixed, np.zeros(n, dtype=np.int64)])
        self.flow = np.concatenate([np.zeros(m, dtype=np.int64), np.abs(supply)])
        self.basic = np.zeros(self.E, dtype=bool)
        self.basic[m:] = True
        self.base_cost = np.concatenate([problem.cost, np.full(n, self.bigm, dtype=np.int64)])
        # Working costs in units of 1/S; installing BigM on the tree labels it.
        self.work = np.zeros(self.E, dtype=np.int64)
        # What pricing multiplies a reduced cost by: -1 at flow 0 (pushed up),
        # +1 at capacity (pushed down), 0 on tree arcs and arcs of capacity 0.
        self.price_sign = np.where(self.basic | (self.cap == 0), 0, -1)
        # Element-wise copies for the relabel and the ratio test; `set_costs`
        # refreshes the working costs' copy.
        self.tail_list = self.tail.tolist()
        self.head_list = self.head.tolist()

        self.parent = [-1] * (n + 1)
        self.pred_arc = [-1] * (n + 1)
        self.depth = [0] * (n + 1)
        self.pot_work = np.zeros(n + 1, dtype=np.int64)
        self.tree_adj = [[m + i] for i in range(n)] + [list(range(m, m + n))]

        self.version = 0
        self.pivot_count = 0
        # What the last pivot touched: (version it produced, root of the moved
        # subtree or -1, leaving arc, flow change, arcs of its cycle); read by
        # the fixed-charge sweep.
        self.last_pivot = None
        # The sweep's (delta, objective delta) per instance arc, and for a
        # delta of 0 an arc that blocks it, valid for the arcs that were
        # nonbasic at sweep_version.
        self.sweep_delta = np.zeros(m, dtype=np.int64)
        self.sweep_xoj = np.zeros(m, dtype=np.int64)
        self.sweep_witness = np.zeros(m, dtype=np.int64)
        self.sweep_version = -1
        self.set_costs(costs, self.bigm)

    # -- basis bookkeeping -------------------------------------------------

    def set_costs(self, costs, root_cost: Optional[int] = None) -> None:
        """Install working costs for the instance arcs, and the integer
        `root_cost` on every artificial arc when given; every write to the
        working costs goes through here. A cost c is stored as round(S c):
        exactly when it is on the grid 1/S, integers included, else within
        1/(2S). A cost that is not finite or exceeds T = `max_cost` in
        magnitude raises ValueError. Potentials read only the tree arcs'
        costs, so the labels are rebuilt only when a tree arc's cost changes."""
        c = np.asarray(costs)  # integers are range-tested before float64 could round them
        c = c if c.dtype.kind in "iu" else np.asarray(costs, dtype=np.float64)
        if c.shape != (self.m,):
            raise ValueError(f"cost vector has shape {c.shape}, expected ({self.m},)")
        if not ((c >= -self.max_cost) & (c <= self.max_cost)).all():
            raise ValueError(f"costs must be finite and at most {self.max_cost} in magnitude")
        w = np.rint(c * self.scale).astype(np.int64)
        work, basic, m = self.work, self.basic, self.m
        stale = (basic[:m] & (w != work[:m])).any()
        work[:m] = w
        if root_cost is not None:
            root_cost *= self.scale
            stale |= (basic[m:] & (work[m:] != root_cost)).any()
            work[m:] = root_cost
        self.work_list = work.tolist()
        if stale:
            self._rebuild()

    def _rebuild(self) -> None:
        """Recompute labels, depths and working potentials from the tree arcs."""
        root = self.root
        self.parent[root] = -1
        self.pred_arc[root] = -1
        self.depth[root] = 0
        self.pot_work[root] = 0
        if self._hang(root, self.tree_adj[root]) != self.n:
            raise SimplexStalled("basis arcs do not span every node")

    def _hang(self, u: int, arcs) -> int:
        """Label every node reached from u across the given tree arcs of u.

        Each node takes its parent, pred arc, depth and working potential
        (a Python int on the stack, its parent's plus or minus one working
        cost) from its parent, so the labels equal a full walk from the root
        whenever u's own labels do; potentials are scattered at the end.
        Returns the number of nodes labelled; more than n means the tree arcs
        hold a cycle, round which the walk would run for ever, and raises
        SimplexStalled.
        """
        parent, pred, depth = self.parent, self.pred_arc, self.depth
        tail, head, work = self.tail_list, self.head_list, self.work_list
        adj = self.tree_adj
        n = self.n
        pwu = int(self.pot_work[u])
        stack = []
        nodes, pots = [], []
        while True:
            pe = pred[u]
            du = depth[u] + 1
            for a in arcs:
                if a == pe:
                    continue
                t = tail[a]
                v = head[a] if t == u else t
                parent[v] = u
                pred[v] = a
                depth[v] = du
                stack.append((v, work[a] + pwu if t == v else pwu - work[a]))
            if not stack:
                self.pot_work[nodes] = pots
                return len(nodes)
            u, pwu = stack.pop()
            nodes.append(u)
            pots.append(pwu)
            arcs = adj[u]
            if len(nodes) > n:
                raise SimplexStalled("basis arcs form a cycle")

    def real_flows(self) -> np.ndarray:
        """Flows on the instance arcs."""
        return self.flow[: self.m].copy()

    def has_artificial_flow(self) -> bool:
        return bool(np.any(self.flow[self.m :] != 0))

    def close_artificial_arcs(self) -> None:
        """Cap the drained artificial arcs at zero, which takes them out of
        pricing. Ratio tests through the root change with their capacity, so
        this starts a new version."""
        if self.has_artificial_flow():
            raise SimplexStalled("artificial arcs still carry flow")
        self.cap[self.m :] = 0
        self.price_sign[self.m :] = 0
        self.version += 1

    def copy(self) -> "SimplexState":
        """Independent clone; the original is left untouched by pivots on the copy."""
        new = object.__new__(SimplexState)
        for name, value in vars(self).items():
            setattr(new, name, value.copy() if isinstance(value, (np.ndarray, list)) else value)
        new.tree_adj = [list(adj) for adj in self.tree_adj]
        return new

    # -- pivoting machinery ------------------------------------------------

    def reduced_costs(self) -> np.ndarray:
        """Working reduced cost of every arc, artificial arcs included, in
        units of 1/S as int64: zero on tree arcs, at optimality nonnegative
        on arcs at 0 and nonpositive on arcs at capacity."""
        pw = self.pot_work
        return self.work - pw[self.tail] + pw[self.head]

    def _price(self) -> int:
        """Dantzig rule: most violating nonbasic arc, lowest index on ties.
        The violation is the reduced cost times the kept `price_sign`, which
        is 0 on tree arcs and on arcs of capacity 0: such an arc has equal
        bounds, so it is optimal at any reduced cost and never priced. The
        violations are exact integers, so any positive one is taken."""
        viol = self.reduced_costs()
        viol *= self.price_sign
        j = int(viol.argmax())
        return j if viol[j] > 0 else -1

    def _cycle(self, j: int):
        """Ratio test over the basis cycle of nonbasic arc j in its push direction.

        Returns (delta, leaving arc, cycle). The cycle lists (arc, sign) pairs
        in push order from the apex: down to the node the flow leaves the
        tree, j, then up from the node where it re-enters. Sign is +1 where
        cycle flow increases the arc; j's is +1 at flow 0, else -1. The
        leaving arc is the last one in this order that blocks, which keeps
        the tree strongly feasible.
        """
        tail, parent, pred, depth = self.tail_list, self.parent, self.pred_arc, self.depth
        flow, cap = self.flow, self.cap
        dirn = 1 if flow[j] == 0 else -1
        na, nb = tail[j], self.head_list[j]
        if dirn < 0:
            na, nb = nb, na
        path_a = []  # cycle flow runs parent -> node while climbing
        path_b = []  # cycle flow runs node -> parent while climbing
        while na != nb:
            if depth[na] >= depth[nb]:
                e = pred[na]
                sign = -1 if tail[e] == na else 1
                path_a.append((e, sign))
                na = parent[na]
            else:
                e = pred[nb]
                sign = 1 if tail[e] == nb else -1
                path_b.append((e, sign))
                nb = parent[nb]
        path_a.reverse()
        path_a.append((j, dirn))  # j sits at one of its bounds: residual cap[j]
        cycle = path_a + path_b

        residual = [int(cap[e] - flow[e]) if s > 0 else int(flow[e]) for e, s in cycle]
        delta = min(residual)
        for (e, _), r in zip(cycle, residual):
            if r == delta:
                leaving = e
        return delta, leaving, cycle

    def _apply(self, j: int, k: int, delta: int, cycle) -> None:
        """Push delta round the cycle of j and exchange j for k in the basis.

        Dropping k cuts off the endpoint of j on k's side of the cycle; it is
        hung below the other endpoint p through j, and only the moved subtree
        is relabelled. Flows change on the cycle, which in the new basis is k
        plus the tree path between k's endpoints (k is j on a bound flip).
        A leaving arc off the cycle or not at a bound after the push is
        refused before anything changes. The leaving arc, now at a bound,
        takes that bound's pricing sign, and an entering j leaves pricing.
        """
        flow = self.flow
        tail, head, adj = self.tail_list, self.head_list, self.tree_adj
        moved = -1
        arcs = [e for e, _ in cycle]
        if k not in arcs:
            raise SimplexStalled(f"leaving arc {k} is not on the cycle of arc {j}")
        at_k, at_j = arcs.index(k), arcs.index(j)
        fk = int(flow[k]) + cycle[at_k][1] * delta
        capk = int(self.cap[k])
        if fk != 0 and fk != capk:
            raise SimplexStalled(f"leaving arc {k} not at a bound (flow {fk})")
        if k != j:
            na, nb = tail[j], head[j]
            if cycle[at_j][1] < 0:
                na, nb = nb, na
            # p: the endpoint of j still joined to the root once k is dropped
            p = nb if at_k < at_j else na
            moved = na + nb - p
        if delta:
            for e, s in cycle:
                flow[e] += s * delta
        self.price_sign[k] = 0 if capk == 0 else -1 if fk == 0 else 1
        if k != j:
            self.price_sign[j] = 0
            self.basic[j] = True
            self.basic[k] = False
            adj[tail[j]].append(j)
            adj[head[j]].append(j)
            adj[tail[k]].remove(k)
            adj[head[k]].remove(k)
            self._hang(p, (j,))
        self.version += 1
        self.pivot_count += 1
        self.last_pivot = (self.version, moved, k, delta, arcs)

    def optimize(self) -> int:
        """Pivot until no working-cost violation remains; returns pivots done."""
        limit = 200 * self.E + 5000
        steps = 0
        while True:
            j = self._price()
            if j < 0:
                return steps
            delta, k, cycle = self._cycle(j)
            self._apply(j, k, delta, cycle)
            steps += 1
            if steps > limit:
                raise SimplexStalled("pivot limit exceeded")

    # -- diagnostics ---------------------------------------------------------

    def assert_valid_basis(self) -> None:
        """Raise when any structural, flow, tree-label or pricing-sign
        invariant is broken (test hook)."""
        n, m = self.n, self.m
        if int(np.count_nonzero(self.basic)) != n:
            raise SimplexStalled("tree arc count is not node count")
        if np.any(self.flow < 0) or np.any(self.flow > self.cap):
            raise SimplexStalled("flow bound violated")
        if np.any(~self.basic & (self.flow != 0) & (self.flow != self.cap)):
            raise SimplexStalled("nonbasic arc away from its bound")
        net = np.zeros(n + 1, dtype=np.int64)
        np.add.at(net, self.tail, self.flow)
        np.subtract.at(net, self.head, self.flow)
        if np.any(net != np.append(self.problem.supply, 0)):
            raise SimplexStalled("flow conservation violated")
        root = self.root
        parent, pred, depth = _label_arrays(self)
        if (parent[root], pred[root], depth[root], self.pot_work[root]) != (-1, -1, 0, 0):
            raise SimplexStalled("root labels are not the root's")
        u, e = parent[:n], pred[:n]
        if np.any((u < 0) | (u > n)) or np.any((e < 0) | (e >= self.E)):
            raise SimplexStalled("parent or pred arc label out of range")
        v = np.arange(n)
        te, he = self.tail[e], self.head[e]
        joins = ((te == v) & (he == u)) | ((he == v) & (te == u))
        if not np.all(self.basic[e] & joins):
            raise SimplexStalled("pred arc is not a tree arc to the parent")
        if np.any(depth[:n] != depth[u] + 1):
            raise SimplexStalled("depth is not the parent's plus one")
        if np.any(self.reduced_costs()[self.basic]):
            raise SimplexStalled("tree arc with nonzero reduced cost")
        sign = np.where(self.flow == 0, -1, 1)
        sign[self.basic | (self.cap == 0)] = 0
        if not np.array_equal(self.price_sign, sign):
            raise SimplexStalled("pricing sign does not match the basis and bounds")


def solve_lp(problem: NetworkProblem, costs) -> SimplexState:
    """Cold-start optimal basic solution of min costs.x over the flow polytope.

    The big-M start drains the artificial arcs whenever BigM dominates every
    real route. When it leaves artificial flow, the basis is re-solved with
    real arcs priced 0 and artificial arcs 1, which minimizes the artificial
    flow exactly: flow still left proves infeasibility, otherwise the caller's
    costs are re-solved with the artificial arcs capped at zero. Either way
    the returned state has zero-capacity artificial arcs.
    """
    validate(problem)
    state = SimplexState(problem, costs)
    state.optimize()
    if state.has_artificial_flow():
        state.set_costs(np.zeros(state.m), 1)
        state.optimize()
        if state.has_artificial_flow():
            raise Infeasible("no feasible flow meets all supplies")
        state.close_artificial_arcs()
        state.set_costs(costs, state.bigm)
        state.optimize()
    state.close_artificial_arcs()
    return state


def reoptimize(state: SimplexState, new_costs) -> SimplexState:
    """Re-optimize an existing basis after a cost change (warm start)."""
    state.set_costs(new_costs)
    state.optimize()
    return state


def evaluate_fc_entering(state: SimplexState, j: int) -> PivotEval:
    """Ratio test for nonbasic arc j plus the exact fixed-charge objective delta.

    The delta is evaluated at the full blocking flow change: linear cost along
    the cycle plus charges newly incurred minus charges released. Degenerate
    evaluations (delta 0) are legal and carry a zero flow delta.
    """
    if j < 0 or j >= state.m:
        raise ValueError(f"arc index {j} out of range")
    if state.basic[j]:
        raise ValueError(f"arc {j} is basic; entering arc must be nonbasic")
    delta, k, cycle = state._cycle(j)

    objective_delta = 0
    if delta > 0:
        flow, fixed, basec = state.flow, state.fixed, state.base_cost
        for e, s in cycle:
            objective_delta += s * int(basec[e]) * delta
            if s > 0:
                if flow[e] == 0:
                    objective_delta += int(fixed[e])
            elif flow[e] == delta:
                objective_delta -= int(fixed[e])
    return PivotEval(
        entering=j,
        leaving=k,
        delta=delta,
        objective_delta=objective_delta,
        _cycle=cycle,
        _version=state.version,
    )


def pivot(state: SimplexState, ev: PivotEval) -> SimplexState:
    """Apply an evaluated pivot: basis exchange or bound flip plus flow update."""
    if ev._version != state.version:
        raise StalePivotEval("state changed since this pivot was evaluated")
    state._apply(ev.entering, ev.leaving, ev.delta, ev._cycle)
    return state


def _meet(r1, d1, r2, d2):
    """(min residual, summed release charges of the arcs attaining it) of two paths."""
    r = np.minimum(r1, r2)
    return r, (r1 == r) * d1 + (r2 == r) * d2


def evaluate_all_entering(state: SimplexState):
    """Fixed-charge sweep: a tentative full pivot of every nonbasic instance arc.

    Returns (candidates, delta, objective_delta, admissible). Every delta and
    objective delta equals evaluate_fc_entering's exactly. `admissible` is
    all True: once solve_lp has capped the artificial arcs at zero, a cycle
    through the root is degenerate and no move can put flow on them.

    Answers are kept on the state per arc with the version they belong to,
    a degenerate one with a witness: an arc of its cycle with no residual
    in the push direction. At that version they are returned as they are.
    After a version change a sweep takes one of three routes, chosen by its
    size, the candidate count times the tree depth. A sweep of at most
    FULL_WALK_LIMIT walks every candidate's cycle (`_walk`) and builds no
    table. A larger sweep one pivot past the kept answers narrows them to
    those `_touched` names; after any other version jump every candidate is
    answered. What is left then walks while its size is at most WALK_LIMIT
    and is lifted (`_answer`) otherwise. Every route gives the same exact
    integers and stores every answer it makes, so the kept answers stay
    valid whichever route a later sweep takes. The answers read neither
    `work` nor `pot_work` but the instance costs, so `set_costs` leaves
    them valid. The returned arrays are new on each call.
    """
    cand = np.flatnonzero(~state.basic[: state.m])
    if state.sweep_version != state.version:
        depth = max(state.depth)
        redo, jump = cand, None
        last = state.last_pivot
        if (cand.size * depth > FULL_WALK_LIMIT and last is not None
                and last[0] == state.version == state.sweep_version + 1):
            jump = _jump_tables(state)
            redo = _touched(state, jump, cand)
        if redo.size:
            if redo.size * depth <= WALK_LIMIT:
                answers = _walk(state, redo)
            else:
                answers = _answer(state, jump or _jump_tables(state), redo)
            state.sweep_delta[redo], state.sweep_xoj[redo], state.sweep_witness[redo] = answers
        state.sweep_version = state.version
    return cand, state.sweep_delta[cand], state.sweep_xoj[cand], np.ones(cand.size, dtype=bool)


def _label_arrays(state: SimplexState) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 copies of the parent, pred arc and depth labels, for one sweep
    or one check; the state keeps the labels as lists only."""
    return tuple(np.array(labels, dtype=np.int64)
                 for labels in (state.parent, state.pred_arc, state.depth))


class JumpTables(NamedTuple):
    """What the lifting route reads of the tree, built once per sweep that
    narrows or lifts: the labels as arrays, and per level l a map of each
    node to its 2^l-th ancestor, the root being its own, for every level
    below the bit length of the tree depth. The nodes are listed twice in
    each level, once per cycle side: side a at [0, n] (the node indices
    themselves) and side b at [n + 1, 2n + 1], each mapped into its own half."""

    parent: np.ndarray
    pred: np.ndarray
    depth: np.ndarray
    levels: list


def _jump_tables(state: SimplexState) -> JumpTables:
    """The jump tables of the state's current tree."""
    parent, pred, depth = _label_arrays(state)
    n1 = state.n + 1
    a = np.concatenate([parent, parent + n1])
    a[n1 - 1 :: n1] = (n1 - 1, 2 * n1 - 1)  # each root is its own ancestor
    levels = [a]
    for _ in range(1, max(1, int(depth.max()).bit_length())):
        a = levels[-1]
        levels.append(a[a])
    return JumpTables(parent, pred, depth, levels)


def _root_path_sums(jump: JumpTables, values: np.ndarray) -> np.ndarray:
    """Add to each node's value, in place, those of all its ancestors by
    pointer jumping over side a of `jump`; the root's value must be 0."""
    for a in jump.levels:
        values += values[a[: values.size]]
    return values


def _touched(state: SimplexState, jump: JumpTables, cand: np.ndarray) -> np.ndarray:
    """The candidates to answer again one pivot past the kept answers.

    A candidate's answer reads its tree path and the costs and flows on it.
    A pivot keeps every tree path between two nodes on one side of the cut
    it makes and changes flows only on the leaving arc and the tree path
    between its endpoints. So an answer can change only for an arc with one
    endpoint in the moved subtree T, an arc whose path shares an arc with
    the changed path, and the leaving arc. When flows changed, the changed
    path holds the entering arc, which every path across the cut crosses,
    and it is the leaving arc's own path; on a degenerate exchange
    the leaving arc straddles the cut. So the test is on the changed path
    when there is one, else on the cut, and the leaving arc always passes.

    The changed path is the pivot's cycle without k. With i the position of
    k in the cycle, the first i arcs and the rest form chains A and B of the
    new tree, each from an endpoint of k up to the old apex, on either side
    of an exchange and on a bound flip. Each node counts the child endpoints
    of chain-A arcs and i + 1 times those of chain-B arcs among its
    ancestors-or-self, by `_root_path_sums`. A path shares an arc with a
    chain iff that chain's count differs between its endpoints, and chain
    A's is at most i, so iff the packed count does. Without a changed path
    the only node counted is T's root: 1 in T and 0 elsewhere.

    Of the candidates this test passes, one whose kept answer is degenerate
    keeps it while its witness is off the pivot's cycle C. The new cycle of
    a candidate c is its old one minus a multiple of the entering arc's, so
    coefficients change only on C; flows change only on C too. A witness
    off C is still on c's cycle, in the same direction, at the same flow,
    and blocks c at 0. The leaving arc's kept entries date from before it
    last entered the tree, or on a bound flip from before its direction
    turned, so it is always answered again.
    """
    _, moved, k, delta, arcs = state.last_pivot
    tail, head = state.tail, state.head
    count = np.zeros(state.n + 1, dtype=np.int64)
    if delta:
        i = arcs.index(k)
        path = np.array(arcs[:i] + arcs[i + 1 :], dtype=np.int64)
        child = np.where(jump.pred[tail[path]] == path, tail[path], head[path])
        count[child[:i]] = 1
        count[child[i:]] = i + 1
    elif moved >= 0:
        count[moved] = 1
    _root_path_sums(jump, count)
    redo = cand[count[tail[cand]] != count[head[cand]]]
    on_cycle = np.zeros(state.E, dtype=bool)
    on_cycle[arcs] = True
    again = on_cycle[state.sweep_witness[redo]] | (state.sweep_delta[redo] != 0)
    return redo[again | (redo == k)]


def _apex(jump: JumpTables, ends: np.ndarray) -> np.ndarray:
    """Common ancestor of each column's two nodes: lift the deeper by the
    depth difference, jump both to just below their common ancestor, then
    take the last step."""
    lift = jump.depth[ends]
    lift -= np.minimum(lift[0], lift[1])
    x = ends
    for level, a in enumerate(jump.levels):
        x = np.where((lift & (1 << level)) != 0, a[x], x)
    for a in reversed(jump.levels):
        ax = a[x]
        x = np.where(ax[0] != ax[1], ax, x)
    return np.where(x[0] != x[1], jump.levels[0][x[0]], x[0])


def _answer(state: SimplexState, jump: JumpTables, cand: np.ndarray):
    """(delta, objective delta, witness) of the given nonbasic arcs by
    binary lifting, with the same cycle sides, values and witness as
    `_walk`.

    The arc pred[w] from node w to its parent has one set of values per
    side, stored at w in that side's half of the flattened level-0 tables:
    the residual in the push direction, the charge released when the arc
    decreases to that residual and the charge gained when it is increasing
    and empty. The roots hold identity values. `_lift` combines them over
    the entering arc's own bound and both side paths at a fixed O(log
    depth) numpy calls plus O(log depth) work per candidate. The linear
    term reads exact potentials of the instance costs: root-path sums of
    the tree arcs' signed costs.
    """
    tail, head, flow, fixed, basec = (state.tail, state.head, state.flow,
                                      state.fixed, state.base_cost)
    e = jump.pred  # the root's entries are garbage until reset in _level0
    up = tail[e] != jump.parent  # side a decreases the arc, side b increases it
    lower = flow[cand] == 0
    tc, hc = tail[cand], head[cand]
    ends = np.where(lower, (tc, hc), (hc, tc))  # where the flow leaves, re-enters
    capc, fj = state.cap[cand], fixed[cand]
    gain_j = lower * fj  # gained when pushed up from 0
    d0 = fj - gain_j  # the entering arc's own bound opens side a; released at 0
    delta, drop, g, node = _lift(state, jump, ends, capc, d0, _level0(state, e, up))

    signed = np.where(up, basec[e], -basec[e])
    signed[-1] = 0
    pot = _root_path_sums(jump, signed)
    rc = basec[cand] - pot[tc] + pot[hc]
    xoj = np.where(lower, rc, -rc) * delta + (delta > 0) * (g + gain_j - drop)
    witness = np.where(capc == 0, cand, e[node])
    return delta, xoj, witness


def _level0(state: SimplexState, e: np.ndarray, up: np.ndarray):
    """Per node, the (residual, release, gain) of its pred arc e on side a,
    then on side b, flattened as in `_jump_tables`; each root holds the
    identity (no bound, nothing released or gained)."""
    n1 = state.n + 1
    both = np.concatenate([e, e])
    down = np.concatenate([up, ~up])
    f, c, xe = state.flow[both], state.cap[both], state.fixed[both]
    res = np.where(down, f, c - f)
    rel = down * xe
    gain = ((f == 0) & ~down) * xe
    res[n1 - 1 :: n1] = _INT64_MAX
    rel[n1 - 1 :: n1] = 0
    gain[n1 - 1 :: n1] = 0
    return res, rel, gain


def _walk(state: SimplexState, cand: np.ndarray):
    """(delta, objective delta, witness) of the given nonbasic arcs by
    climbing each cycle arc by arc on Python lists.

    A cycle climbs on side a from the node the flow leaves (flow runs
    parent -> w on the arc pred[w] from node w to its parent) and on side b
    from the node it re-enters (w -> parent), the deeper end first, to
    their common ancestor, the apex. Per node and side, pred[w] gives its
    residual in the push direction, the charge released when it decreases
    to that residual, the charge gained when it increases from 0 and its
    cost signed by the push. The climb folds them into the running residual
    minimum (the delta), the summed release charges of the arcs attaining
    it, the gain sum and the cycle's unit cost, all starting from the
    entering arc's own; the fold is commutative, so the interleaving of the
    sides does not matter. The witness of a degenerate answer is the
    candidate itself when its capacity is 0, else the pred arc of the first
    zero-residual node on side a's path from its end, or failing that on
    side b's. A handful of numpy calls fetch the inputs, the rest is exact
    Python integer arithmetic, and no table is built over the tree.
    """
    n = state.n
    parent, depth = state.parent, state.depth
    pred = state.pred_arc[:n] + cand.tolist()  # each node's pred arc, then cand
    at = np.array(pred, dtype=np.int64)
    cols = [a[at].tolist() for a in (state.flow, state.cap, state.fixed, state.base_cost,
                                     state.tail, state.head)]
    side = []  # per node: (values on side a, values on side b)
    for w, f, c, x, b, t in zip(range(n), *cols[:5]):
        dec, inc = (f, x, 0, -b), (c - f, 0, x if f == 0 else 0, b)
        side.append((dec, inc) if t == w else (inc, dec))
    out = []
    for j, f, c, x, b, t, h in zip(*(col[n:] for col in [pred] + cols)):
        if f == 0:  # pushed up from 0: gains its charge
            u, v, r, d, g, unit = t, h, c, 0, x, b
        else:  # pushed down from its capacity: releases its charge at 0
            u, v, r, d, g, unit = h, t, c, x, 0, -b
        wa = wb = -1
        du, dv = depth[u], depth[v]
        while u != v:
            if du >= dv:
                res, rel, gain, cost = side[u][0]
                if res == 0 and wa < 0:
                    wa = pred[u]
                u = parent[u]
                du -= 1
            else:
                res, rel, gain, cost = side[v][1]
                if res == 0 and wb < 0:
                    wb = pred[v]
                v = parent[v]
                dv -= 1
            if res < r:
                r, d = res, rel
            elif res == r:
                d += rel
            g += gain
            unit += cost
        witness = j if c == 0 else wa if wa >= 0 else wb
        out.append((r, unit * r + g - d if r else 0, witness))
    return np.array(out, dtype=np.int64).reshape(-1, 3).T


def _lift(state: SimplexState, jump: JumpTables, ends: np.ndarray, r0: np.ndarray,
          d0: np.ndarray, level0):
    """(delta, released charges, gain sum, witness node) per candidate by
    binary lifting.

    `_apex` finds each cycle's apex on the jump tables alone; the bit
    length of the longest side path sets how many levels the value tables
    need. Level l of the tables combines the level-0 values over the 2^l
    arcs from each node up to its 2^l-th ancestor: the residual minimum
    with the summed release charges of the arcs attaining it, and the gain
    sum. Both sides' paths are combined at once from the levels named by
    the bits of their lengths, starting from (r0, d0) on side a; a side
    that does not move at a level reads its root. The nearest zero-residual
    node at or above each node comes from pointer jumping.
    """
    depth = jump.depth
    n1 = state.n + 1
    side = np.array([[0], [n1]])  # where each side's half starts
    roots = side + state.root
    apex = _apex(jump, ends)
    steps = depth[ends] - depth[apex]
    levels = int(steps.max()).bit_length()

    res, rel, gain = ([t] for t in level0)
    for a in jump.levels[: levels - 1]:
        r, d = _meet(res[-1], rel[-1], res[-1][a], rel[-1][a])
        res.append(r)
        rel.append(d)
        gain.append(gain[-1] + gain[-1][a])
    # nearest zero-residual node at or above each node, within 2^levels - 1 steps
    nearest = np.where(res[0] == 0, np.arange(2 * n1), jump.levels[0])
    for _ in range(levels):
        nearest = nearest[nearest]

    k = r0.size
    r = np.array((r0, np.full(k, _INT64_MAX)))
    d = np.array((d0, np.zeros(k, dtype=np.int64)))
    g = np.zeros((2, k), dtype=np.int64)
    ends = ends + side  # positions in the flattened tables
    cur = ends
    for level, a in enumerate(jump.levels[:levels]):
        move = (steps & (1 << level)) != 0
        idx = np.where(move, cur, roots)
        r, d = _meet(r, d, res[level][idx], rel[level][idx])
        g += gain[level][idx]
        cur = np.where(move, a[cur], cur)
    delta, drop = _meet(r[0], d[0], r[1], d[1])

    block = nearest[ends]
    node = np.where(depth[block[0]] > depth[apex], block[0], block[1] - n1)
    return delta, drop, g[0] + g[1], node
