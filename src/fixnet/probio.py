"""Instance file format and seeded generators for the two benchmark families.

The FCNF text format is a DIMACS-style grammar with one extra fixed-charge
field per arc line:

    c <comment>
    p fcnf <node_count> <arc_count>
    n <node_id> <supply>                      (1-based; omitted ids supply 0)
    a <tail> <head> <lower> <capacity> <cost> <fixed>   (lower is always 0)

Generators are deterministic in their seed; the RNG is numpy's PCG64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .netcore import FixnetError, NetworkProblem, validate


class FcnfSyntaxError(FixnetError, ValueError):
    """Malformed FCNF text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CountMismatch(FcnfSyntaxError):
    pass


class DuplicateNodeLine(FcnfSyntaxError):
    pass


class InfeasibleSpec(FixnetError, ValueError):
    pass


def _ints(fields, ln: int, message: str) -> list:
    """The fields of a problem or node line `ln` as ints; FcnfSyntaxError(ln,
    message) if one is not."""
    try:
        return list(map(int, fields))
    except ValueError:
        raise FcnfSyntaxError(ln, message) from None


def parse_fcnf(text: str) -> NetworkProblem:
    """Parse FCNF text into a validated NetworkProblem.

    Arc lines append their fields straight to the tail, head, cost, fixed
    and capacity columns the instance is built from. Values outside the
    int64 range pass the parse and are refused by `NetworkProblem`.
    """
    node_count = arc_count = None
    supplies = {}
    columns = tail, head, cost, fixed, cap = [], [], [], [], []
    ln = 1  # the line an error after an empty text names
    for ln, raw in enumerate(text.splitlines(), 1):
        tok = raw.split()
        kind = tok[0] if tok else "c"  # a blank line reads as a comment
        if kind == "a" and node_count is not None:
            if len(tok) != 7:
                raise FcnfSyntaxError(ln, "expected 'a <tail> <head> <lower> <cap> <cost> <fixed>'")
            try:  # inline, as a call to `_ints` here costs 2 % of the parse
                t, h, lo, u, c, f = map(int, tok[1:])
            except ValueError:
                raise FcnfSyntaxError(ln, "arc fields must be integers") from None
            if lo != 0:
                raise FcnfSyntaxError(ln, "lower bound must be 0")
            tail.append(t - 1)
            head.append(h - 1)
            cost.append(c)
            fixed.append(f)
            cap.append(u)
        elif kind == "c":
            pass
        elif kind == "p":
            if node_count is not None:
                raise FcnfSyntaxError(ln, "duplicate problem line")
            if len(tok) != 4 or tok[1] != "fcnf":
                raise FcnfSyntaxError(ln, "expected 'p fcnf <nodes> <arcs>'")
            node_count, arc_count = _ints(tok[2:], ln, "node/arc counts must be integers")
            if node_count < 1 or arc_count < 0:
                raise FcnfSyntaxError(ln, "counts out of range")
        elif node_count is None:
            raise FcnfSyntaxError(ln, "problem line must precede node and arc lines")
        elif kind == "n":
            if len(tok) != 3:
                raise FcnfSyntaxError(ln, "expected 'n <node_id> <supply>'")
            nid, sup = _ints(tok[1:], ln, "node id and supply must be integers")
            if not 1 <= nid <= node_count:
                raise FcnfSyntaxError(ln, f"node id {nid} out of range 1..{node_count}")
            if nid in supplies:
                raise DuplicateNodeLine(ln, f"node {nid} given twice")
            supplies[nid] = sup
        else:
            raise FcnfSyntaxError(ln, f"unknown record type {kind!r}")
    if node_count is None:
        raise FcnfSyntaxError(ln, "missing problem line")
    if len(tail) != arc_count:
        raise CountMismatch(ln, f"declared {arc_count} arcs, found {len(tail)}")
    supply = [supplies.get(i, 0) for i in range(1, node_count + 1)]
    return validate(NetworkProblem(supply, *columns))


def write_fcnf(problem: NetworkProblem, comments: Tuple[str, ...] = ()) -> str:
    """Byte-stable FCNF serialization; zero-supply node lines are omitted."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p fcnf {problem.node_count} {problem.arc_count}")
    for i in np.flatnonzero(problem.supply).tolist():
        lines.append(f"n {i + 1} {problem.supply[i]}")
    rows = zip(problem.tail.tolist(), problem.head.tolist(), problem.cap.tolist(),
               problem.cost.tolist(), problem.fixed.tolist())
    lines.extend(f"a {t + 1} {h + 1} 0 {u} {c} {f}" for t, h, u, c, f in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FctpSpec:
    """Totally dense fixed-charge transportation instance recipe."""

    sources: int
    sinks: int
    total_supply: int
    cost_range: Tuple[int, int] = (3, 8)
    fc_range: Tuple[int, int] = (50, 200)
    fc_count: Optional[int] = None  # arcs carrying a charge; None = all
    seed: int = 0


@dataclass(frozen=True)
class NetgenFcSpec:
    """Fixed-charge transshipment instance recipe in the style of the classic
    random network generator: pure sources/sinks, skeleton-guaranteed feasibility."""

    nodes: int
    source_count: int
    sink_count: int
    arc_count: int
    total_supply: int
    cost_range: Tuple[int, int] = (3, 8)
    fc_range: Tuple[int, int] = (20, 200)
    cap_range: Tuple[int, int] = (200, 1500)
    seed: int = 0


def _check_range(name, rng_pair):
    lo, hi = rng_pair
    if lo > hi:
        raise InfeasibleSpec(f"{name} range [{lo}, {hi}] is empty")


def _partition(rng: np.random.Generator, total: int, k: int) -> np.ndarray:
    """Split total into k random positive integers."""
    if k < 1 or total < k:
        raise InfeasibleSpec(f"cannot split {total} into {k} positive parts")
    if total >= 2**63:
        raise InfeasibleSpec(f"total supply {total} exceeds the int64 range")
    w = rng.integers(1, 1_000_000, size=k).astype(np.float64)
    parts = np.floor(total * w / w.sum()).astype(np.int64)
    np.maximum(parts, 1, out=parts)
    diff = int(total - parts.sum())
    # Residue repair on the largest entries first, keeping each part positive.
    if diff > 0:
        parts[int(np.argmax(parts))] += diff
    while diff < 0:
        idx = int(np.argmax(parts))
        step = min(-diff, int(parts[idx]) - 1)
        if step == 0:
            raise InfeasibleSpec("partition repair failed")
        parts[idx] -= step
        diff += step
    return parts


def generate_fctp(spec: FctpSpec) -> NetworkProblem:
    """Complete bipartite m x n instance; deterministic in spec.seed.

    Arc capacity is min(supply_i, demand_k), the tightest bound that never
    cuts off a transportation routing.
    """
    m, n = spec.sources, spec.sinks
    if m < 1 or n < 1:
        raise InfeasibleSpec("need at least one source and one sink")
    if spec.seed < 0:
        raise InfeasibleSpec(f"seed {spec.seed} is negative")
    _check_range("cost", spec.cost_range)
    _check_range("fixed-charge", spec.fc_range)
    if spec.total_supply < max(m, n):
        raise InfeasibleSpec(f"total supply {spec.total_supply} below max({m}, {n})")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    sup = _partition(rng, spec.total_supply, m)
    dem = _partition(rng, spec.total_supply, n)
    count = m * n
    costs = rng.integers(spec.cost_range[0], spec.cost_range[1] + 1, size=count)
    fixed = rng.integers(spec.fc_range[0], spec.fc_range[1] + 1, size=count)
    if spec.fc_count is not None and spec.fc_count < count:
        if spec.fc_count < 0:
            raise InfeasibleSpec("fc_count must be nonnegative")
        charged = rng.choice(count, size=spec.fc_count, replace=False)
        mask = np.zeros(count, dtype=bool)
        mask[charged] = True
        fixed = np.where(mask, fixed, 0)
    caps = np.minimum.outer(sup, dem).reshape(-1)
    # Arc i * n + k runs from source i to sink k.
    tail = np.repeat(np.arange(m), n)
    head = m + np.tile(np.arange(n), m)
    return validate(NetworkProblem(np.concatenate([sup, -dem]), tail, head, costs, fixed, caps))


def generate_netgen_fc(spec: NetgenFcSpec) -> NetworkProblem:
    """Connected transshipment instance with a feasibility-guaranteeing skeleton.

    Supplies and demands sit on disjoint pure source/sink node sets; a
    northwest-corner pairing routed through the transshipment nodes forms the
    skeleton, whose capacities are drawn from the declared range at or above
    the routed flow. Remaining arcs are sampled uniformly without duplicates.
    """
    N, s, t = spec.nodes, spec.source_count, spec.sink_count
    if s < 1 or t < 1 or s + t > N:
        raise InfeasibleSpec("source/sink counts must be positive and fit the node count")
    if spec.seed < 0:
        raise InfeasibleSpec(f"seed {spec.seed} is negative")
    if spec.arc_count < N - 1:
        raise InfeasibleSpec(f"arc count {spec.arc_count} below spanning minimum {N - 1}")
    if spec.arc_count > N * (N - 1):
        raise InfeasibleSpec("arc count exceeds simple-digraph maximum")
    _check_range("cost", spec.cost_range)
    _check_range("fixed-charge", spec.fc_range)
    _check_range("capacity", spec.cap_range)
    cap_lo, cap_hi = spec.cap_range
    if spec.total_supply > spec.arc_count * cap_hi:  # the skeleton could not carry it
        raise InfeasibleSpec(f"total supply {spec.total_supply} exceeds arc count times {cap_hi}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))

    sources = list(range(s))
    mids = list(range(s, N - t))
    sinks = list(range(N - t, N))
    sup = _partition(rng, spec.total_supply, s)
    dem = _partition(rng, spec.total_supply, t)

    # Chunked northwest-corner pairing: every chunk carries at most cap_hi so
    # skeleton capacities fit the declared range even when a node's supply
    # exceeds it. Consecutive pairings share a source or a sink (a zero-flow
    # link bridges a simultaneous exhaust), so the skeleton is connected.
    pairs = []
    rs, rd = sup.copy(), dem.copy()
    k = 0
    pending_link = None
    for i in range(s):
        if pending_link is not None:
            pairs.append((i, pending_link, 0))
            pending_link = None
        while rs[i] > 0:
            while rd[k] == 0:
                k = (k + 1) % t
            f = int(min(rs[i], rd[k], cap_hi))
            pairs.append((i, k, f))
            rs[i] -= f
            rd[k] -= f
            if f == cap_hi and rs[i] > 0 and rd[k] > 0:
                k = (k + 1) % t  # spread capacity-limited chunks over sinks
            elif rs[i] == 0 and rd[k] == 0:
                pending_link = k

    skeleton: dict = {}

    def _add_skel(u, v, f):
        key = (u, v)
        skeleton[key] = skeleton.get(key, 0) + f

    if mids:
        # Route each chunk through a relay node, advancing round-robin but
        # skipping relays whose arcs would overflow the capacity range.
        mid_order = [mids[int(x)] for x in rng.permutation(len(mids))]
        n_mid = len(mid_order)
        ptr = 0
        used_mids = set()
        for i, k, f in pairs:
            placed = False
            for tries in range(n_mid):
                w = mid_order[(ptr + tries) % n_mid]
                if (skeleton.get((sources[i], w), 0) + f <= cap_hi
                        and skeleton.get((w, sinks[k]), 0) + f <= cap_hi):
                    _add_skel(sources[i], w, f)
                    _add_skel(w, sinks[k], f)
                    used_mids.add(w)
                    ptr = (ptr + tries + 1) % n_mid
                    placed = True
                    break
            if not placed:
                raise InfeasibleSpec("no relay node can absorb a skeleton chunk; "
                                     "raise cap_range or node count")
        rr = 0
        for w in mid_order:
            if w not in used_mids:
                _add_skel(sources[rr % s], w, 0)
                rr += 1
    else:
        for i, k, f in pairs:
            _add_skel(sources[i], sinks[k], f)

    if len(skeleton) > spec.arc_count:
        raise InfeasibleSpec(f"arc budget {spec.arc_count} below skeleton size {len(skeleton)}")
    over = [f for f in skeleton.values() if f > cap_hi]
    if over:
        raise InfeasibleSpec("skeleton flow exceeds the capacity range; raise cap_range")

    used = {u * N + v for (u, v) in skeleton}
    extra_needed = spec.arc_count - len(skeleton)
    extra_codes = []
    while len(extra_codes) < extra_needed:
        batch = max(1024, 2 * (extra_needed - len(extra_codes)))
        us = rng.integers(0, N, size=batch)
        vs = rng.integers(0, N, size=batch)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            code = u * N + v
            if code in used:
                continue
            used.add(code)
            extra_codes.append(code)
            if len(extra_codes) == extra_needed:
                break

    # Skeleton arcs first, in insertion order, then the sampled extras.
    skel_flow = np.fromiter(skeleton.values(), dtype=np.int64, count=len(skeleton))
    skel_lo = np.maximum(skel_flow, cap_lo)
    skel_caps = rng.integers(skel_lo, cap_hi + 1)
    extra_caps = rng.integers(cap_lo, cap_hi + 1, size=extra_needed)
    total_arcs = len(skeleton) + extra_needed
    costs = rng.integers(spec.cost_range[0], spec.cost_range[1] + 1, size=total_arcs)
    fixed = rng.integers(spec.fc_range[0], spec.fc_range[1] + 1, size=total_arcs)

    codes = np.array([u * N + v for (u, v) in skeleton] + extra_codes, dtype=np.int64)
    supply = np.zeros(N, dtype=np.int64)
    supply[sources] = sup
    supply[sinks] = -dem
    return validate(NetworkProblem(supply, codes // N, codes % N, costs, fixed,
                                   np.concatenate([skel_caps, extra_caps])))
