"""The benchmark workloads: instance recipes, the timed solve, the oracle step
and the untimed correctness gate.

Every instance is fixed by a generator spec and a seed derived from the
benchmark's `--seed`; `--seed 0` gives the instances named in the README.
The solver receives only the instance after an FCNF write/parse round trip.

Work is bounded by iteration counts, never by `Params.TimeLimit`: the time
limit is checked only between outer iterations, so a run under a budget
overruns it and stops at a point that depends on timing, and its best value
does not repeat. `MaxOutsideIter=k` runs k+1 outer iterations (the loop stops
once `jiter > k`); the benchmark reports `RunResult.outside_iters`, not the
parameter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from fixnet import gits, netcore, oracle, probio

# Fixed-charge range of testset1 type H (bench.FC_TYPES["H"]).
FC_TYPE_H = (6400, 25600)


def fctp_dense_specs(seed: int):
    """The criterion-6 instance at seed 0: 50x100 dense grid, type H charges."""
    return [("fctp_50x100_H", probio.FctpSpec(50, 100, total_supply=50000,
                                               fc_range=FC_TYPE_H, seed=6 + seed))]


def small_exact_specs(seed: int):
    """Three each of 4x4, 5x5 and 6x6 with 12 charged arcs (the criterion-1
    family), seeds 9000 + 9 * seed onwards."""
    out = []
    base = 9000 + 9 * seed
    for k, m in enumerate((4, 4, 4, 5, 5, 5, 6, 6, 6)):
        out.append((f"fctp_{m}x{m}_{base + k}",
                    probio.FctpSpec(sources=m, sinks=m, total_supply=100 * m,
                                    cost_range=(3, 8), fc_range=(50, 200),
                                    fc_count=12, seed=base + k)))
    return out


def round_trip(spec):
    """Set-up as a user pays it: generate, write FCNF, parse it back.
    Returns (generated, parsed)."""
    generated = probio.generate_fctp(spec)
    return generated, probio.parse_fcnf(probio.write_fcnf(generated))


class Ledger:
    """Attempted and failed operations of one run, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class Answer:
    """One instance's answer from the timed solve call."""

    flows: np.ndarray
    value: int
    pivots: int
    counts: dict  # trajectory counts that must repeat exactly
    move_log: Optional[list] = None


@dataclass
class GateResult:
    """What the untimed correctness gate measured besides pass/fail."""

    z_ratios: List[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def solve_gits(problem, params, collect_trace: bool) -> Answer:
    if collect_trace:
        engine = gits.GhostImageSearch(problem, params, collect_trace=True)
        res = engine.run()
        log = engine.move_log
    else:
        res = gits.run(problem, params)
        log = None
    counts = {"best_z": int(res.best_value), "total_pivots": res.total_pivots,
              "outside_iters": res.outside_iters, "inside_iters": res.inside_iters,
              "passes_used": res.passes_used}
    return Answer(res.best_flows, int(res.best_value), res.total_pivots, counts, log)


def move_log_sha256(answers: List[Answer]) -> str:
    digest = hashlib.sha256()
    for ans in answers:
        digest.update(json.dumps([[int(v) for v in entry] for entry in ans.move_log])
                      .encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _arrays(problem):
    c = np.array([a.cost for a in problem.arcs], dtype=np.int64)
    f = np.array([a.fixed for a in problem.arcs], dtype=np.int64)
    u = np.array([a.capacity for a in problem.arcs], dtype=np.int64)
    return c, f, u


def _check_answer(ledger: Ledger, label, problem, ans: Answer) -> None:
    rep = oracle.check_solution(problem, ans.flows)
    ledger.expect(rep.feasible and rep.objective == ans.value,
                  f"{label}: check_solution feasible={rep.feasible} objective={rep.objective} "
                  f"!= best_value {ans.value} {rep.violations[:3]}")


def linear_relaxation_bound(problem) -> float:
    """min (c_j + F_j/U_j) x over the flow polytope: a lower bound on the
    fixed-charge optimum, since F_j [x_j > 0] >= F_j x_j / U_j when x_j <= U_j."""
    c, f, u = _arrays(problem)
    w = c + f / np.maximum(u, 1)
    state = netcore.solve_lp(problem, w)
    return float(np.dot(w, state.real_flows()))


def networkx_lp_value(problem) -> Optional[int]:
    """Optimal c.x from networkx.network_simplex, or None without networkx."""
    try:
        import networkx as nx
    except ImportError:
        return None
    g = nx.DiGraph()
    for i, b in enumerate(problem.supply):
        g.add_node(i, demand=-int(b))
    for a in problem.arcs:
        g.add_edge(a.tail, a.head, weight=int(a.cost), capacity=int(a.capacity))
    cost, _flow = nx.network_simplex(g)
    return int(cost)


def gate_dense(ledger, labels, problems, answers, _oracle_out) -> GateResult:
    gate = GateResult()
    for label, problem, ans in zip(labels, problems, answers):
        _check_answer(ledger, label, problem, ans)
        lb = linear_relaxation_bound(problem)
        ledger.expect(lb <= ans.value * (1 + 1e-9), f"{label}: bound {lb} above best_z {ans.value}")
        gate.z_ratios.append(ans.value / lb)
        gate.notes[f"{label}.lower_bound"] = lb
    return gate


def gate_small_exact(ledger, labels, problems, answers, optima) -> GateResult:
    """Sandwich LP <= optimum <= best_z per instance. The LP must be free of
    artificial flow and, where networkx is importable, equal its optimum."""
    gate = GateResult()
    gaps = []
    nx_checked = 0
    for label, problem, ans, opt in zip(labels, problems, answers, optima):
        _check_answer(ledger, label, problem, ans)
        c, _f, _u = _arrays(problem)
        state = netcore.solve_lp(problem, c.tolist())
        ledger.expect(not state.has_artificial_flow(), f"{label}: LP keeps artificial flow")
        lp = int(np.dot(c, state.real_flows()))
        ref = networkx_lp_value(problem)
        if ref is not None:
            nx_checked += 1
            ledger.expect(lp == ref, f"{label}: LP c.x {lp} != networkx {ref}")
        ledger.expect(lp <= opt.optimum <= ans.value,
                      f"{label}: sandwich LP {lp} <= optimum {opt.optimum} <= best_z {ans.value} fails")
        wit = oracle.check_solution(problem, opt.witness_flows)
        ledger.expect(wit.feasible and wit.objective == opt.optimum,
                      f"{label}: oracle witness does not certify optimum {opt.optimum}")
        gate.z_ratios.append(ans.value / opt.optimum)
        gaps.append(ans.value / opt.optimum - 1.0)
    gate.notes["gap_to_opt"] = float(np.mean(gaps))
    gate.notes["optimal"] = sum(1 for g in gaps if g == 0.0)
    gate.notes["networkx_lp_checks"] = nx_checked
    if not nx_checked:
        gate.notes["networkx_skipped"] = "networkx not importable"
    return gate


def _check_only(problem, ans):
    return oracle.check_solution(problem, ans.flows)


def _brute_force(problem, ans):
    """Prove the optimum, then check the answer: on small_exact the oracle
    layer does both."""
    opt = oracle.brute_force_opt(problem, max_fc_arcs=14)
    oracle.check_solution(problem, ans.flows)
    return opt


@dataclass
class Workload:
    name: str
    why: str
    specs: Callable
    params: gits.Params
    oracle_one: Callable  # (problem, answer) -> oracle output, timed as oracle_s
    gate: Callable  # (ledger, labels, problems, answers, oracle outputs) -> GateResult
    # oracle step repeats per round: at least this many, for at least this
    # many seconds, at most this many
    oracle_reps: tuple
    # per-layer metrics whose call count must be nonzero on this workload
    required_calls: tuple
    # (caller span, callee span) pairs proving a by-name binding was wrapped
    required_edges: tuple

    def solve(self, problems, collect_trace: bool = False) -> List[Answer]:
        """The timed call: one gits run per instance."""
        return [solve_gits(p, self.params, collect_trace) for p in problems]

    def oracle_step(self, problems, answers) -> list:
        return [self.oracle_one(p, a) for p, a in zip(problems, answers)]


_GITS_EDGES = (
    ("gits.run", "netcore.solve_lp"),        # gits binds solve_lp by name
    ("gits.run", "netcore.fc_objective"),    # gits binds fc_objective by name
    ("gits.phase1_restrict", "netcore.reoptimize"),  # gits binds reoptimize
    ("gits.GhostImageSearch.__init__", "netcore.validate"),  # gits binds validate
    ("probio.parse_fcnf", "netcore.validate"),  # probio binds validate
)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="fctp_dense",
            why="sweep-bound: shallow bipartite trees, ~2.3k sweeps of ~4.9k candidates",
            specs=fctp_dense_specs,
            params=gits.Params(),
            oracle_one=_check_only,
            gate=gate_dense,
            oracle_reps=(5, 8.0, 5000),
            required_calls=("probio.generate_fctp", "probio.write_fcnf", "probio.parse_fcnf",
                            "netcore.evaluate_all_entering", "netcore.pivot",
                            "netcore.SimplexState.optimize", "gits.run", "gits.inside_loop",
                            "gits.phase1_restrict", "gits.build_penalties",
                            "oracle.check_solution"),
            required_edges=_GITS_EDGES,
        ),
        Workload(
            name="small_exact",
            why="per-call overhead on tiny arrays; quality against a proven optimum",
            specs=small_exact_specs,
            params=gits.Params(),
            oracle_one=_brute_force,
            gate=gate_small_exact,
            oracle_reps=(1, 0.0, 1),
            required_calls=("netcore.reoptimize", "netcore.SimplexState.set_costs",
                            "netcore.fc_objective", "oracle.brute_force_opt"),
            required_edges=_GITS_EDGES + (
                ("oracle.brute_force_opt", "netcore.validate"),   # oracle binds validate
                ("oracle.brute_force_opt", "netcore.solve_lp"),   # oracle binds solve_lp
                ("oracle.brute_force_opt", "netcore.reoptimize"),  # oracle binds reoptimize
                ("oracle.brute_force_opt", "netcore.fc_objective"),  # oracle binds fc_objective
            ),
        ),
    ]
}
