"""Out-of-program tracing for the benchmark's traced run.

Every public function and method that the workloads reach in the four solver
layers (probio, netcore, gits, oracle) is replaced, for the duration of a
`Tracer` context, by a wrapper that records one span per call: name, start,
end, parent span and the exception name if the call raised. No file of the
package changes. A function is replaced in every `fixnet` module that binds
it, because `gits`, `oracle` and `probio` import `solve_lp`, `reoptimize`,
`fc_objective` and `validate` by name; wrapping only `netcore.<name>` would
leave those calls untimed. Methods are replaced on their class.

`bench` (the CLI) is on no timed path, so it has no span of its own.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name). GhostImageSearch methods are named
# gits.<method>, matching the vocabulary of the search; GhostImageSearch.run
# is the body of gits.run() and carries that name.
TARGETS = [
    ("probio", "generate_fctp", "probio.generate_fctp"),
    ("probio", "write_fcnf", "probio.write_fcnf"),
    ("probio", "parse_fcnf", "probio.parse_fcnf"),
    ("netcore", "validate", "netcore.validate"),
    ("netcore", "default_bigm", "netcore.default_bigm"),
    ("netcore", "fc_objective", "netcore.fc_objective"),
    ("netcore", "solve_lp", "netcore.solve_lp"),
    ("netcore", "reoptimize", "netcore.reoptimize"),
    ("netcore", "evaluate_fc_entering", "netcore.evaluate_fc_entering"),
    ("netcore", "evaluate_all_entering", "netcore.evaluate_all_entering"),
    ("netcore", "pivot", "netcore.pivot"),
    ("netcore", "SimplexState.__init__", "netcore.SimplexState.__init__"),
    ("netcore", "SimplexState.set_costs", "netcore.SimplexState.set_costs"),
    ("netcore", "SimplexState.optimize", "netcore.SimplexState.optimize"),
    ("netcore", "SimplexState.real_flows", "netcore.SimplexState.real_flows"),
    ("netcore", "SimplexState.has_artificial_flow", "netcore.SimplexState.has_artificial_flow"),
    ("netcore", "SimplexState.copy", "netcore.SimplexState.copy"),
    ("gits", "build_penalties", "gits.build_penalties"),
    ("gits", "v_update", "gits.v_update"),
    ("gits", "GhostImageSearch.__init__", "gits.GhostImageSearch.__init__"),
    ("gits", "GhostImageSearch.run", "gits.run"),
    ("gits", "GhostImageSearch.phase1_restrict", "gits.phase1_restrict"),
    ("gits", "GhostImageSearch.inside_loop", "gits.inside_loop"),
    ("gits", "GhostImageSearch.pivot_jstar", "gits.pivot_jstar"),
    ("gits", "GhostImageSearch.descend_step", "gits.descend_step"),
    ("gits", "GhostImageSearch.mini_diversify", "gits.mini_diversify"),
    ("gits", "GhostImageSearch.dup_check", "gits.dup_check"),
    ("gits", "GhostImageSearch.diversify", "gits.diversify"),
    ("oracle", "brute_force_opt", "oracle.brute_force_opt"),
    ("oracle", "check_solution", "oracle.check_solution"),
]

LAYERS = ("probio", "netcore", "gits", "oracle")


def _count_optimize(args, out):
    return {"pivots": int(out)}


def _count_sweep(args, out):
    cand, _delta, _xoj, admissible = out
    return {"candidates": int(cand.size), "admissible": int(admissible.sum())}


def _count_pivot(args, out):
    ev = args[1]
    return {"degenerate": int(ev.delta == 0), "improving": int(ev.objective_delta < 0)}


def _count_oracle(args, out):
    return {"subsets_explored": int(out.subsets_explored)}


def _count_run(args, out):
    return {"outside_iters": out.outside_iters, "inside_iters": out.inside_iters,
            "passes_used": out.passes_used, "total_pivots": out.total_pivots}


def _count_parse(args, out):
    return {"arcs": out.arc_count}


# Span name -> function of (call args, return value) giving counts to add up.
COUNTERS = {
    "netcore.SimplexState.optimize": _count_optimize,
    "netcore.evaluate_all_entering": _count_sweep,
    "netcore.pivot": _count_pivot,
    "oracle.brute_force_opt": _count_oracle,
    "gits.run": _count_run,
    "probio.parse_fcnf": _count_parse,
}


def _fixnet_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fixnet" or name.startswith("fixnet."))]


class Tracer:
    """Context manager that wraps the targets, records spans, then restores them.

    Spans are kept in memory as [name, parent index, start, end, error name]
    and written out by `dump`.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, parent, start, end, err]
            if counter is not None:
                for key, val in counter(args, out).items():
                    counts[name][key] += val
            return out

        return traced

    def __enter__(self):
        mods = {m.__name__: m for m in _fixnet_modules()}
        for mod_name, path, name in TARGETS:
            owner = mods["fixnet." + mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name)
            if cls_path:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # A module-level function: replace every binding of it.
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- aggregation ----------------------------------------------------------

    def summary(self):
        """Per-name calls, inclusive seconds, self seconds, errors by name,
        the set of (parent name, child name) edges, and per-name counters."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        errors = defaultdict(lambda: defaultdict(int))
        edges = set()
        for name, parent, start, end, err in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            if err is not None:
                errors[name][err] += 1
            if parent >= 0:
                child_time[parent] += dur
                edges.add((self.spans[parent][0], name))
        self_s = defaultdict(float)
        for i, (name, _parent, start, end, _err) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
        return {"calls": calls, "incl": incl, "self": self_s, "errors": errors,
                "edges": edges, "counts": self.counts}

    def errors_under(self, child: str, parent: str, err: str) -> int:
        """Calls of `child` made directly by `parent` that raised `err`."""
        return sum(1 for name, p, _s, _e, e in self.spans
                   if name == child and e == err and p >= 0 and self.spans[p][0] == parent)

    def dump(self, path):
        """Write the spans as gzip JSON lines: a header, then one array per span
        [index, parent index, name, start, end, error]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans),
                                 "clock": "time.perf_counter"}) + "\n")
            for i, (name, parent, start, end, err) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, err]) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    probe = Tracer("calibration")
    wrapped = probe._wrap(noop, "calibration.noop")
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped()
    return max(clock() - t0 - bare, 0.0) / calls
