"""fixnet benchmark: one workload per invocation, in one single-threaded process.

    python3 perfbench/run.py --workload fctp_dense --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
separate traced run. Each invocation also writes a result file (metrics,
samples, fingerprints, machine metadata) under `perfbench/results/`.
See perfbench/README.md for the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer, span_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Single-threaded numeric libraries; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def repeat(op, ledger, label, min_reps, min_total, max_reps, check=None):
    """Run `op` at least `min_reps` times and until `min_total` seconds are
    spent (at most `max_reps`). Returns the per-call seconds and the last
    output. `check` runs outside the timed region."""
    samples, out = [], None
    while True:
        t0 = time.perf_counter()
        out = op()
        samples.append(time.perf_counter() - t0)
        ledger.expect(check is None or check(out), f"{label}: check failed")
        if len(samples) >= max_reps or (len(samples) >= min_reps and sum(samples) >= min_total):
            return samples, out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fixnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_fingerprint(key: str, fingerprint: dict, ledger) -> None:
    """Compare with what earlier invocations of the same workload, seed and
    source recorded; any difference is drift and counts as a failure."""
    path = RESULTS / "fingerprints.json"
    registry = json.loads(path.read_text()) if path.exists() else {}
    known = registry.get(key, {})
    for field, value in fingerprint.items():
        ledger.expect(field not in known or known[field] == value,
                      f"fingerprint drift in {field}: {known.get(field)} -> {value}")
    registry[key] = {**known, **fingerprint}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, path)


def layer_metrics(tracer, overhead_s):
    """Per-layer metrics from the traced run's spans. `.s` is inclusive wall
    time summed over calls, `.self_s` excludes time in child spans."""
    sm = tracer.summary()
    calls, incl, selfs, counts = sm["calls"], sm["incl"], sm["self"], sm["counts"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    opt, sweep = "netcore.SimplexState.optimize", "netcore.evaluate_all_entering"
    piv, reopt = "netcore.pivot", "netcore.reoptimize"
    parse = "probio.parse_fcnf"
    explored = counts["oracle.brute_force_opt"]["subsets_explored"]
    skipped = tracer.errors_under(reopt, "oracle.brute_force_opt", "Infeasible")
    m = {
        "probio.generate.s": (incl["probio.generate_fctp"], "s"),
        "probio.write_fcnf.s": (incl["probio.write_fcnf"], "s"),
        "probio.parse_fcnf.s": (incl[parse], "s"),
        "probio.parse_fcnf.arcs_per_s": (ratio(counts[parse]["arcs"], incl[parse]), "1/s"),
        f"{opt}.s": (incl[opt], "s"),
        f"{opt}.calls": (calls[opt], "count"),
        f"{opt}.pivots": (counts[opt]["pivots"], "count"),
        f"{opt}.us_per_pivot": (ratio(incl[opt], counts[opt]["pivots"], 1e6), "us"),
        f"{sweep}.s": (incl[sweep], "s"),
        f"{sweep}.calls": (calls[sweep], "count"),
        f"{sweep}.candidates": (counts[sweep]["candidates"], "count"),
        f"{sweep}.us_per_candidate": (ratio(incl[sweep], counts[sweep]["candidates"], 1e6), "us"),
        f"{sweep}.admissible_frac": (ratio(counts[sweep]["admissible"],
                                           counts[sweep]["candidates"]), "ratio"),
        f"{piv}.s": (incl[piv], "s"),
        f"{piv}.calls": (calls[piv], "count"),
        f"{piv}.degenerate_frac": (ratio(counts[piv]["degenerate"], calls[piv]), "ratio"),
        f"{piv}.improving_frac": (ratio(counts[piv]["improving"], calls[piv]), "ratio"),
        f"{reopt}.s": (incl[reopt], "s"),
        f"{reopt}.calls": (calls[reopt], "count"),
        f"{reopt}.failed": (sm["errors"][reopt]["Infeasible"], "count"),
        "netcore.SimplexState.set_costs.s": (incl["netcore.SimplexState.set_costs"], "s"),
        "netcore.SimplexState.set_costs.calls": (calls["netcore.SimplexState.set_costs"], "count"),
        "netcore.fc_objective.s": (incl["netcore.fc_objective"], "s"),
        "netcore.fc_objective.calls": (calls["netcore.fc_objective"], "count"),
        "netcore.solve_lp.s": (incl["netcore.solve_lp"], "s"),
        "netcore.SimplexState.__init__.s": (incl["netcore.SimplexState.__init__"], "s"),
        "netcore.evaluate_fc_entering.s": (incl["netcore.evaluate_fc_entering"], "s"),
        "netcore.evaluate_fc_entering.calls": (calls["netcore.evaluate_fc_entering"], "count"),
        "netcore.validate.s": (incl["netcore.validate"], "s"),
        "gits.run.self_s": (selfs["gits.run"], "s"),
        "gits.inside_loop.self_s": (selfs["gits.inside_loop"], "s"),
        "gits.phase1_restrict.s": (incl["gits.phase1_restrict"], "s"),
        "gits.phase1_restrict.calls": (calls["gits.phase1_restrict"], "count"),
        "gits.build_penalties.s": (incl["gits.build_penalties"], "s"),
        "gits.dup_check.calls": (calls["gits.dup_check"], "count"),
        "gits.diversify.calls": (calls["gits.diversify"], "count"),
        "gits.mini_diversify.calls": (calls["gits.mini_diversify"], "count"),
        "oracle.brute_force_opt.self_s": (selfs["oracle.brute_force_opt"], "s"),
        "oracle.subsets_explored": (explored, "count"),
        "oracle.lp_skipped_frac": (ratio(skipped, explored), "ratio"),
        "oracle.check_solution.s": (incl["oracle.check_solution"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wrapper_s": (len(tracer.spans) * span_cost(), "s"),
    }
    for key in ("outside_iters", "inside_iters", "passes_used", "total_pivots"):
        m[f"gits.{key}"] = (counts["gits.run"][key], "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in selfs.items() if k.startswith(layer + ".")), "s")
    return m, sm


def self_check(wl, summary, ledger):
    """Every per-layer callable the workload is meant to move must have been
    called, and every by-name binding must have produced a child span."""
    for name in wl.required_calls:
        ledger.expect(summary["calls"][name] > 0, f"self-check: {name} has no calls")
    for parent, child in wl.required_edges:
        ledger.expect((parent, child) in summary["edges"],
                      f"self-check: no {child} span under {parent}; binding not wrapped")


def same_instance(pairs):
    return all(gen == parsed for gen, parsed in pairs)


def run_timed(wl, labels, setup_op, seconds, ledger, record):
    """The untraced run behind the end-to-end metrics (`ok_frac` is added by
    the caller once every check has run).

    A round is what a user does: set up the instances, solve them, check the
    answers with the oracle. Rounds repeat for `seconds`; at least two run,
    and a further one is not started when the median round so far would end
    past the window. Each round gives one sample per metric, the mean call
    time of its set-up and oracle repetitions, so every metric is sampled
    across the whole run rather than in one slice of it: steadier on a host
    whose speed drifts over seconds.
    """
    setup_samples, solve_samples, oracle_samples, round_s = [], [], [], []
    rounds = []
    start = time.perf_counter()
    while len(round_s) < 2 or time.perf_counter() - start + statistics.median(round_s) <= seconds:
        r0 = time.perf_counter()
        samples, pairs = repeat(setup_op, ledger, "setup", 5, 0.5, 500, same_instance)
        setup_samples.append(statistics.fmean(samples))
        problems = [parsed for _, parsed in pairs]
        del pairs
        t0 = time.perf_counter()
        try:
            answers = wl.solve(problems)
        except Exception as exc:  # a failed solve is counted, the run goes on
            ledger.expect(False, f"solve: {type(exc).__name__}: {exc}")
        else:
            solve_samples.append(time.perf_counter() - t0)
            ledger.expect(True, "solve")
            samples, oracle_out = repeat(
                lambda: wl.oracle_step(problems, answers),
                ledger, "oracle", *wl.oracle_reps)
            oracle_samples.append(statistics.fmean(samples))
            rounds.append((problems, answers, oracle_out))
        round_s.append(time.perf_counter() - r0)
    if not rounds:
        raise SystemExit("error: no solve call succeeded: " + "; ".join(ledger.failures))
    rss = peak_rss_mib()
    problems, answers, oracle_out = rounds[0]
    first_counts = [a.counts for a in answers]
    for _, other, _ in rounds[1:]:
        ledger.expect([a.counts for a in other] == first_counts,
                      "repeated solve gave another trajectory")
    gate = wl.gate(ledger, labels, problems, answers, oracle_out)
    solve_s = statistics.median(solve_samples)
    metrics = {
        "solve_s": (solve_s, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "oracle_s": (statistics.median(oracle_samples), "s"),
        "pivots_per_s": (sum(a.pivots for a in answers) / solve_s, "1/s"),
        "best_z": (sum(a.value for a in answers), "cost"),
        "z_ratio": (statistics.fmean(gate.z_ratios), "ratio"),
        "peak_rss_mb": (rss, "MiB"),
    }
    record["samples"] = {"solve_s": solve_samples, "setup_s": setup_samples,
                         "oracle_s": oracle_samples, "round_s": round_s}
    record["solve_s_max"] = max(solve_samples)
    return metrics, gate, {"instances": dict(zip(labels, first_counts))}


def run_traced(wl, labels, setup_op, run_id, ledger, record):
    """One untraced solve, then set-up, solve and oracle step under the tracer."""
    from workloads import move_log_sha256

    _, pairs = repeat(setup_op, ledger, "setup", 1, 0.0, 1, same_instance)
    problems = [parsed for _, parsed in pairs]
    t0 = time.perf_counter()
    plain = wl.solve(problems)
    untraced_s = time.perf_counter() - t0
    with Tracer(run_id) as tracer:
        pairs = setup_op()
        problems = [parsed for _, parsed in pairs]
        t0 = time.perf_counter()
        answers = wl.solve(problems, collect_trace=True)
        traced_s = time.perf_counter() - t0
        oracle_out = wl.oracle_step(problems, answers)
    ledger.expect(same_instance(pairs), "traced setup: parsed instance differs")
    ledger.expect([a.counts for a in answers] == [a.counts for a in plain],
                  "traced solve gave another trajectory than the untraced one")
    gate = wl.gate(ledger, labels, problems, answers, oracle_out)
    fingerprint = {"instances": dict(zip(labels, [a.counts for a in answers])),
                   "move_log_sha256": move_log_sha256(answers)}
    metrics, summary = layer_metrics(tracer, traced_s - untraced_s)
    self_check(wl, summary, ledger)
    tracer.dump(RESULTS / f"{wl.name}-seed{record['seed']}-trace1-{run_id}.spans.jsonl.gz")
    record["untraced_solve_s"] = untraced_s
    record["traced_solve_s"] = traced_s
    return metrics, gate, fingerprint


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "fixnet" / "__init__.py").is_file():
        print(f"error: no fixnet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import fixnet
    from workloads import WORKLOADS, Ledger, round_trip

    if Path(fixnet.__file__).resolve().parent != (SRC / "fixnet").resolve():
        print(f"error: imported fixnet from {fixnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    specs = wl.specs(args.seed)
    labels = [label for label, _ in specs]
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    ledger = Ledger()
    RESULTS.mkdir(exist_ok=True)
    record = {
        "run_id": run_id,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": {label: {"spec": repr(spec), "seed": spec.seed} for label, spec in specs},
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "networkx_present": importlib.util.find_spec("networkx") is not None,
        },
        "code_sha256": code_hash(),
    }

    def setup_op():
        return [round_trip(spec) for _, spec in specs]

    if args.trace == 0:
        metrics, gate, fingerprint = run_timed(wl, labels, setup_op, args.seconds, ledger, record)
    else:
        metrics, gate, fingerprint = run_traced(wl, labels, setup_op, run_id, ledger, record)
    check_fingerprint(f"{wl.name}/seed={args.seed}/code={record['code_sha256'][:16]}",
                      fingerprint, ledger)
    attempted, failed = ledger.attempted, len(ledger.failures)
    record["fail_frac"] = failed / attempted
    if args.trace == 0:
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
        expected = [m["name"] for m in manifest["end_to_end"]]
    else:
        expected = [m["name"] for m in manifest["per_layer"]]
    if sorted(expected) != sorted(metrics):
        print("error: BENCHMARK.json and perfbench/run.py name different metrics: "
              f"{sorted(set(expected) ^ set(metrics))}", file=sys.stderr)
        return 1

    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  attempted=attempted, failed=failed, failures=ledger.failures,
                  gate_notes=gate.notes, fingerprint=fingerprint)
    out_path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{run_id}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"# fixnet benchmark {wl.name} seed={args.seed} trace={args.trace} "
          f"instances={','.join(labels)}")
    if args.trace == 0:
        n = {k: len(v) for k, v in record["samples"].items()}
        print(f"# {n['round_s']} rounds; medians of {n['solve_s']} solve, {n['setup_s']} set-up "
              f"and {n['oracle_s']} oracle sample(s); highest solve_s {record['solve_s_max']!r}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r:>24} {unit}")
    for key, value in gate.notes.items():
        print(f"# {key} = {value}")
    for msg in ledger.failures:
        print(f"# FAILED: {msg}")
    print(f"# result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
