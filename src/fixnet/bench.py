"""Command-line harness: solve instances, generate benchmark suites, compare
against the exact oracle and emit CSV result tables.

    fixnet solve <file.fcnf> [--param K=V ...] [--solution out.sol]
    fixnet generate --suite testset2 --out-dir instances/
    fixnet bench instances/ --oracle --output results.csv
    fixnet oracle <file.fcnf>

The FIXNET_CONFIG environment variable names a default key=value config file.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path

from . import gits, oracle, probio
from .netcore import FixnetError, Infeasible, NetworkProblem, OutOfExactRange

CSV_COLUMNS = [
    "instance",
    "nodes",
    "arcs",
    "fc_lo",
    "fc_hi",
    "best_z",
    "time_sec",
    "oracle_z",
    "z_ratio",
    "passes",
    "pivots",
]

# Benchmark family one: dense transportation grid, (sources, sinks) -> total supply.
TS1_DIMENSIONS = [
    (10, 10, 10000),
    (10, 20, 15000),
    (15, 15, 15000),
    (10, 30, 15000),
    (50, 50, 50000),
    (30, 100, 30000),
    (50, 100, 50000),
]
TS1_SUPPLY = {(m, n): s for (m, n, s) in TS1_DIMENSIONS}
FC_TYPES = {
    "A": (50, 200),
    "B": (100, 400),
    "C": (200, 800),
    "D": (400, 1600),
    "E": (800, 3200),
    "F": (1600, 6400),
    "G": (3200, 12800),
    "H": (6400, 25600),
}

# Benchmark family two: full factorial transshipment design.
TS2_NODES = [500, 1000, 3000, 5000]
TS2_STRUCTURES = [(0.30, 0.70), (0.20, 0.20)]  # transportation, transshipment
TS2_ARCS = [10000, 50000, 100000]
TS2_SUPPLY = [100000, 500000]
TS2_FC = [(20, 200), (1600, 6400)]


def _load_params(args) -> gits.Params:
    params = gits.Params()
    env_cfg = os.environ.get("FIXNET_CONFIG")
    if env_cfg:
        params = gits.params_from_config(Path(env_cfg).read_text(), base=params)
    if args.config:
        params = gits.params_from_config(Path(args.config).read_text(), base=params)
    return gits.apply_overrides(params, args.param)


def _fc_span(problem: NetworkProblem):
    charged = problem.fixed[problem.fixed > 0]
    if not charged.size:
        return 0, 0
    return int(charged.min()), int(charged.max())


def _format_row(rec: dict) -> list:
    out = []
    for col in CSV_COLUMNS:
        val = rec.get(col, "")
        if val is None:
            val = ""
        if isinstance(val, float):
            val = f"{val:.6f}" if col == "z_ratio" else f"{val:.3f}"
        out.append(val)
    return out


def _write_csv(rows, output):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in rows:
        writer.writerow(_format_row(rec))
    text = buf.getvalue()
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _output_error(exc: OSError) -> int:
    """Report an output file that cannot be written; its exit code is 2."""
    where = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    print(f"error: {where}", file=sys.stderr)
    return 2


def _write_solution(path, problem: NetworkProblem, flows, value) -> None:
    lines = [f"s {value}"]
    for t, h, x in zip(problem.tail.tolist(), problem.head.tolist(), flows):
        lines.append(f"f {t + 1} {h + 1} {int(x)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _solve_record(name: str, problem: NetworkProblem, params: gits.Params):
    result = gits.run(problem, params)
    lo, hi = _fc_span(problem)
    rec = {
        "instance": name,
        "nodes": problem.node_count,
        "arcs": problem.arc_count,
        "fc_lo": lo,
        "fc_hi": hi,
        "best_z": result.best_value,
        "time_sec": round(result.elapsed, 3),
        "oracle_z": "",
        "z_ratio": "",
        "passes": result.passes_used,
        "pivots": result.total_pivots,
    }
    return rec, result


def cmd_solve(args) -> int:
    try:
        params = _load_params(args)
        problem = probio.parse_fcnf(Path(args.input).read_text())
    except (OSError, FixnetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rec, result = _solve_record(Path(args.input).stem, problem, params)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    solution_path = args.solution or (str(args.input) + ".sol")
    try:
        _write_solution(solution_path, problem, result.best_flows, result.best_value)
        _write_csv([rec], args.output)
    except OSError as exc:
        return _output_error(exc)
    return 0


def _suite_testset1(base_seed: int, count: int):
    ordinal = 0
    for m, n, total in TS1_DIMENSIONS:
        for label, fc_range in FC_TYPES.items():
            for idx in range(count):
                spec = probio.FctpSpec(
                    sources=m,
                    sinks=n,
                    total_supply=total,
                    fc_range=fc_range,
                    seed=base_seed + ordinal,
                )
                yield f"ts1_{m}x{n}_{label}_{idx + 1}", spec
                ordinal += 1


def _suite_testset2(base_seed: int):
    prob_id = 1001
    ordinal = 0
    for nodes in TS2_NODES:
        for src_frac, snk_frac in TS2_STRUCTURES:
            for arc_count in TS2_ARCS:
                for total in TS2_SUPPLY:
                    for fc_range in TS2_FC:
                        spec = probio.NetgenFcSpec(
                            nodes=nodes,
                            source_count=int(nodes * src_frac),
                            sink_count=int(nodes * snk_frac),
                            arc_count=arc_count,
                            total_supply=total,
                            fc_range=fc_range,
                            seed=base_seed + ordinal,
                        )
                        yield f"ts2_{prob_id}", spec
                        prob_id += 1
                        ordinal += 1


def cmd_generate(args) -> int:
    # a flag the chosen mode does not read is refused, never silently dropped
    unread = {"--fctp": args.fctp, "--type": args.type, "--supply": args.supply,
              "--count": args.count if args.suite == "testset2" else None}
    given = [flag for flag, value in unread.items() if args.suite and value is not None]
    if given:
        print(f"error: --suite {args.suite} does not take {', '.join(given)}", file=sys.stderr)
        return 2
    count = args.count if args.count is not None else 1
    fc_type = args.type or "A"
    if count < 1:
        print(f"error: --count must be at least 1, got {count}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    base_seed = args.seed if args.seed is not None else 0
    jobs = []
    if args.suite == "testset1":
        jobs = list(_suite_testset1(base_seed, count))
    elif args.suite == "testset2":
        jobs = list(_suite_testset2(base_seed))
    elif args.fctp:
        try:
            m, n = (int(x) for x in args.fctp.lower().split("x"))
        except ValueError:
            print(f"error: --fctp expects MxN, got {args.fctp!r}", file=sys.stderr)
            return 2
        total = (args.supply if args.supply is not None
                 else TS1_SUPPLY.get((m, n)) or 100 * max(m, n))
        for idx in range(count):
            spec = probio.FctpSpec(sources=m, sinks=n, total_supply=total,
                                   fc_range=FC_TYPES[fc_type], seed=base_seed + idx)
            jobs.append((f"fctp_{m}x{n}_{fc_type}_{idx + 1}", spec))
    else:
        print("error: provide --suite or --fctp", file=sys.stderr)
        return 2
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, spec in jobs:
            if isinstance(spec, probio.FctpSpec):
                problem = probio.generate_fctp(spec)
                header = (
                    f"fctp {spec.sources}x{spec.sinks} supply {spec.total_supply} "
                    f"fc [{spec.fc_range[0]},{spec.fc_range[1]}] seed {spec.seed}"
                )
            else:
                problem = probio.generate_netgen_fc(spec)
                header = (
                    f"netgen-fc nodes {spec.nodes} src {spec.source_count} "
                    f"snk {spec.sink_count} arcs {spec.arc_count} "
                    f"supply {spec.total_supply} fc [{spec.fc_range[0]},{spec.fc_range[1]}] "
                    f"seed {spec.seed}"
                )
            path = out_dir / f"{name}.fcnf"
            path.write_text(probio.write_fcnf(problem, comments=(header,)))
            print(path)
    except OSError as exc:
        return _output_error(exc)
    except (probio.InfeasibleSpec, OutOfExactRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _bench_one(path_str: str, params: gits.Params, use_oracle: bool, fc_limit: int):
    name = Path(path_str).stem
    try:
        problem = probio.parse_fcnf(Path(path_str).read_text())
    except (OSError, FixnetError, ValueError) as exc:
        return {"instance": name}, f"{name}: {exc}"
    try:
        rec, result = _solve_record(name, problem, params)
    except Infeasible as exc:
        return {"instance": name, "nodes": problem.node_count, "arcs": problem.arc_count}, \
            f"{name}: infeasible ({exc})"
    if use_oracle:
        try:
            opt = oracle.brute_force_opt(problem, max_fc_arcs=fc_limit)
        except oracle.TooLarge as exc:
            return rec, f"{name}: {exc}"
        rec["oracle_z"] = opt.optimum
        rec["z_ratio"] = (
            result.best_value / opt.optimum if opt.optimum
            else (1.0 if result.best_value == 0 else float("inf"))
        )
    return rec, None


def _summary_row(rows):
    summary = {"instance": "average"}
    for col in CSV_COLUMNS[1:]:
        vals = [r[col] for r in rows if isinstance(r.get(col), (int, float))]
        if vals:
            summary[col] = float(sum(vals)) / len(vals)
    return summary


def cmd_bench(args) -> int:
    try:
        params = _load_params(args)
        if not Path(args.directory).is_dir():
            raise NotADirectoryError(f"{args.directory} is not a directory")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    files = sorted(str(p) for p in Path(args.directory).glob("*.fcnf"))
    rows = []
    errors = []
    for f in files:
        rec, err = _bench_one(f, params, args.oracle, args.max_fc_arcs)
        rows.append(rec)
        if err:
            errors.append(err)
    solved = [r for r in rows if isinstance(r.get("best_z"), (int, float))]
    if solved:
        rows.append(_summary_row(solved))
    try:
        _write_csv(rows, args.output)
    except OSError as exc:
        return _output_error(exc)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    try:
        problem = probio.parse_fcnf(Path(args.input).read_text())
    except (OSError, FixnetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = oracle.brute_force_opt(problem, max_fc_arcs=args.max_fc_arcs)
    except oracle.TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    print(f"optimum={result.optimum} subsets_explored={result.subsets_explored}")
    if args.solution:
        try:
            _write_solution(args.solution, problem, result.witness_flows, result.optimum)
        except OSError as exc:
            return _output_error(exc)
    return 0


def _add_common(parser):
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="override a Params field (repeatable)")
    parser.add_argument("--config", default=None, help="key=value parameter file")
    parser.add_argument("--output", default=None, help="CSV output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixnet", description="Fixed-charge network flow solver and benchmark harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one FCNF instance heuristically")
    p_solve.add_argument("input")
    p_solve.add_argument("--solution", default=None, help="solution file path (default <input>.sol)")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="write benchmark instances")
    p_gen.add_argument("--suite", choices=["testset1", "testset2"], default=None)
    p_gen.add_argument("--fctp", default=None, metavar="MxN",
                       help="one dense transportation shape, e.g. 50x100")
    p_gen.add_argument("--type", choices=sorted(FC_TYPES), default=None,
                       help="fixed-charge range label (default A)")
    p_gen.add_argument("--supply", type=int, default=None)
    p_gen.add_argument("--count", type=int, default=None,
                       help="instances per combination (default 1)")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out-dir", default=".", dest="out_dir")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="solve every FCNF file in a directory")
    p_bench.add_argument("directory")
    p_bench.add_argument("--oracle", action="store_true",
                         help="also run the exact oracle where it fits")
    p_bench.add_argument("--max-fc-arcs", type=int, default=20, dest="max_fc_arcs")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle", help="exact optimum of a small instance")
    p_oracle.add_argument("input")
    p_oracle.add_argument("--max-fc-arcs", type=int, default=20, dest="max_fc_arcs")
    p_oracle.add_argument("--solution", default=None)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
