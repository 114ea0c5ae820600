import csv
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fixnet import bench, oracle, probio

TWO_NODE = "p fcnf 2 1\nn 1 5\nn 2 -5\na 1 2 0 10 3 100\n"


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == bench.CSV_COLUMNS
    return rows


def run_cli(argv):
    return bench.main(argv)


@pytest.fixture
def two_node_file(tmp_path):
    path = tmp_path / "two.fcnf"
    path.write_text(TWO_NODE)
    return path


# -- solve -------------------------------------------------------------------


def test_solve_forced_flow_record(two_node_file, tmp_path, capsys):
    out = tmp_path / "rec.csv"
    rc = run_cli(["solve", str(two_node_file), "--output", str(out)])
    assert rc == 0
    rows = read_csv(out.read_text())
    assert rows[1][0] == "two"
    assert rows[1][bench.CSV_COLUMNS.index("best_z")] == "115"
    sol = (str(two_node_file) + ".sol")
    lines = Path(sol).read_text().splitlines()
    assert lines[0] == "s 115"
    assert lines[1] == "f 1 2 5"


def test_solve_when_every_flow_costs_more_than_bigm(tmp_path):
    path = tmp_path / "huge.fcnf"
    path.write_text("p fcnf 2 1\nn 1 5\nn 2 -5\na 1 2 0 10 300000000000 0\n")
    out = tmp_path / "rec.csv"
    assert run_cli(["solve", str(path), "--output", str(out)]) == 0
    rows = read_csv(out.read_text())
    assert rows[1][bench.CSV_COLUMNS.index("best_z")] == "1500000000000"
    lines = Path(str(path) + ".sol").read_text().splitlines()
    assert lines == ["s 1500000000000", "f 1 2 5"]
    rep = oracle.check_solution(probio.parse_fcnf(path.read_text()), [5])
    assert rep.feasible and rep.objective == 1500000000000


def test_solve_param_plumbing(two_node_file, tmp_path):
    out = tmp_path / "rec.csv"
    rc = run_cli(["solve", str(two_node_file), "--param", "MaxPass=1",
                  "--output", str(out)])
    assert rc == 0
    rows = read_csv(out.read_text())
    assert int(rows[1][bench.CSV_COLUMNS.index("passes")]) <= 1


def test_solve_seed_determinism(tmp_path):
    spec = probio.FctpSpec(sources=4, sinks=4, total_supply=100, fc_count=8, seed=5)
    path = tmp_path / "inst.fcnf"
    path.write_text(probio.write_fcnf(probio.generate_fctp(spec)))
    outs = []
    for run_idx in range(2):
        out = tmp_path / f"rec{run_idx}.csv"
        rc = run_cli(["solve", str(path), "--output", str(out)])
        assert rc == 0
        outs.append(read_csv(out.read_text())[1])
    time_col = bench.CSV_COLUMNS.index("time_sec")
    a = [v for i, v in enumerate(outs[0]) if i != time_col]
    b = [v for i, v in enumerate(outs[1]) if i != time_col]
    assert a == b


def test_solve_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.fcnf"
    bad.write_text("p fcnf 2 1\nnonsense\n")
    assert run_cli(["solve", str(bad)]) == 2


@pytest.mark.parametrize("arc", ["a 1 2 0 10 100000000000000000000 100",
                                 "a 1 2 0 10000000000000000000 3 100"], ids=["cost", "capacity"])
def test_solve_out_of_range_value_exit_code(tmp_path, arc):
    path = tmp_path / "huge.fcnf"
    path.write_text(f"p fcnf 2 1\nn 1 5\nn 2 -5\n{arc}\n")
    assert run_cli(["solve", str(path)]) == 2


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "inf.fcnf"
    path.write_text("p fcnf 2 1\nn 1 5\nn 2 -5\na 1 2 0 3 3 0\n")
    assert run_cli(["solve", str(path)]) == 3


def path_of_costly_arcs(cost, second_cap=10):
    """Path 1 -> 2 -> 3 carrying 5 units at `cost` per unit on each arc; the
    second arc has capacity `second_cap`, so the path is feasible from 5 on."""
    return f"p fcnf 3 2\nn 1 5\nn 3 -5\na 1 2 0 10 {cost} 0\na 2 3 0 {second_cap} {cost} 0\n"


@pytest.mark.parametrize("cmd", ["solve", "oracle"])
@pytest.mark.parametrize("text,codes,value", [
    # routes outweigh the capped big-M: the LP still solves, but closing arcs
    # by cost in the oracle would be unsound
    (path_of_costly_arcs(1_100_000_000_000), {"solve": 0, "oracle": 2}, 11_000_000_000_000),
    (path_of_costly_arcs(1_100_000_000_000, 4), {"solve": 3, "oracle": 3}, None),
    (path_of_costly_arcs(400_000_000_000), {"solve": 0, "oracle": 0}, 4_000_000_000_000),
    (path_of_costly_arcs(3, 4), {"solve": 3, "oracle": 3}, None),
], ids=["bigm-too-small", "bigm-too-small-infeasible", "bigm-dominates", "infeasible"])
def test_artificial_flow_exit_codes(tmp_path, capsys, cmd, text, codes, value):
    path = tmp_path / "path.fcnf"
    path.write_text(text)
    code = codes[cmd]
    assert run_cli([cmd, str(path)]) == code
    out, err = capsys.readouterr()
    assert err.startswith({0: "", 2: "error: ", 3: "infeasible: "}[code])
    if code == 0 and cmd == "solve":
        lines = Path(str(path) + ".sol").read_text().splitlines()
        assert lines[0] == f"s {value}"
        flows = [int(line.split()[3]) for line in lines[1:]]
        rep = oracle.check_solution(probio.parse_fcnf(text), flows)
        assert rep.feasible and rep.objective == value
    if code == 0 and cmd == "oracle":
        assert f"optimum={value} " in out


# Two arcs from node 1 to node 2 of capacity 10: B = sum |c_j| U_j + sum F_j
# reaches 2^62 through a cost of 2^62 (FOUND), and stays one below it when the
# costly arc's charge is 3 (UNDER, whose supply of 20 fills both arcs).
FOUND = "p fcnf 2 2\nn 1 10\nn 2 -10\na 1 2 0 10 1 0\na 1 2 0 10 4611686018427387904 0\n"
# B = 2^20 + 2^20 (2^42 - 2) + 2^20 - 1 = 2^62 - 1, with a unit cost inside
# the working-cost range
UNDER = ("p fcnf 2 2\nn 1 2097152\nn 2 -2097152\na 1 2 0 1048576 1 0\n"
         "a 1 2 0 1048576 4398046511102 1048575\n")


@pytest.mark.parametrize("cmd", ["solve", "oracle"])
def test_an_objective_bound_of_2_62_exits_2(tmp_path, capsys, cmd):
    path = tmp_path / "found.fcnf"
    path.write_text(FOUND)
    assert run_cli([cmd, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cmd", ["solve", "oracle"])
def test_an_instance_without_a_working_cost_scale_exits_2(tmp_path, capsys, cmd):
    # unit cost 2^53 - 10^12 + 1: max |c_j| + the capped big-M passes 2^53
    path = tmp_path / "unscaled.fcnf"
    path.write_text(f"p fcnf 2 1\nn 1 1\nn 2 -1\na 1 2 0 1 {2**53 - 10**12 + 1} 0\n")
    assert run_cli([cmd, str(path)]) == 2
    assert "no working-cost scale" in capsys.readouterr().err
    assert not Path(str(path) + ".sol").exists()


def test_bench_reports_an_objective_bound_of_2_62_as_error_row(tmp_path, capsys):
    make_small_suite(tmp_path, count=1)
    (tmp_path / "found.fcnf").write_text(FOUND)
    out = tmp_path / "res.csv"
    assert run_cli(["bench", str(tmp_path), "--output", str(out)]) == 0
    assert capsys.readouterr().err.startswith("error: found: ")
    rows = read_csv(out.read_text())
    assert [r[0] for r in rows[1:]] == ["found", "i0", "average"]
    assert rows[1][bench.CSV_COLUMNS.index("best_z")] == ""


def test_bench_reports_an_infeasible_file_as_a_row_with_its_size(tmp_path, capsys):
    make_small_suite(tmp_path, count=1)
    (tmp_path / "inf.fcnf").write_text("p fcnf 2 1\nn 1 5\nn 2 -5\na 1 2 0 3 3 0\n")
    out = tmp_path / "res.csv"
    assert run_cli(["bench", str(tmp_path), "--output", str(out)]) == 0
    assert capsys.readouterr().err.startswith("error: inf: infeasible (")
    rows = read_csv(out.read_text())
    assert [r[0] for r in rows[1:]] == ["i0", "inf", "average"]
    inf = dict(zip(bench.CSV_COLUMNS, rows[2]))
    assert (inf["nodes"], inf["arcs"], inf["best_z"], inf["pivots"]) == ("2", "1", "", "")


def test_bench_z_ratio_of_a_zero_optimum_is_one(tmp_path):
    (tmp_path / "free.fcnf").write_text("p fcnf 2 1\nn 1 5\nn 2 -5\na 1 2 0 10 0 0\n")
    out = tmp_path / "res.csv"
    assert run_cli(["bench", str(tmp_path), "--oracle", "--output", str(out)]) == 0
    row = dict(zip(bench.CSV_COLUMNS, read_csv(out.read_text())[1]))
    assert (row["best_z"], row["oracle_z"], row["z_ratio"]) == ("0", "0", "1.000000")


def test_solve_just_under_the_objective_bound(tmp_path):
    path = tmp_path / "under.fcnf"
    path.write_text(UNDER)
    assert run_cli(["solve", str(path), "--output", str(tmp_path / "rec.csv")]) == 0
    lines = Path(str(path) + ".sol").read_text().splitlines()
    assert lines[0] == f"s {2**62 - 1}"
    flows = [int(line.split()[3]) for line in lines[1:]]
    rep = oracle.check_solution(probio.parse_fcnf(UNDER), flows)
    assert rep.feasible and rep.objective == 2**62 - 1


def test_bench_reports_bigm_too_small_as_error_row(tmp_path, capsys):
    # the solve succeeds; only the oracle refuses the instance
    make_small_suite(tmp_path, count=1)
    (tmp_path / "costly.fcnf").write_text(path_of_costly_arcs(1_100_000_000_000))
    out = tmp_path / "res.csv"
    assert run_cli(["bench", str(tmp_path), "--oracle", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("error: costly: unit costs sum past the capped big-M")
    rows = read_csv(out.read_text())
    assert [r[0] for r in rows[1:]] == ["costly", "i0", "average"]
    assert rows[1][bench.CSV_COLUMNS.index("nodes")] == "3"
    assert rows[1][bench.CSV_COLUMNS.index("best_z")] == "11000000000000"
    assert rows[1][bench.CSV_COLUMNS.index("oracle_z")] == ""
    assert rows[1][bench.CSV_COLUMNS.index("z_ratio")] == ""
    assert rows[2][bench.CSV_COLUMNS.index("oracle_z")] != ""


def test_solve_config_file_and_env(tmp_path, monkeypatch, two_node_file):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("MaxPass=2\n")
    monkeypatch.setenv("FIXNET_CONFIG", str(cfg))
    out = tmp_path / "rec.csv"
    assert run_cli(["solve", str(two_node_file), "--output", str(out)]) == 0
    rows = read_csv(out.read_text())
    assert int(rows[1][bench.CSV_COLUMNS.index("passes")]) <= 2


@pytest.mark.parametrize("cmd", ["solve", "bench"])
@pytest.mark.parametrize("case", ["unknown-param", "removed-param", "out-of-range-param",
                                  "bad-config-line", "missing-env-config"])
def test_bad_parameter_input_exit_code(tmp_path, monkeypatch, capsys, two_node_file, cmd, case):
    target = str(two_node_file) if cmd == "solve" else str(tmp_path)
    argv = [cmd, target]
    if case == "unknown-param":
        argv += ["--param", "Nope=1"]
    elif case == "removed-param":
        argv += ["--param", "TabuTenure=3"]
    elif case == "out-of-range-param":
        argv += ["--param", "MaxIter=0"]
    elif case == "bad-config-line":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("MaxPass 2\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("FIXNET_CONFIG", str(tmp_path / "missing.cfg"))
    assert run_cli(argv + ["--output", str(tmp_path / "rec.csv")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert not (tmp_path / "rec.csv").exists()
    assert not Path(str(two_node_file) + ".sol").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_solve_rejects_a_time_limit_that_is_not_a_finite_budget(two_node_file, tmp_path,
                                                                capsys, value):
    out = tmp_path / "rec.csv"
    assert run_cli(["solve", str(two_node_file), "--param", f"TimeLimit={value}",
                    "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: TimeLimit")
    assert not out.exists()
    assert not Path(str(two_node_file) + ".sol").exists()


@pytest.mark.parametrize("pair", ["Alpha1=nan", "MaxIter=abc"])
def test_solve_refuses_a_parameter_value_that_does_not_parse_to_a_finite_number(
        two_node_file, tmp_path, capsys, pair):
    out = tmp_path / "rec.csv"
    assert run_cli(["solve", str(two_node_file), "--param", pair, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pair.split('=')[0]}")
    assert "Traceback" not in err
    assert not out.exists()
    assert not Path(str(two_node_file) + ".sol").exists()


def test_solve_time_limit_zero_writes_a_solution(two_node_file, tmp_path):
    out = tmp_path / "rec.csv"
    assert run_cli(["solve", str(two_node_file), "--param", "TimeLimit=0",
                    "--output", str(out)]) == 0
    assert read_csv(out.read_text())[1][bench.CSV_COLUMNS.index("best_z")] == "115"
    assert Path(str(two_node_file) + ".sol").read_text().splitlines() == ["s 115", "f 1 2 5"]


# -- generate -----------------------------------------------------------------


def test_generate_single_fctp_shape(tmp_path):
    rc = run_cli(["generate", "--fctp", "4x6", "--type", "H", "--supply", "200",
                  "--count", "2", "--seed", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("*.fcnf"))
    assert len(files) == 2
    p = probio.parse_fcnf(files[0].read_text())
    assert p.arc_count == 24
    assert np.all((6400 <= p.fixed) & (p.fixed <= 25600))


def test_generate_testset1_grid(tmp_path):
    # the full grid is 7 dimensions x 8 types x count
    rc = run_cli(["generate", "--suite", "testset1", "--count", "1",
                  "--seed", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    files = list(tmp_path.glob("ts1_*.fcnf"))
    assert len(files) == 56


def test_generate_requires_a_mode(capsys):
    assert run_cli(["generate"]) == 2


@pytest.mark.parametrize("flags,unread", [
    (["--suite", "testset1", "--type", "H"], "--type"),
    (["--suite", "testset1", "--supply", "5"], "--supply"),
    (["--suite", "testset1", "--fctp", "4x4"], "--fctp"),
    (["--suite", "testset2", "--count", "3"], "--count"),
    (["--suite", "testset2", "--fctp", "4x4", "--type", "A"], "--fctp, --type"),
], ids=["ts1-type", "ts1-supply", "ts1-fctp", "ts2-count", "ts2-fctp-type"])
def test_generate_refuses_a_flag_its_mode_does_not_read(tmp_path, capsys, flags, unread):
    assert run_cli(["generate", *flags, "--out-dir", str(tmp_path)]) == 2
    suite = flags[1]
    assert capsys.readouterr().err == f"error: --suite {suite} does not take {unread}\n"
    assert not list(tmp_path.glob("*.fcnf"))


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--count", "0"], ["--count", "-2"],
                                   ["--count", "0", "--suite", "testset1"]],
                         ids=["seed", "count0", "count-2", "testset1-count0"])
def test_generate_rejects_a_negative_seed_and_a_count_below_one(tmp_path, capsys, flags):
    mode = [] if "--suite" in flags else ["--fctp", "4x4"]
    rc = run_cli(["generate", *mode, "--out-dir", str(tmp_path), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.fcnf"))


@pytest.mark.parametrize("supply", [2**63, 3 * 10**21])
def test_generate_rejects_a_supply_beyond_int64(tmp_path, capsys, supply):
    rc = run_cli(["generate", "--fctp", "4x4", "--supply", str(supply),
                  "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.fcnf"))


@pytest.mark.parametrize("flags", [["--supply", "0"], ["--supply", "-5"],
                                   ["--supply", str(2**63 - 1)], ["--fctp", "4by4"],
                                   ["--fctp", "4x4x4"]],
                         ids=["supply0", "supply-5", "supply-objective-bound", "4by4", "4x4x4"])
def test_generate_rejects_a_supply_or_shape_it_cannot_meet(tmp_path, capsys, flags):
    argv = ["generate", "--fctp", "4x4", "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the partition's float rounding
        assert run_cli(argv + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.fcnf"))


def test_generate_into_a_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(["generate", "--fctp", "4x4", "--out-dir", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == ""


@pytest.mark.parametrize("cmd,flag", [("solve", "--output"), ("solve", "--solution"),
                                      ("oracle", "--solution"), ("bench", "--output")])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, two_node_file,
                                                       cmd, flag):
    target = tmp_path / "missing" / "out"
    source = str(tmp_path) if cmd == "bench" else str(two_node_file)
    assert run_cli([cmd, source, flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ") and "Traceback" not in err
    assert not target.parent.exists()


# -- bench --------------------------------------------------------------------


def test_bench_empty_directory_gives_header_only(tmp_path, capsys):
    rc = run_cli(["bench", str(tmp_path)])
    assert rc == 0
    rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 1


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_bench_on_a_path_that_is_not_a_directory_exits_2(tmp_path, capsys, two_node_file, kind):
    target = tmp_path / "no_such_dir" if kind == "missing" else two_node_file
    out = tmp_path / "rec.csv"
    assert run_cli(["bench", str(target), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert captured.out == "" and not out.exists()


def make_small_suite(tmp_path, count=4):
    for idx in range(count):
        spec = probio.FctpSpec(sources=3, sinks=3, total_supply=30, fc_count=6,
                               seed=100 + idx)
        p = probio.generate_fctp(spec)
        (tmp_path / f"i{idx}.fcnf").write_text(probio.write_fcnf(p))


def test_bench_with_oracle_ratios_and_summary(tmp_path):
    make_small_suite(tmp_path)
    out = tmp_path / "res.csv"
    rc = run_cli(["bench", str(tmp_path), "--oracle", "--output", str(out)])
    assert rc == 0
    rows = read_csv(out.read_text())
    body, summary = rows[1:-1], rows[-1]
    assert summary[0] == "average"
    zcol = bench.CSV_COLUMNS.index("z_ratio")
    bcol = bench.CSV_COLUMNS.index("best_z")
    ratios = [float(r[zcol]) for r in body]
    assert all(r >= 1 - 1e-9 for r in ratios)
    assert float(summary[bcol]) == pytest.approx(
        sum(float(r[bcol]) for r in body) / len(body), abs=1e-6
    )
    assert float(summary[zcol]) == pytest.approx(sum(ratios) / len(ratios), abs=1e-9)


def test_bench_oracle_skips_oversized_instances(tmp_path, capsys):
    spec = probio.FctpSpec(sources=5, sinks=5, total_supply=50, seed=0)  # 25 charged arcs
    (tmp_path / "big.fcnf").write_text(probio.write_fcnf(probio.generate_fctp(spec)))
    out = tmp_path / "res.csv"
    rc = run_cli(["bench", str(tmp_path), "--oracle", "--output", str(out)])
    assert rc == 0
    rows = read_csv(out.read_text())
    assert rows[1][bench.CSV_COLUMNS.index("oracle_z")] == ""
    err = capsys.readouterr().err
    assert err == "error: big: 25 charged arcs exceed the limit 20\n"


def test_bench_records_errors_and_continues(tmp_path, capsys):
    make_small_suite(tmp_path, count=2)
    (tmp_path / "a_broken.fcnf").write_text("p fcnf 1 1\n")
    out = tmp_path / "res.csv"
    rc = run_cli(["bench", str(tmp_path), "--output", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "a_broken" in err
    rows = read_csv(out.read_text())
    assert len(rows) == 1 + 3 + 1  # header, three instances, summary
    assert all(len(r) == len(bench.CSV_COLUMNS) for r in rows)


# -- oracle subcommand -----------------------------------------------------------


def test_oracle_subcommand(two_node_file, capsys):
    rc = run_cli(["oracle", str(two_node_file)])
    assert rc == 0
    out = capsys.readouterr().out
    # the root LP fills the arc halfway, so it branches into two children
    assert out == "optimum=115 subsets_explored=3\n"


def test_oracle_writes_a_solution_that_checks(tmp_path, capsys):
    make_small_suite(tmp_path, count=1)
    problem = probio.parse_fcnf((tmp_path / "i0.fcnf").read_text())
    sol = tmp_path / "i0.sol"
    assert run_cli(["oracle", str(tmp_path / "i0.fcnf"), "--solution", str(sol)]) == 0
    optimum = oracle.brute_force_opt(problem).optimum
    assert f"optimum={optimum} " in capsys.readouterr().out
    lines = sol.read_text().splitlines()
    assert lines[0] == f"s {optimum}"
    flows = [int(line.split()[3]) for line in lines[1:]]
    rep = oracle.check_solution(problem, flows)
    assert rep.feasible and rep.objective == optimum


def test_oracle_subcommand_too_large(tmp_path, capsys):
    spec = probio.FctpSpec(sources=5, sinks=5, total_supply=50, seed=0)
    path = tmp_path / "big.fcnf"
    path.write_text(probio.write_fcnf(probio.generate_fctp(spec)))
    assert run_cli(["oracle", str(path)]) == 2


# -- installed entry point ---------------------------------------------------------


def test_module_invocation_smoke(two_node_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "fixnet.bench", "solve", str(two_node_file)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "115" in proc.stdout
