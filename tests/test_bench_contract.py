"""The benchmark's contract with the package.

`perfbench/tracer.py` wraps solver functions and methods by name and counts
what some of them return. A refactor that renames or drops one of them breaks
the traced benchmark run without failing any other test; these tests fail
instead. They read `perfbench/` and never change it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fixnet import gits, oracle, probio

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_as_the_tracer_looks_it_up(tracer):
    for mod_name, path, name in tracer.TARGETS:
        owner = importlib.import_module("fixnet." + mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
            assert owner is not None, f"{name}: fixnet.{mod_name} has no {part}"
        assert attr in vars(owner), f"{name}: {path} is not defined where the tracer looks"
        assert callable(vars(owner)[attr]), f"{name}: {path} is not callable"


def test_a_traced_run_records_every_counted_span_without_error(tracer):
    spec = probio.FctpSpec(sources=3, sinks=3, total_supply=30, fc_count=6, seed=1)
    with tracer.Tracer("contract") as tr:
        problem = probio.parse_fcnf(probio.write_fcnf(probio.generate_fctp(spec)))
        res = gits.GhostImageSearch(problem, collect_trace=True).run()
        opt = oracle.brute_force_opt(problem)
        report = oracle.check_solution(problem, res.best_flows)
    assert report.feasible and report.objective == res.best_value >= opt.optimum
    summary = tr.summary()
    missing = [name for name in tracer.COUNTERS if not summary["calls"][name]]
    assert not missing, f"no span recorded for {missing}"
    assert not summary["errors"], dict(summary["errors"])
    # leaving the context puts every original back
    assert gits.build_penalties.__module__ == "fixnet.gits"
    assert not hasattr(gits.build_penalties, "__wrapped__")
