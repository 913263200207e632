"""Tests of the benchmark itself: metric catalogue, failure accounting, tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from curvlab import atlas, charts, tensors  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_has_a_valid_name_unit_and_direction():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_declared_metrics_match_what_the_benchmark_reports():
    assert BENCH["per_layer"] == tracer.per_layer_catalogue()
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_layer_map_names_declared_metrics():
    declared = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for entry in json.loads((HERE / "layer_map.json").read_text())["map"]:
        assert set(entry["layer_metrics"]) <= declared
        assert set(entry["moves"]) <= declared


@pytest.fixture(scope="module")
def probes_ctx(tmp_path_factory):
    ctx = workloads.Context(7, tmp_path_factory.mktemp("work"), {})
    workloads.pointwise_setup(ctx)
    return ctx


def one_pass(ctx):
    checks = workloads.Checks()
    child.run_pass(workloads.pointwise_cases(ctx), ctx, checks, child.HostSpeed(), {}, {})
    return checks


def test_clean_pass_has_no_failures(probes_ctx):
    checks = one_pass(probes_ctx)
    assert checks.attempted > 100 and checks.failed_frac == 0.0
    assert checks.accuracy_digits() > 9


def test_injected_wrong_result_raises_failed_frac(probes_ctx, monkeypatch):
    real = tensors.lichnerowicz
    monkeypatch.setattr(tensors, "lichnerowicz", lambda *a: real(*a) + 1e-6)
    checks = one_pass(probes_ctx)
    bad = {r.case for r in checks.rows if not r.ok}
    assert bad == {"lichnerowicz-tt"}
    assert checks.failed_frac > 0


def test_injected_exception_raises_failed_frac(probes_ctx, monkeypatch):
    def broken(q):
        raise RuntimeError("injected")

    monkeypatch.setattr(atlas, "classify", broken)
    checks = one_pass(probes_ctx)
    assert [r.note for r in checks.rows if not r.ok] == ["RuntimeError: injected"]
    assert checks.failed_frac > 0


def test_changed_report_or_exit_code_fails(tmp_path):
    ctx = workloads.Context(0, tmp_path, {"classify": "0" * 64})
    argv = ["classify", "--n", "3", "--lambda", "1", "--mode", "tt", "--s", "0", "--tau", "0"]
    _, problem = workloads.run_cli(ctx, "classify", argv)
    assert problem.startswith("report digest")
    checks = workloads.Checks()
    workloads.cli_check(ctx, checks, "grad", ["verify-gradient", "--count", "1", "--tol", "1e-30"],
                        lambda r: max(row["rel_err"] for row in r["rows"]))
    assert checks.failed == 1 and checks.rows[0].note == "exit code 2"


def test_tracer_self_times_add_up_and_uninstall_restores():
    field = charts.make_model("torus", 3)
    original = charts.volume
    t = tracer.Tracer()
    t.install()
    try:
        grid = charts.build_grid(field.domain, 6)
        charts.volume(field, grid)
    finally:
        t.uninstall()
    assert charts.volume is original
    layer = t.layer_metrics()
    assert layer["charts.volume.calls"] == 1
    assert layer["charts.sqrt_det_grid.calls"] == 1
    assert layer["charts.sqrt_det_grid.nodes"] == 216
    assert layer["fields.eval_grid.calls"] == 1
    roots = [e - s for _, s, e, parent in t.spans if parent < 0]
    total_self = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(sum(roots), rel=1e-9)
