import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvlab import atlas
from curvlab.atlas import MAX_ATLAS_RESOLUTION
from curvlab.cli import build_parser, run

from report_digests import ARGVS


def test_classify_text_output(capsys):
    code = run(["classify", "--n", "4", "--lambda", "1", "--mode", "conformal",
                "--s", "0", "--tau", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "LocalMin" in out and "Thm 1.5(1)" in out


def test_classify_json_output(capsys):
    code = run(["classify", "--n", "3", "--lambda", "0", "--mode", "tt",
                "--s", "-5", "--tau", "0", "--format", "json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["verdict"] == "LocalMax"


def test_usage_error_exit_code(capsys):
    assert run(["classify", "--n", "4"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["atlas", "--n", "3"]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run(["classify", "--n", "4", "--bogus", "1"]) == 1


def test_help_exists_for_each_subcommand(capsys):
    for sub in ("curvature", "check-identities", "verify-gradient",
                "verify-hessian", "rayleigh", "classify", "atlas"):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


def test_report_digests_cover_every_subcommand_model_and_mode():
    # tests/report_digests.py hashes a report of every subcommand, and of
    # every model and mode its flags offer
    for name, sub in build_parser().commands.items():
        runs = [argv for argv in ARGVS if argv[0] == name]
        assert runs, name
        for action in sub._actions:
            if action.dest in ("model", "mode"):
                given = {
                    argv[i + 1] for argv in runs for i, tok in enumerate(argv)
                    if tok in action.option_strings
                }
                assert given == set(action.choices), (name, action.dest)
    # and the round spheres the benchmark checks, n = 3 at the default
    parse = build_parser().parse_args
    spheres = {args.n for args in map(parse, ARGVS) if vars(args).get("model") == "sphere"}
    assert {3, 4, 5} <= spheres
    # and both round models at a non-unit radius
    scaled = {args.model for args in map(parse, ARGVS) if vars(args).get("radius", 1.0) != 1.0}
    assert {"sphere", "s3-euler"} <= scaled
    # and the S^3 gradient at a nonzero (s, tau), where G is not zero and its
    # multiplier enters
    gradients = [parse(argv) for argv in ARGVS if argv[0] == "verify-gradient"]
    assert "s3" in {args.model for args in gradients if args.s != 0 and args.tau != 0}


def test_report_peaks_run_the_digests_list(tmp_path):
    # tests/report_peaks.py measures the argvs the digests hash, not a copy
    import report_peaks

    assert report_peaks.ARGVS is ARGVS
    query = next(argv for argv in ARGVS if argv[0] == "classify")
    assert report_peaks.peak_mib(query, tmp_path / "report") > 0


def test_atlas_deterministic(tmp_path):
    args = ["atlas", "--n", "3", "--lambda", "1", "--mode", "tt",
            "--s-min", "-8", "--s-max", "0", "--tau-min", "0", "--tau-max", "2",
            "--res", "10"]
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert len(b1.decode().strip().split("\n")) == 101


def test_atlas_without_out_writes_stdout(tmp_path, capsys):
    args = ["atlas", "--n", "3", "--lambda", "1", "--mode", "tt",
            "--s-min", "-8", "--s-max", "0", "--tau-min", "0", "--tau-max", "2",
            "--res", "4"]
    out = tmp_path / "atlas.csv"
    assert run(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(args) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_verify_hessian_report(tmp_path, capsys):
    out = tmp_path / "hess.json"
    code = run(["verify-hessian", "--model", "torus-tt", "--s", "0", "--tau", "0",
                "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["rel_err_d2"] <= 0.01
    assert abs(body["d2_numeric"] - 3117.0909) < 1.0
    # the rotated complex step's own error estimate is reported beside it
    assert 0 < body["d2_rel_err_estimate"] <= 30 * body["rel_err_d2"]
    # byte-identical reruns
    out2 = tmp_path / "hess2.json"
    run(["verify-hessian", "--model", "torus-tt", "--s", "0", "--tau", "0",
         "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_verify_gradient_exit_codes(tmp_path):
    out = tmp_path / "grad.json"
    code = run(["verify-gradient", "--model", "torus", "--n", "3", "--count", "2",
                "--seed", "0", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["pass"] and len(body["rows"]) == 2
    # an absurd tolerance forces the tolerance-failure exit code; on the
    # flat torus both sides vanish identically, so it takes the curved s3
    code = run(["verify-gradient", "--model", "s3", "--n", "3", "--count", "1",
                "--seed", "0", "--tol", "1e-30", "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["pass"] is False


def test_rayleigh_report(tmp_path):
    out = tmp_path / "ray.json"
    code = run(["rayleigh", "--model", "torus-tt", "--res", "8", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert abs(body["quotient"] - body["expected_quotient"]) < 1e-6


def test_curvature_report(tmp_path):
    out = tmp_path / "curv.json"
    code = run(["curvature", "--model", "sphere", "--n", "3", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["pass"] and body["max_rm_dev"] < 1e-6


def test_curvature_at_a_tiny_radius_is_not_refused(tmp_path, capsys):
    # det g underflows to 0 on the radius-1e-60 sphere; the metric is valid
    out = tmp_path / "curv.json"
    argv = ["curvature", "--model", "sphere", "--n", "3", "--radius", "1e-60"]
    code = run(argv + ["--out", str(out)])
    assert code != 1, capsys.readouterr().err
    body = json.loads(out.read_text())
    assert body["lambda"] == 1e120 and body["max_rm_dev"] < 1e-120


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n": 4, "lambda": 1, "mode": "conformal", "s": 0.0, "tau": 0.0}
    ))
    code = run(["--config", str(cfg), "classify"])
    assert code == 0
    assert "LocalMin" in capsys.readouterr().out
    # flags override config values
    code = run(["--config", str(cfg), "classify", "--s", "-1.0"])
    assert code == 0
    assert "Boundary" in capsys.readouterr().out


def test_classify_rejects_non_finite_coefficients(capsys):
    for flag in ("--s", "--tau"):
        argv = ["classify", "--n", "4", "--lambda", "1", "--mode", "tt",
                "--s", "0", "--tau", "0"]
        argv[argv.index(flag) + 1] = "nan"
        assert run(argv) == 1
        assert "finite" in capsys.readouterr().err


def test_config_values_are_converted_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n": "4", "lambda": "1", "mode": "conformal", "s": "0", "tau": 0}
    ))
    assert run(["--config", str(cfg), "classify"]) == 0
    assert "LocalMin" in capsys.readouterr().out
    for bad in ({"n": "four"}, {"mode": "bogus"}):
        cfg.write_text(json.dumps(bad))
        assert run(["--config", str(cfg), "classify"]) == 1


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n": 4, "lambda": 1, "mode": "conformal", "s": 0.0, "tau": 0.0, "sigma": 1}
    ))
    assert run(["--config", str(cfg), "classify"]) == 1
    assert "sigma" in capsys.readouterr().err


def test_non_finite_radius_is_usage_error(capsys):
    # NaN slipped past `radius <= 0` and the NaN deviations past max()
    for value in ("nan", "inf", "-inf"):
        assert run(["curvature", "--model", "sphere", "--n", "2", "--radius", value]) == 1
        assert "error: argument --radius" in capsys.readouterr().err


def test_non_finite_float_flags_and_config_values(tmp_path, capsys):
    assert run(["verify-hessian", "--model", "torus-tt", "--t-step", "inf"]) == 1
    assert run(["check-identities", "--mode", "tt", "--tol", "nan"]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": "nan"}))
    assert run(["--config", str(cfg), "curvature", "--n", "2"]) == 1
    assert "config value for 'radius'" in capsys.readouterr().err


def test_curvature_nan_deviation_fails_the_check(monkeypatch, tmp_path):
    import curvlab.tensors as tensors

    monkeypatch.setattr(
        tensors, "space_form_deviation", lambda bundle, lam: np.full(len(bundle.g), np.nan)
    )
    out = tmp_path / "curv.json"
    assert run(["curvature", "--out", str(out)]) == 2
    body = json.loads(out.read_text())
    assert body["pass"] is False and math.isnan(body["max_rm_dev"])


@pytest.mark.parametrize("radius", ["1e-3", "1e40", "1e-60"])
def test_curvature_passes_relative_to_the_size_of_the_curvature(radius, tmp_path):
    # exact round spheres: R = 6e6 at radius 1e-3 and |Rm| about 1e80 at
    # 1e40, each deviation a roundoff of the tensor it is measured against
    out = tmp_path / "curv.json"
    argv = ["curvature", "--model", "sphere", "--n", "3", "--radius", radius]
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_zero_t_step_is_usage_error(capsys):
    for value in ("0", "-0.01"):
        assert run(["verify-hessian", "--model", "torus-tt", "--t-step", value]) == 1
        assert "t_step" in capsys.readouterr().err


def _refused_cleanly(argv, capsys) -> None:
    # exit 1 with one "error:" line: no traceback and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err


@pytest.mark.parametrize(
    "model, radius",
    [("sphere", "1e-200"), ("s3-euler", "1e-170"), ("sphere", "1e200"),
     ("torus", "2"), ("poincare", "2"),
     # radius**6, the size of det g on S^3, overflows
     ("sphere", "1e55"), ("sphere", "1e150")],
)
def test_out_of_range_radius_is_usage_error(model, radius, capsys):
    _refused_cleanly(["curvature", "--model", model, "--radius", radius], capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature"],
        ["check-identities", "--mode", "conformal"],
        ["verify-gradient", "--count", "1"],
        ["verify-hessian", "--model", "torus-tt"],
        ["rayleigh", "--model", "torus-tt", "--res", "8"],
        ["classify", "--n", "4", "--lambda", "1", "--mode", "tt", "--s", "0", "--tau", "0"],
        ["atlas", "--n", "3", "--lambda", "1", "--mode", "tt", "--s-min", "-8", "--s-max", "0",
         "--tau-min", "0", "--tau-max", "2", "--res", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_usage_error(argv, capsys, tmp_path):
    # the one report writer turns an OSError into a configuration error
    _refused_cleanly([*argv, "--out", str(tmp_path / "missing" / "x")], capsys)
    _refused_cleanly([*argv, "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("t_step", ["1e-100", "1e-300", "1e300"])
def test_t_step_with_no_normal_fourth_power_is_usage_error(t_step, capsys):
    # t_step**4 underflows to 0 or overflows
    _refused_cleanly(["verify-hessian", "--model", "torus-tt", "--t-step", t_step], capsys)


@pytest.mark.parametrize(
    "argv",
    [["verify-gradient", "--model", "s3", "--count", "1", "--s", "1e308"],
     ["verify-hessian", "--s", "1e308", "--tau", "1e308"],
     # d2 itself, (4 + s) |2 pi k|^4 |h|^2 / 2, leaves the float range
     ["verify-hessian", "--model", "torus-tt", "--s", "1e308"]],
    ids=["verify-gradient", "verify-hessian", "verify-hessian-torus-tt"],
)
def test_an_overflowing_functional_is_refused(argv, capsys, tmp_path):
    # s |Ric|^2 and the gradient leave the float range at s = 1e308: one
    # error line and no report, not a report of NaN and Infinity tokens
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: s = 1e+308") and "too large" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "n, s, tau", [(3, 1e308, 0.0), (3, 0.0, 1e308), (3, 0.0, -1e308), (4, 1e308, 0.0)]
)
def test_the_flat_torus_is_critical_at_huge_coefficients(n, s, tau, tmp_path):
    # G = 0 and c = 0 there: the multiplier's factor 4 + n s + 4 (n - 1) tau
    # overflowed to inf, and inf times the exact-zero Lap R made a NaN
    from curvlab.charts import build_grid, make_model
    from curvlab.functionals import Coefficients
    from curvlab.variations import _gradient_pass

    out = tmp_path / "grad.json"
    argv = ["verify-gradient", "--n", str(n), "--s", repr(s), "--tau", repr(tau), "--count", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert all(r["d1_analytic"] == r["d1_numeric"] == 0.0 for r in rows)
    base = make_model("torus", n)
    with np.errstate(all="raise"):
        assert _gradient_pass(base, build_grid(base.domain, 6), Coefficients(s, tau))["c"] == 0.0


def test_rayleigh_malformed_lists_are_usage_errors(capsys):
    assert run(["rayleigh", "--model", "torus-tt", "--k", "a,b,c"]) == 1
    assert "--k" in capsys.readouterr().err
    assert run(["rayleigh", "--model", "s3-invariant", "--d", "1,x,2"]) == 1
    assert "--d" in capsys.readouterr().err
    assert run(["rayleigh", "--model", "s3-invariant", "--d", "1,nan,2"]) == 1


@pytest.mark.parametrize(
    "flags",
    [["--model", "s3-invariant", "--res", "100000"], ["--model", "s3-invariant", "--res", "2000"],
     ["--model", "torus-tt", "--res", "200"]],
    ids=["1e15-nodes", "gauss-axis", "8e6-nodes"],
)
def test_rayleigh_refuses_a_huge_grid_before_allocating_it(flags, monkeypatch, capsys, tmp_path):
    # --res 100000 once built a 100000 x 100000 Gauss-Legendre companion
    # matrix and ended in a MemoryError traceback; the grid is now refused
    # before any node, weight or Gauss-Legendre rule is made
    def refuse(*args, **kwargs):
        raise AssertionError("a refused grid was allocated")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    out = tmp_path / "ray.json"
    assert run(["rayleigh", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid (") and "too large" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("res", [MAX_ATLAS_RESOLUTION + 1, 100000])
def test_atlas_refuses_a_huge_resolution_before_building_a_row(res, monkeypatch, capsys, tmp_path):
    # an atlas row costs about 600 B, and --res 100000 asks for 1e10 rows
    def refuse(*args, **kwargs):
        raise AssertionError("a refused atlas was built")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(atlas, "classify", refuse)
    out = tmp_path / "atlas.csv"
    argv = ["atlas", "--n", "3", "--lambda", "1", "--mode", "tt", "--s-min", "-8", "--s-max", "0",
            "--tau-min", "0", "--tau-max", "2", "--res", str(res), "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: atlas resolution must be") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        # n**3 beyond the float range once ended in an OverflowError traceback
        ["--n", str(10**200), "--lambda", "1", "--mode", "conformal", "--s", "0", "--tau", "0"],
        ["--n", str(10**400), "--lambda", "-1", "--mode", "tt", "--s", "0", "--tau", "0"],
    ],
    ids=["n-1e200", "n-1e400"],
)
def test_classify_refuses_an_overflowed_form(flags, capsys):
    assert run(["classify", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n too large to classify") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, verdict",
    [
        # a NaN form once read LocalMax, then was refused; s + 3 tau + 1 > 0
        (["--n", "4", "--lambda", "0", "--mode", "conformal", "--s", "1e308", "--tau", "1e308"],
         "LocalMin (Thm 1.4 / Cor 3.2)"),
        # a = 2 s + 6 tau + 2 > 0
        (["--n", "4", "--lambda", "1", "--mode", "conformal", "--s", "1e308", "--tau", "-2e307"],
         "LocalMin (Thm 1.5(1))"),
        # an overflowed scale once read Boundary, then was refused; s + 4 > 0
        (["--n", "3", "--lambda", "0", "--mode", "tt", "--s", "1e308", "--tau", "0"],
         "LocalMin (Thm 1.3 / Cor 3.1)"),
        # tau = 0 is a unit below the threshold 1, yet read Boundary beside s = 2e11
        (["--n", "3", "--lambda", "1", "--mode", "tt", "--s", "2e11", "--tau", "0"],
         "LocalMin (Thm 1.1(1))"),
        # and on the line tau = 1 it stays Boundary, beside any s
        (["--n", "3", "--lambda", "1", "--mode", "tt", "--s", "1e300", "--tau", "1"],
         "Boundary (boundary of Thm 1.1)"),
    ],
    ids=["conformal-lam0", "conformal-lam1", "tt-lam0", "tt-2e11", "tt-line"],
)
def test_classify_decides_huge_s_and_tau(flags, verdict, capsys):
    assert run(["classify", *flags]) == 0
    assert capsys.readouterr().out == verdict + "\n"


def test_curvature_without_default_grid_is_a_usage_error(capsys):
    assert run(["curvature", "--n", "7"]) == 1
    assert capsys.readouterr().err.startswith("error: no default curvature grid for n = 7")


def test_verify_gradient_s3_model_is_three_dimensional(capsys, tmp_path):
    out = tmp_path / "grad.json"
    assert run(["verify-gradient", "--model", "s3", "--n", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: the s3 gradient model has n = 3")
    assert not out.exists()


def test_verify_gradient_needs_a_direction(capsys):
    for value in ("0", "-2"):
        assert run(["verify-gradient", "--model", "torus", "--count", value]) == 1
        assert "count" in capsys.readouterr().err


def test_verify_gradient_refuses_a_negative_seed(capsys, tmp_path):
    out = tmp_path / "grad.json"
    assert run(["verify-gradient", "--model", "torus", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: gradient checks need count >= 1, seed >= 0")
    assert not out.exists()


def test_rayleigh_refuses_the_other_models_flag(capsys, tmp_path):
    out = tmp_path / "ray.json"
    for flags in (["--model", "s3-invariant", "--k", "1,0"], ["--model", "torus-tt", "--d", "5,-1,-4"]):
        assert run(["rayleigh", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: mode d is for s3-invariant")
    assert not out.exists()


def test_verify_gradient_bounds_the_torus_dimension(capsys, tmp_path):
    # the torus grid has 10^n nodes; n = 6 would need about 10 GB for Rm
    out = tmp_path / "grad.json"
    assert run(["verify-gradient", "--model", "torus", "--n", "6", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: the torus gradient model has n = 2 to 5")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature"],
        ["check-identities", "--mode", "tt"],
        ["verify-gradient", "--count", "1"],
        ["verify-hessian", "--model", "torus-tt"],
        ["rayleigh", "--model", "torus-tt"],
    ],
)
@pytest.mark.parametrize("from_config", [False, True])
def test_negative_tol_is_a_usage_error(argv, from_config, capsys, tmp_path):
    # no result can pass a negative tolerance: refuse it before any work
    out = tmp_path / "report.json"
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": -1}))
        argv = ["--config", str(cfg), *argv]
    else:
        argv = [*argv, "--tol", "-1"]
    assert run([*argv, "--out", str(out)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and "tol" in last
    assert not out.exists()


DEFAULT_ARGV = [
    ["curvature"],
    ["check-identities", "--mode", "tt"],
    ["check-identities", "--mode", "conformal"],
    ["verify-gradient"],
    ["verify-hessian"],
    ["rayleigh"],
    ["classify", "--n", "4", "--lambda", "1", "--mode", "tt", "--s", "-1", "--tau", "0.5",
     "--format", "json"],
    ["atlas", "--n", "4", "--lambda", "-1", "--mode", "conformal", "--s-min", "-8",
     "--s-max", "4", "--tau-min", "-2", "--tau-max", "2", "--res", "11"],
    # a mode outside the standard directions
    ["rayleigh", "--model", "s3-invariant", "--d", "1,-2,1"],
]


@pytest.mark.parametrize("argv", DEFAULT_ARGV, ids=lambda argv: "-".join(argv[:3]))
def test_reports_are_the_same_bytes_on_a_repeat_in_one_process(argv, tmp_path):
    # a repeat builds its models and modes afresh and streams the grid in the
    # same node blocks
    reports = []
    for k in range(2):
        out = tmp_path / f"report{k}"
        assert run(argv + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] and reports[0]


CLASSIFY = ["classify", "--n", "4", "--lambda", "-1", "--mode", "conformal", "--s", "0.5"]
ATLAS = ["atlas", "--n", "3", "--lambda", "1", "--mode", "tt", "--s-max", "0",
         "--tau-min", "0", "--tau-max", "2", "--res", "4"]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (CLASSIFY, "--tau", "-1e-3"),
        (["verify-hessian", "--model", "torus-tt"], "--s", "-2.5E-1"),
        (ATLAS, "--s-min", "-1e1"),
        (["rayleigh", "--res", "8"], "--d", "-1,2,-1"),
        (["rayleigh", "--model", "torus-tt", "--res", "8"], "--k", "-1,0,0"),
    ],
)
def test_negative_values_read_as_values(argv, flag, value, capsys):
    # a minus and a digit start a value, however the number goes on: the same
    # bytes as the --flag=value spelling
    reports = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        assert run([*argv, *spelling]) == 0, capsys.readouterr().err
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and reports[0]


def test_a_flag_after_a_flag_is_still_a_usage_error(capsys):
    for value in ("-x", "--s", "-e1"):
        assert run([*CLASSIFY, "--tau", value]) == 1
        assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key, items",
    [
        (["rayleigh", "--res", "8"], "d", [1, -2, 1]),
        (["rayleigh", "--res", "8"], "d", [0.5, -1.5, 1]),
        (["rayleigh", "--model", "torus-tt", "--res", "8"], "k", [-1, 0, 0]),
    ],
)
def test_config_lists_read_as_comma_separated_values(argv, key, items, tmp_path, capsys):
    text = ",".join(json.dumps(v) for v in items)
    reports = []
    for value in (items, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["--config", str(cfg), *argv]) == 0, capsys.readouterr().err
        reports.append(capsys.readouterr().out)
    assert run([*argv, f"--{key}={text}"]) == 0
    reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2] and reports[0]


@pytest.mark.parametrize("with_config", [False, True])
def test_abbreviated_flags_are_usage_errors(with_config, tmp_path, capsys):
    # --ta once set tau past the config merge, which then put the config's
    # tau over it; the full flag wins over the config, an abbreviation is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.0}))
    argv = (["--config", str(cfg)] if with_config else []) + [
        "classify", "--n", "3", "--lambda", "1", "--mode", "tt", "--s", "0", "--format", "json",
    ]
    assert run(argv + ["--tau", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == 5.0
    assert run(argv + ["--ta", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        "error: unrecognized arguments: --ta 5"
    ]
    assert run(["--conf", str(cfg), "classify"]) == 1


def test_one_process_writes_what_separate_processes_write(tmp_path, capsys):
    # run() builds its parser once per process and parses every call with it:
    # with --config, without it and across subcommands, each report is the
    # bytes a fresh process writes, and an abbreviation is still refused
    from curvlab import cli

    assert cli._parser() is cli._parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": -1.0, "tau": 0.25}))
    runs = [
        ["--config", str(cfg), *CLASSIFY, "--format", "json"],
        [*CLASSIFY, "--tau", "0.25", "--format", "json"],
        ["curvature", "--n", "2"],
        ["--config", str(cfg), "classify", "--n", "3", "--lambda", "1", "--mode", "tt"],
        ATLAS + ["--s-min", "-8"],
        [*CLASSIFY, "--tau", "-1"],
    ]
    reports = []
    for k, argv in enumerate(runs):
        out = tmp_path / f"one-process-{k}"
        assert run(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
        reports.append(out.read_bytes())
        assert run([*CLASSIFY, "--ta", "5"]) == 1
        assert run(["--config", str(cfg), *CLASSIFY, "--ta", "5"]) == 1
        assert "unrecognized arguments: --ta 5" in capsys.readouterr().err
    assert reports[0] == reports[1]  # the config's tau, or the same tau as a flag
    src = Path(cli.__file__).parents[1]
    for k, argv in enumerate(runs):
        out = tmp_path / f"own-process-{k}"
        subprocess.run(
            [sys.executable, "-m", "curvlab", *argv, "--out", str(out)],
            check=True, capture_output=True, env={"PYTHONPATH": str(src)},
        )
        assert out.read_bytes() == reports[k], argv


@pytest.mark.parametrize(
    "flags, message",
    [(["--d", "1e-200,-1e-200,0"], "error: h leaves the float range"),
     (["--d", "5e-324,-5e-324,0"], "error: h leaves the float range"),
     (["--d", "1e300,-5e299,-5e299"], "error: h leaves the float range"),
     (["--model", "torus-tt", "--k", "99999999999999999999,0,0"], "error: wave vector k ="),
     (["--model", "torus-tt", "--k", "9007199254740993,0,0"], "error: wave vector k =")],
    ids=["underflow", "subnormal", "overflow", "k-1e20", "k-2^53+1"],
)
def test_rayleigh_refuses_a_mode_outside_the_float_range(flags, message, capsys, tmp_path):
    # int |h|^2 underflowed to 0 and ended in a ZeroDivisionError traceback;
    # a k past 2^53 was cast to int64 with a numpy warning and reported
    out = tmp_path / "ray.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["rayleigh", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_rayleigh_tol_is_relative_to_the_expected_quotient(capsys):
    # at expected = 12 an absolute test would read 12 times the relative error
    assert run(["rayleigh", "--res", "12", "--tol", "0"]) == 2
    rel = abs(json.loads(capsys.readouterr().out)["quotient"] - 12.0) / 12.0
    assert run(["rayleigh", "--res", "12", "--tol", repr(2 * rel)]) == 0
    assert run(["rayleigh", "--res", "12", "--tol", repr(rel / 2)]) == 2


def test_rayleigh_passes_a_huge_mode_one_ulp_off(capsys):
    # expected (2 pi)^2 |k|^2 = 3.2e33: the quotient is one ulp off it, a
    # relative error of 1.8e-16 that an absolute tolerance failed
    assert run(["rayleigh", "--model", "torus-tt", "--k", f"{2**53},0,0"]) == 0


@pytest.mark.parametrize("flag, value", [("--s", "1e50"), ("--tau", "1e200")])
def test_verify_gradient_stays_at_roundoff_at_a_huge_coefficient(flag, value, capsys):
    # G = 0 on the flat torus: the complex step shrinks with sqrt(max(1, |s|,
    # |tau|)), so its residue stays at roundoff instead of growing with s
    assert run(["verify-gradient", "--count", "3", flag, value]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(r["d1_analytic"] == 0.0 and abs(r["d1_numeric"]) < 1e-50 for r in rows)
    # on S^3 the rows compare nonzero values; measured rel_err 1.0e-8 at most
    argv = ["verify-gradient", "--model", "s3", "--count", "3", flag, value, "--tol", "1e-7"]
    assert run(argv) == 0


@pytest.mark.parametrize("scale", ["1e6", "1e10", "1e150"])
def test_rayleigh_accepts_a_scaled_tt_mode(scale, capsys):
    # the TT gate is relative to the size of h, as the quotient is scale-invariant
    d = ",".join(repr(float(scale) * c) for c in (2.0, -1.0, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["rayleigh", "--d", d]) == 0
    assert json.loads(capsys.readouterr().out)["quotient"] == pytest.approx(12.0, abs=1e-9)


def test_verify_gradient_caps_the_count_before_building_a_model(monkeypatch, capsys, tmp_path):
    # --count 100000000 was accepted: days of work and an unbounded report
    from curvlab import verify
    from curvlab.functionals import Coefficients

    def refuse(*args, **kwargs):
        raise AssertionError("a refused count built a model")

    monkeypatch.setattr(verify, "make_model", refuse)
    out = tmp_path / "grad.json"
    for count in (verify.MAX_GRADIENT_COUNT + 1, 100_000_000):
        assert run(["verify-gradient", "--count", str(count), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: gradient checks take count <= {verify.MAX_GRADIENT_COUNT}")
        assert err.count("\n") == 1
    assert not out.exists()
    # the cap itself is accepted: it reaches the model
    with pytest.raises(AssertionError, match="built a model"):
        verify.gradient_case("torus", 3, Coefficients(), count=verify.MAX_GRADIENT_COUNT)
