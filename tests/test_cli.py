import json

import pytest

from curvlab.cli import run


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


def test_verify_hessian_report(tmp_path, capsys):
    out = tmp_path / "hess.json"
    code = run(["verify-hessian", "--model", "torus-tt", "--s", "0", "--tau", "0",
                "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["rel_err_d2"] <= 0.01
    assert abs(body["d2_numeric"] - 3117.0909) < 1.0
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
    import curvlab.cli as cli

    def nan_case(kind, n, radius=1.0):
        return {"max_rm_dev": 0.0, "max_ric_dev": float("nan"), "max_r_dev": 0.0}

    monkeypatch.setattr(cli, "curvature_case", nan_case)
    out = tmp_path / "curv.json"
    assert run(["curvature", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["pass"] is False


def test_zero_t_step_is_usage_error(capsys):
    for value in ("0", "-0.01"):
        assert run(["verify-hessian", "--model", "torus-tt", "--t-step", value]) == 1
        assert "t_step" in capsys.readouterr().err


def test_rayleigh_malformed_lists_are_usage_errors(capsys):
    assert run(["rayleigh", "--model", "torus-tt", "--k", "a,b,c"]) == 1
    assert "--k" in capsys.readouterr().err
    assert run(["rayleigh", "--model", "s3-invariant", "--d", "1,x,2"]) == 1
    assert "--d" in capsys.readouterr().err
    assert run(["rayleigh", "--model", "s3-invariant", "--d", "1,nan,2"]) == 1


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
