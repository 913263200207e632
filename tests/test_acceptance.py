"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Everything is deterministic (fixed seeds, fixed grids).
"""

import numpy as np
import pytest

from curvlab.atlas import StabilityQuery, classify, p1, p2
from curvlab.charts import build_grid, make_model, to_unit_volume
from curvlab.fields import cosine_scalar_field, random_torus_metric
from curvlab.functionals import Coefficients
from curvlab.spectral import (
    rayleigh_lichnerowicz,
    s3_invariant_tt,
    torus_tt_mode,
)
from curvlab.tensors import curvature
from curvlab.variations import (
    PerturbationFamily,
    conformal_identity_suite,
    conformal_tensor,
    el_residual,
    second_variation_conformal_predicted,
    second_variation_numeric,
    second_variation_tt_predicted,
    tt_identity_suite,
)
from curvlab.verify import (
    curvature_case,
    gradient_case,
    hessian_case,
    s3_first_harmonic,
)

from conftest import norm2_04
from oracles import symmetrization_energies

C00 = Coefficients(0.0, 0.0)
TWO_PI_SQ = 2 * np.pi**2


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_space_form_curvature():
    worst = 0.0
    for n in (2, 3, 4, 5):
        rep = curvature_case("sphere", n)
        worst = max(worst, rep["max_rm_dev"], rep["max_ric_dev"], rep["max_r_dev"])
        assert rep["max_rm_dev"] <= 1e-6, (n, rep)
        assert rep["max_ric_dev"] <= 1e-6
        assert rep["max_r_dev"] <= 1e-6
    for n in (3, 4):
        rep = curvature_case("poincare", n, res=(5,) * n)
        worst = max(worst, rep["max_rm_dev"], rep["max_ric_dev"], rep["max_r_dev"])
        assert rep["max_rm_dev"] <= 1e-6
        assert rep["max_ric_dev"] <= 1e-6
        assert rep["max_r_dev"] <= 1e-6
    report(1, f"space-form curvature identities, worst deviation {worst:.2e}")


def test_criterion_02_decomposition_identity():
    worst = 0.0
    for n, seed in ((4, 101), (5, 102)):
        pm = random_torus_metric(n, np.random.default_rng(seed), amplitude=0.05)
        X = np.random.default_rng(seed + 1).uniform(0, 1, (60, n))
        b = curvature(pm, X)
        w2 = norm2_04(b.W, b.ginv)
        rhs = w2 + 4 / (n - 2) * b.normRic2 - 2 / ((n - 1) * (n - 2)) * b.R**2
        rel = (np.abs(b.normRm2 - rhs) / np.maximum(1.0, np.abs(b.normRm2))).max()
        worst = max(worst, rel)
        assert rel <= 1e-7, n
    # n = 3: Weyl vanishes identically and the reduced identity holds
    pm3 = random_torus_metric(3, np.random.default_rng(103), amplitude=0.05)
    X3 = np.random.default_rng(104).uniform(0, 1, (60, 3))
    b3 = curvature(pm3, X3)
    assert np.abs(b3.W).max() == 0.0
    rel3 = (
        np.abs(b3.normRm2 - (4 * b3.normRic2 - b3.R**2))
        / np.maximum(1.0, np.abs(b3.normRm2))
    ).max()
    worst = max(worst, rel3)
    assert rel3 <= 1e-7
    report(2, f"curvature decomposition identity, worst residual {worst:.2e}")


def test_criterion_03_criticality():
    rng = np.random.default_rng(40)
    worst_res, worst_c = 0.0, 0.0
    for kind, n, res in (("sphere", 3, (8, 8, 12)), ("sphere", 4, (6, 6, 6, 8))):
        base = make_model(kind, n)
        grid = build_grid(base.domain, res)
        u = to_unit_volume(base, grid)
        lam = u.lam
        for _ in range(5):
            s, tau = rng.uniform(-2, 2, 2)
            resid, c = el_residual(u, grid, Coefficients(s, tau))
            c_exp = (n - 4) * (n - 1) * lam**2 * (2 + s * (n - 1) + tau * n * (n - 1)) / 2
            worst_res = max(worst_res, resid)
            worst_c = max(worst_c, abs(c - c_exp) / max(1.0, abs(c_exp)))
            assert resid <= 1e-6
            assert abs(c - c_exp) <= 1e-8 * max(1.0, abs(c_exp))
            if n == 4:
                assert abs(c) <= 1e-8
    report(3, f"EL residual <= {worst_res:.2e}, multiplier error <= {worst_c:.2e}")


def test_criterion_04_gradient_verification():
    worst = 0.0
    for model in ("torus", "s3"):
        rows = gradient_case(model, 3, Coefficients(0.5, -0.3), count=10, seed=7)
        for r in rows:
            err = abs(r["d1_numeric"] - r["d1_analytic"]) / max(
                1.0, abs(r["d1_analytic"])
            )
            worst = max(worst, err)
            assert err <= 1e-4, (model, r)
    report(4, f"first variation vs finite differences, worst error {worst:.2e}")


def test_criterion_05_tt_second_variation_flat():
    base = make_model("torus", 3)
    grid = build_grid(base.domain, (16, 8, 8))
    h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    fam = PerturbationFamily(base, h)
    d2 = second_variation_numeric(fam, grid, C00).value
    target = 2 * (2 * np.pi) ** 4
    assert abs(d2 - target) / target <= 5e-11
    above = second_variation_numeric(fam, grid, Coefficients(-3.5, 0.0)).value
    below = second_variation_numeric(fam, grid, Coefficients(-4.5, 0.0)).value
    assert above > 0 > below
    report(
        5,
        f"flat TT mode d2 = {d2:.2f} (target {target:.2f}); "
        f"sign flip across s = -4 ({above:.1f} vs {below:.1f})",
    )


def test_criterion_06_tt_second_variation_sphere():
    base = make_model("s3-euler", 3)
    grid = build_grid(base.domain, (12, 12, 16))
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    fam = PerturbationFamily(base, h)
    d2 = second_variation_numeric(fam, grid, C00).value
    target = 112 * 6 * TWO_PI_SQ
    assert abs(d2 - target) / target <= 2e-9
    pos = second_variation_numeric(fam, grid, Coefficients(2.0, 0.5)).value
    neg = second_variation_numeric(fam, grid, Coefficients(-6.0, 2.0)).value
    assert pos > 0 > neg
    report(
        6,
        f"sphere TT mode d2 = {d2:.2f} (target {target:.2f}); "
        f"region signs {pos:.1f} / {neg:.1f}",
    )


def test_criterion_07_conformal_second_variation_flat():
    base = make_model("torus", 3)
    grid = build_grid(base.domain, (16, 8, 8))
    f = cosine_scalar_field(base.domain, (1, 0, 0))
    fam = PerturbationFamily(base, conformal_tensor(base, f))
    d2 = second_variation_numeric(fam, grid, C00).value
    target = 2 * (2 * np.pi) ** 4
    assert abs(d2 - target) / target <= 5e-11
    # predicted coefficient crosses zero exactly on s + 4 tau = 4 (tau - 1)/n
    n, mu = 3, (2 * np.pi) ** 2
    for tau in (-1.0, 0.0, 0.8, 2.5):
        s_zero = 4 * (tau - 1) / n - 4 * tau
        at_zero = second_variation_conformal_predicted(
            n, 0, mu, Coefficients(s_zero, tau), 1.0
        )
        assert abs(at_zero) <= 1e-10
        assert (
            second_variation_conformal_predicted(
                n, 0, mu, Coefficients(s_zero + 1e-3, tau), 1.0
            )
            > 0
            > second_variation_conformal_predicted(
                n, 0, mu, Coefficients(s_zero - 1e-3, tau), 1.0
            )
        )
    report(7, f"flat conformal mode d2 = {d2:.2f} (target {target:.2f}); "
              "zero crossing on s + 4 tau = 4(tau-1)/n")


def test_criterion_08_spectral_bounds():
    e3 = make_model("s3-euler", 3)
    grid = build_grid(e3.domain, 24)
    rep = rayleigh_lichnerowicz(e3, s3_invariant_tt((2.0, -1.0, -1.0)), grid)
    assert abs(rep.quotient - 12.0) <= 1e-3
    t3 = make_model("torus", 3)
    tgrid = build_grid(t3.domain, 8)
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    trep = rayleigh_lichnerowicz(t3, mode, tgrid)
    assert abs(trep.quotient - (2 * np.pi) ** 2) <= 1e-6
    cyc, _ = symmetrization_energies(e3, s3_invariant_tt((2.0, -1.0, -1.0)), grid)
    assert abs(cyc) <= 1e-6
    report(
        8,
        f"Rayleigh quotients {rep.quotient:.6f} (sphere), {trep.quotient:.6f} "
        f"(torus); sphere cyclic energy {cyc:.2e}",
    )


def test_criterion_09_stability_atlas():
    # worked examples
    v = classify(StabilityQuery(n=4, lam=1, mode="tt", s=0.0, tau=0.0))
    assert (v.value, v.citation) == ("LocalMin", "Thm 1.1(1)")
    v = classify(StabilityQuery(n=4, lam=1, mode="conformal", s=-1.0, tau=0.0))
    assert v.value == "Boundary"
    v = classify(StabilityQuery(n=5, lam=1, mode="conformal", s=0.0, tau=1.0))
    assert (v.value, v.citation) == ("LocalMin", "Thm 1.5(3)")

    # closed-form factorization at n = 4
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        s, tau, mu = rng.uniform(-5, 5, 3)
        lhs = p1(4, s, tau, mu)
        rhs = 6 * (mu - 4) * (s + 3 * tau + 1) * mu
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-12

    # verdicts never contradict the sampled quadratic-form signs
    violations = 0
    svals = np.linspace(-8, 4, 21)
    tvals = np.linspace(-3, 3, 21)
    for n in (3, 4, 5):
        mu_tt = {
            1: np.linspace(4 * n, 40 * n, 30),
            -1: np.linspace(-n, 30 * n, 30),
            0: np.linspace(0.5, 150, 20),
        }
        mu_cf = {
            1: np.linspace(n, 40 * n, 40),
            -1: np.linspace(1e-3, 40 * n, 40),
            0: np.linspace(0.5, 100, 20),
        }
        for s in svals:
            for tau in tvals:
                coeff = Coefficients(float(s), float(tau))
                for lam in (-1, 0, 1):
                    v = classify(
                        StabilityQuery(n=n, lam=lam, mode="tt", s=float(s), tau=float(tau))
                    )
                    if v.value in ("LocalMin", "LocalMax"):
                        vals = np.array(
                            [
                                second_variation_tt_predicted(n, lam, float(m), coeff, 1.0)
                                for m in mu_tt[lam]
                            ]
                        )
                        tol = 1e-9 * max(1.0, np.abs(vals).max())
                        if v.value == "LocalMin" and vals.min() < -tol:
                            violations += 1
                        if v.value == "LocalMax" and vals.max() > tol:
                            violations += 1
                    v = classify(
                        StabilityQuery(
                            n=n, lam=lam, mode="conformal", s=float(s), tau=float(tau)
                        )
                    )
                    if v.value in ("LocalMin", "LocalMax"):
                        if lam == 1:
                            vals = p1(n, s, tau, mu_cf[1])
                        elif lam == -1:
                            vals = p2(n, s, tau, mu_cf[-1])
                        else:
                            vals = (
                                0.5
                                * (n - 1)
                                * (s * n + 4 * (n - 1) * tau + 4)
                                * mu_cf[0] ** 2
                            )
                        tol = 1e-9 * max(1.0, np.abs(vals).max())
                        if v.value == "LocalMin" and vals.min() < -tol:
                            violations += 1
                        if v.value == "LocalMax" and vals.max() > tol:
                            violations += 1
    assert violations == 0
    report(
        9,
        f"classifier worked examples, n=4 factorization ({worst:.1e}), "
        f"{violations} spectral-sign counterexamples",
    )


def test_criterion_10_identity_suites():
    base = make_model("s3-euler", 3)
    grid = build_grid(base.domain, (8, 12, 16))
    tt = tt_identity_suite(base, s3_invariant_tt((2.0, -1.0, -1.0)), grid)
    cf = conformal_identity_suite(base, s3_first_harmonic(), grid)
    worst = 0.0
    for check in tt + cf:
        worst = max(worst, check.rel_err)
        assert check.rel_err <= 8e-7, check  # worst measured 1.8e-7
    report(10, f"TT and conformal identity batteries, worst mismatch {worst:.2e}")
