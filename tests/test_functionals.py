import numpy as np
import pytest

from curvlab.charts import build_grid, make_model, volume
from curvlab.errors import DimensionError, GlobalIntegralUnsupportedError
from curvlab.fields import random_torus_metric, random_sphere_sym_tensor, linear_combination_metric
from curvlab.functionals import (
    Coefficients,
    decomposition_residual,
    evaluate,
    scaling_check,
)

TWO_PI_SQ = 2 * np.pi**2


def test_flat_torus_report(torus3, torus3_grid):
    rep = evaluate(torus3, torus3_grid, Coefficients(1.5, -2.0))
    assert rep.W == rep.rho == rep.S == rep.Rquad == rep.F == 0.0
    assert rep.volume == pytest.approx(1.0, abs=1e-14)


def test_round_s3_functional_values(sphere3):
    grid = build_grid(sphere3.domain, (12, 12, 24))
    rep0 = evaluate(sphere3, grid, Coefficients(0.0, 0.0))
    assert rep0.F == pytest.approx(12 * TWO_PI_SQ, rel=1e-10)
    rep11 = evaluate(sphere3, grid, Coefficients(1.0, 1.0))
    # |Rm|^2 = |Ric|^2 = 12 and R^2 = 36 on the unit S^3
    assert rep11.F == pytest.approx(60 * TWO_PI_SQ, rel=1e-10)
    assert rep11.F == pytest.approx(
        rep11.Rquad + 1.0 * rep11.rho + 1.0 * rep11.S, abs=1e-12
    )


def test_hyperbolic_rejected(poincare3):
    grid = build_grid(poincare3.domain, 4)
    with pytest.raises(GlobalIntegralUnsupportedError):
        evaluate(poincare3, grid, Coefficients())


def test_decomposition_residual_constant_curvature(sphere4):
    grid = build_grid(sphere4.domain, (6, 6, 6, 8))
    assert decomposition_residual(sphere4, grid) < 1e-9


def test_decomposition_residual_random_n4():
    pm = random_torus_metric(4, np.random.default_rng(21), amplitude=0.05)
    grid = build_grid(pm.domain, 6)
    assert decomposition_residual(pm, grid) < 1e-7


def test_decomposition_residual_perturbed_sphere_n5():
    base = make_model("sphere", 5)
    pert = random_sphere_sym_tensor(5, np.random.default_rng(22), amplitude=0.02)
    field = linear_combination_metric(base, pert, 1.0)
    grid = build_grid(field.domain, (6, 6, 6, 6, 8))
    assert decomposition_residual(field, grid) < 1e-6


def test_decomposition_needs_n3():
    s2 = make_model("sphere", 2)
    with pytest.raises(DimensionError):
        decomposition_residual(s2, build_grid(s2.domain, (8, 16)))


def test_scaling_invariance_n4(sphere4):
    grid = build_grid(sphere4.domain, (6, 6, 6, 8))
    lhs, rhs, rel = scaling_check(sphere4, grid, Coefficients(0.3, 0.7), 2.0)
    assert rel < 1e-8


def test_scaling_closed_form_n3(sphere3):
    grid = build_grid(sphere3.domain, (10, 10, 16))
    r = 2.0
    lhs, rhs, rel = scaling_check(sphere3, grid, Coefficients(), r**2)
    assert lhs == pytest.approx(24 * np.pi**2 / r, rel=1e-9)
    assert rel < 1e-12


def test_scaling_check_perturbed_n5():
    pm = random_torus_metric(5, np.random.default_rng(23), amplitude=0.03)
    grid = build_grid(pm.domain, 5)
    _, _, rel = scaling_check(pm, grid, Coefficients(0.4, -0.1), 0.5)
    assert rel < 1e-6


def test_functional_grid_refinement_convergence(sphere3):
    # perturb the sphere so the integrand is not exactly captured
    pert = random_sphere_sym_tensor(3, np.random.default_rng(24), amplitude=0.05)
    field = linear_combination_metric(sphere3, pert, 1.0)
    vals = [
        evaluate(field, build_grid(field.domain, res), Coefficients()).F
        for res in ((6, 6, 8), (12, 12, 16), (24, 24, 32))
    ]
    e_coarse = abs(vals[0] - vals[2])
    e_fine = abs(vals[1] - vals[2])
    assert e_fine <= max(e_coarse / 4, 1e-10)


def test_torus_spectral_convergence():
    pm = random_torus_metric(3, np.random.default_rng(25), amplitude=0.05)
    vols = [volume(pm, build_grid(pm.domain, r)) for r in (6, 12, 24)]
    e_coarse = abs(vols[0] - vols[2])
    e_fine = abs(vols[1] - vols[2])
    # trapezoidal rule on periodic trig data converges faster than any power
    assert e_fine <= max(e_coarse / 16, 1e-12)


def test_coefficients_validation():
    with pytest.raises(DimensionError):
        Coefficients(np.nan, 0.0)


def test_evaluate_volume_element_matches_sqrt_det_grid(sphere4, euler3, torus3, sphere3):
    # evaluate and the functions holding a curvature bundle (_gradient_pass,
    # the identity suites, rayleigh_lichnerowicz) take the volume element
    # from the bundle; it must be sqrt_det_grid's bit for bit
    from curvlab.charts import sqrt_det_grid, to_unit_volume
    from curvlab.tensors import curvature

    grid = build_grid(sphere4.domain, 4)
    rep = evaluate(sphere4, grid, Coefficients())
    assert rep.volume == float(np.sum(grid.weights * sqrt_det_grid(sphere4, grid)))
    s3_grid = build_grid(sphere3.domain, (8, 8, 12))
    for field, grid in (
        (euler3, build_grid(euler3.domain, (8, 12, 16))),
        (torus3, build_grid(torus3.domain, 8)),
        (to_unit_volume(sphere3, s3_grid), s3_grid),
    ):
        bundle = curvature(field, grid.nodes)
        assert np.array_equal(bundle.sqrt_det, sqrt_det_grid(field, grid)), field.name
