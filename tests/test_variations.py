import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import functionals, tensors, variations
from curvlab.charts import build_grid, make_model, sqrt_det_grid, to_unit_volume, volume
from curvlab.errors import (
    DimensionError,
    EigenvalueRangeError,
    GlobalIntegralUnsupportedError,
    PreconditionError,
)
from curvlab.fields import (
    SPHERE_ANGULAR,
    ChartDomain,
    SymTensorField,
    cosine_scalar_field,
    fd_partials,
    linear_combination_metric,
    random_sphere_sym_tensor,
    random_torus_metric,
    random_torus_sym_tensor,
    trig_sym_tensor_field,
)
from curvlab.functionals import Coefficients, decomposition_residual, evaluate
from curvlab.spectral import rayleigh_lichnerowicz, s3_invariant_tt, torus_tt_mode
from curvlab.tensors import (
    FIELD_FD_REL_STEP,
    christoffel_arrays,
    curvature,
    norm2_02,
    raise_all,
)
from curvlab.variations import (
    COMPLEX_STEP,
    PerturbationFamily,
    _checks,
    _first_variation_pairing,
    _gradient_parts,
    _lagrange_constant,
    _trace_multiplier,
    conformal_identity_suite,
    conformal_tensor,
    curvature_variation_arrays,
    curvature_variations,
    einstein_criticality_defect,
    el_residual,
    first_variation_numeric,
    gradient_ingredients,
    gradient_tensor,
    second_variation_conformal_predicted,
    second_variation_numeric,
    second_variation_tt_predicted,
    tt_identity_suite,
)
from curvlab.verify import (
    HESSIAN_MODELS,
    gradient_case,
    hessian_case,
    s3_first_harmonic,
)

import sympy_oracle
from conftest import metric_as_sym_tensor, random_probes, s3_second_harmonic
from oracles import christoffel_variation, metric_at, symmetrization_energies

C00 = Coefficients(0.0, 0.0)
TWO_PI_SQ = 2 * np.pi**2


# ---------------------------------------------------------------------------
# connection and curvature variations
# ---------------------------------------------------------------------------


def fd_christoffel_variation(base, h, X, t=1e-3):
    def gam(tt):
        f = linear_combination_metric(base, h, tt)
        return christoffel_arrays(f.eval_grid(X), f.d1_grid(X))

    d1 = (gam(t) - gam(-t)) / (2 * t)
    d2 = (gam(t / 2) - gam(-t / 2)) / t
    return (4 * d2 - d1) / 3


def test_christoffel_variation_flat_linear(torus3):
    # base flat, h = x^1 * identity in n = 2: the only variation is 1/2
    t2 = make_model("torus", 2)

    def ev(X):
        return X[:, 0, None, None] * np.eye(2)[None]

    def d1(X):
        out = np.zeros((X.shape[0], 2, 2, 2))
        out[:, 0, 0, 0] = 1.0
        out[:, 1, 1, 0] = 1.0
        return out

    h = SymTensorField(
        domain=t2.domain,
        _jet=lambda X, order: [ev(X), d1(X), np.zeros((X.shape[0],) + (2,) * 4)][: order + 1],
        name="x1 delta",
    )
    dG = christoffel_variation(t2, h, [0.4, 0.7])
    assert dG[0, 0, 0] == pytest.approx(0.5, abs=1e-14)


def test_christoffel_variation_conformal_constant(sphere3):
    dG = christoffel_variation(
        sphere3, metric_as_sym_tensor(sphere3), [[1.1, 0.9, 2.0]]
    )
    assert np.abs(dG).max() < 1e-13


def test_christoffel_variation_matches_fd(torus3):
    h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    X = np.random.default_rng(3).uniform(0, 1, (6, 3))
    dG = christoffel_variation(torus3, h, X)
    assert np.abs(dG - fd_christoffel_variation(torus3, h, X)).max() < 1e-5


def fd_curvature_variations(base, h, X, t=1e-3):
    bp = curvature(linear_combination_metric(base, h, t), X)
    bm = curvature(linear_combination_metric(base, h, -t), X)
    return {
        "dRm13": (bp.Rm13 - bm.Rm13) / (2 * t),
        "dRm4": (bp.Rm4 - bm.Rm4) / (2 * t),
        "dRic": (bp.Ric - bm.Ric) / (2 * t),
        "dR": (bp.R - bm.R) / (2 * t),
    }


@pytest.mark.parametrize("model,maker", [
    ("torus", lambda rng: random_torus_sym_tensor(3, rng)),
    ("sphere", lambda rng: random_sphere_sym_tensor(3, rng, amplitude=0.3)),
])
def test_curvature_variations_match_fd(model, maker):
    base = make_model(model, 3)
    h = maker(np.random.default_rng(17))
    X = random_probes(base.domain, np.random.default_rng(18), count=5)
    an = curvature_variations(base, h, X)
    fd = fd_curvature_variations(base, h, X)
    for key in ("dRm13", "dRm4", "dRic", "dR"):
        scale = max(1.0, np.abs(fd[key]).max())
        assert np.abs(an[key] - fd[key]).max() / scale < 1e-4


def test_scalar_variation_conformal_flat(torus3):
    # R' = -(n-1) Lap f for h = f g at a flat base
    f = cosine_scalar_field(torus3.domain, (1, 0, 0))
    h = conformal_tensor(torus3, f)
    X = np.array([[0.2, 0.1, 0.7], [0.55, 0.8, 0.05]])
    dR = curvature_variations(torus3, h, X)["dR"]
    lap_f = -((2 * np.pi) ** 2) * np.cos(2 * np.pi * X[:, 0])
    assert np.abs(dR - (-(3 - 1) * lap_f)).max() < 1e-10


def test_conformal_factor_must_match_the_base_dimension():
    # the S^3 harmonic's jet would read the first three of four coordinates
    # as Euler angles
    with pytest.raises(DimensionError, match="dimension 3 on a base of dimension 4"):
        conformal_tensor(make_model("sphere", 4), s3_first_harmonic())


def test_conformal_factor_must_be_a_scalar_field(euler3):
    with pytest.raises(DimensionError, match="must be a ScalarField, got SymTensorField"):
        conformal_tensor(euler3, s3_invariant_tt((2.0, -1.0, -1.0)))


def test_scalar_variation_tt_sphere(euler3):
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    X = random_probes(euler3.domain, np.random.default_rng(19), count=8)
    dR = curvature_variations(euler3, h, X)["dR"]
    assert np.abs(dR).max() < 1e-8


def cov_grad_of_map(field, fn, valence, X, rel_step=FIELD_FD_REL_STEP):
    """FD oracle: covariant derivative of a computed covariant tensor field.

    ``fn`` maps points to (M, n^valence) component arrays; partials come
    from 4th-order central differences and one connection correction is
    applied per slot.  The derivative index is appended last.
    """
    steps = np.full(field.dimension, rel_step * float(np.min(field.domain.extents)))
    out = fd_partials(fn, X, steps)
    T = np.asarray(fn(X))
    Gamma = christoffel_arrays(field.eval_grid(X), field.d1_grid(X))
    comp = "ijkl"[:valence]
    for s in range(valence):
        t_sub = "a" + comp[:s] + "p" + comp[s + 1 :]
        out = out - np.einsum(f"apm{comp[s]},{t_sub}->a{comp}m", Gamma, T)
    return out


def test_ricci_derivative_variation_identity(euler3):
    # (R_ij,k)' = (R_ij')_,k - lam (n-1) h_ij,k at a space form, against FD
    from curvlab.tensors import sym_tensor_cov_derivs

    h = s3_invariant_tt((1.0, 1.0, -2.0))
    X = random_probes(euler3.domain, np.random.default_rng(20), count=4)

    def dric_field(Y):
        return curvature_variation_arrays(euler3, h, Y)["dRic"]

    lhs = cov_grad_of_map(euler3, dric_field, 2, X)  # (R_ij')_,k
    _, Dh, _, _ = sym_tensor_cov_derivs(euler3, h, X)
    rhs_expected = lhs - 1.0 * (3 - 1) * Dh  # (R_ij,k)' per the identity

    # FD oracle for (R_ij,k)': difference covariant derivatives of Ricci
    def cov_ric(tt):
        f = linear_combination_metric(euler3, h, tt)

        def ric_map(Y):
            return curvature(f, Y).Ric

        return cov_grad_of_map(f, ric_map, 2, X)

    t = 2e-3
    fd = (cov_ric(t) - cov_ric(-t)) / (2 * t)
    assert np.abs(fd - rhs_expected).max() < 1e-4


# ---------------------------------------------------------------------------
# gradient, first variation, Euler-Lagrange
# ---------------------------------------------------------------------------


def test_gradient_flat_vanishes(torus3):
    G = gradient_tensor(torus3, [0.5, 0.5, 0.5], Coefficients(1.0, 2.0))
    assert np.abs(G.grad_total).max() < 1e-9


def test_gradient_space_form_constant(sphere3):
    X = random_probes(sphere3.domain, np.random.default_rng(30), count=5)
    for s, tau in ((0.0, 0.0), (1.5, -0.5)):
        G = gradient_tensor(sphere3, X, Coefficients(s, tau)).grad_total
        c = (3 - 4) * (3 - 1) * (2 + s * 2 + tau * 6) / 2
        assert np.abs(G - c * sphere3.eval_grid(X)).max() < 1e-7


def test_gradient_vanishes_at_n4_space_form(sphere4):
    X = random_probes(sphere4.domain, np.random.default_rng(31), count=4)
    G = gradient_tensor(sphere4, X, Coefficients(0.7, 0.3)).grad_total
    assert np.abs(G).max() < 1e-8


def _explicit_gradient_parts(ing, coeff):
    """The gradient as its terms were once written out by hand, each energy
    one expression: the oracle of the term table."""
    b = ing["bundle"]
    g = b.g
    gR = (
        -2 * b.A1
        + 2 * ing["hess_R"]
        - 4 * ing["lap_ric"]
        - 4 * b.B
        + 4 * b.ric2
        + 0.5 * b.normRm2[:, None, None] * g
    )
    gRic = (
        -ing["lap_ric"]
        - 2 * b.B
        + ing["hess_R"]
        - 0.5 * ing["lap_R"][:, None, None] * g
        + 0.5 * b.normRic2[:, None, None] * g
    )
    gS = (
        2 * ing["hess_R"]
        - 2 * ing["lap_R"][:, None, None] * g
        - 2 * b.R[:, None, None] * b.Ric
        + 0.5 * (b.R**2)[:, None, None] * g
    )
    return gR, gRic, gS, gR + coeff.s * gRic + coeff.tau * gS


@pytest.mark.parametrize("use_structure", [True, False])
@pytest.mark.parametrize("kind", ["random torus metric", "sphere", "torus", "s3-euler"])
def test_gradient_parts_are_the_explicit_sums_bit_for_bit(kind, use_structure):
    # the table's rows, summed from the first, give the same bits as the
    # explicit expressions, signs of zeros included (flat T^3 is all zeros)
    if kind == "random torus metric":
        base = random_torus_metric(3, np.random.default_rng(3))
    else:
        base = make_model(kind, 3)
    X = random_probes(base.domain, np.random.default_rng(4), count=24)
    coeff = Coefficients(0.7, -0.4)
    ing = gradient_ingredients(base, X, use_structure=use_structure)
    got = _gradient_parts(ing, coeff)
    for name, want in zip(
        ("grad_riemann", "grad_ricci", "grad_scalar", "grad_total"),
        _explicit_gradient_parts(ing, coeff),
    ):
        assert getattr(got, name).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("part", list(variations._GRADIENT_ROWS))
def test_changing_one_table_coefficient_fails_the_gradient_check(part, monkeypatch):
    # the table is what G sums: a wrong coefficient on a term that is nonzero
    # on S^3 (the last row of each energy, a multiple of g) fails every row
    coeff = Coefficients(0.7, -0.4)
    rows = gradient_case("s3", 3, coeff, count=3, seed=1)
    assert all(r["rel_err"] <= 1e-4 for r in rows)
    *head, (c, name) = variations._GRADIENT_ROWS[part]
    monkeypatch.setitem(variations._GRADIENT_ROWS, part, (*head, (c + 0.5, name)))
    rows = gradient_case("s3", 3, coeff, count=3, seed=1)
    assert all(r["rel_err"] > 1e-4 for r in rows), rows


def test_identity_suites_check_the_terms_of_the_table(euler3):
    table = [name for rows in variations._GRADIENT_ROWS.values() for _, name in rows]
    grid = build_grid(euler3.domain, (6, 8, 8))
    terms = variations._gradient_terms(gradient_ingredients(euler3, grid.nodes[:4]))
    assert set(table) == set(terms) and len(terms) == 10
    for checks in (
        tt_identity_suite(euler3, s3_invariant_tt((2.0, -1.0, -1.0)), grid),
        conformal_identity_suite(euler3, s3_first_harmonic(), grid),
    ):
        assert [c.name for c in checks] == list(terms)


def test_generic_curvature_derivatives_vanish_on_space_form(euler3, euler3_grid):
    # the exact-jet path, without the parallel-curvature shortcut: Lap Ric and
    # Hess R are 0 on the round S^3 up to roundoff at the near-pole Gauss ring
    ing = gradient_ingredients(euler3, euler3_grid.nodes, use_structure=False)
    for key in ("lap_ric", "hess_R", "lap_R"):
        assert np.abs(ing[key]).max() < 3e-6, key  # worst measured 3.1e-7


# Worst Lap Ric, Hess R and Lap R on the first 192 nodes (two Hessian blocks)
# of the (4, ..., 4, 6) grid of the unit S^4 and S^5, measured with the
# forward-substitution jets (2-core host): 1.24e-9, 2.88e-9, 9.7e-7 (n = 4)
# and 2.81e-8, 6.93e-8, 4.9e-4 (n = 5), against 2.83e-9, 3.11e-9, 1.2e-6 and
# 5.47e-8, 6.98e-8, 5.7e-4 with the inverse-metric jet.  The gates are twice
# the first figures; Lap R carries the g^kk near the poles, up to 1e6.
GENERIC_SPHERE_GATES = {4: (2.5e-9, 6e-9, 2e-6), 5: (6e-8, 1.5e-7, 1e-3)}


@pytest.mark.parametrize("n", sorted(GENERIC_SPHERE_GATES))
def test_generic_curvature_derivatives_vanish_on_round_spheres(n):
    sphere = make_model("sphere", n)
    X = build_grid(sphere.domain, (4,) * (n - 1) + (6,)).nodes[:192]
    ing = gradient_ingredients(sphere, X, use_structure=False)
    for key, gate in zip(("lap_ric", "hess_R", "lap_R"), GENERIC_SPHERE_GATES[n]):
        assert np.abs(ing[key]).max() <= gate, key


def test_complex_step_through_generic_gradient_ingredients():
    # the identity suites read their primes as Im X(g + i eps h) / eps off the
    # generic exact-jet path; a Richardson central difference in t is the
    # oracle, and a dropped imaginary part (ComplexWarning) is an error
    rng = np.random.default_rng(43)
    base = random_torus_metric(3, rng)
    h = random_torus_sym_tensor(3, rng)
    X = random_probes(base.domain, rng, count=8)

    def parts(t):
        ing = gradient_ingredients(linear_combination_metric(base, h, t), X)
        b = ing["bundle"]
        return {"lap_ric": ing["lap_ric"], "hess_R": ing["hess_R"],
                "lap_R": ing["lap_R"], "A1": b.A1, "B": b.B, "ric2": b.ric2}

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = {k: v.imag / COMPLEX_STEP for k, v in parts(1j * COMPLEX_STEP).items()}
    dt = 1e-4
    p1, m1, p2, m2 = parts(dt), parts(-dt), parts(dt / 2), parts(-dt / 2)
    for key, d in step.items():
        coarse = (p1[key] - m1[key]) / (2 * dt)
        fine = (p2[key] - m2[key]) / dt
        oracle = (4 * fine - coarse) / 3
        # worst measured 1.4e-12 (hess_R), the roundoff of the differences
        assert np.abs(d - oracle).max() <= 1e-10 * np.abs(oracle).max(), key


def test_first_variation_zero_directions(torus3, torus3_grid, euler3, euler3_grid):
    # critical space form, TT direction
    on_euler = _first_variation_pairing(
        gradient_ingredients(euler3, euler3_grid.nodes), euler3_grid, C00
    )
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    assert abs(on_euler(h)) < 1e-7
    # flat base, any direction
    hr = random_torus_sym_tensor(3, np.random.default_rng(32))
    ing = gradient_ingredients(torus3, torus3_grid.nodes)
    assert abs(_first_variation_pairing(ing, torus3_grid, C00)(hr)) < 1e-9
    # mean-zero conformal direction on the sphere
    f = s3_first_harmonic()
    hc = conformal_tensor(euler3, f)
    assert abs(on_euler(hc)) < 1e-6


def test_first_variation_matches_fd_on_random_directions(torus3, sphere3):
    rng = np.random.default_rng(33)
    coeff = Coefficients(0.4, -0.6)
    tg = build_grid(torus3.domain, 8)
    sg = build_grid(sphere3.domain, (10, 10, 12))
    on_torus = _first_variation_pairing(gradient_ingredients(torus3, tg.nodes), tg, coeff)
    on_sphere = _first_variation_pairing(gradient_ingredients(sphere3, sg.nodes), sg, coeff)
    for _ in range(3):
        ht = random_torus_sym_tensor(3, rng)
        d1a = on_torus(ht)
        d1n = first_variation_numeric(torus3, tg, ht, coeff)
        assert abs(d1a - d1n) <= 1e-4 * max(1.0, abs(d1a))
        hs = random_sphere_sym_tensor(3, rng)
        d1a = on_sphere(hs)
        d1n = first_variation_numeric(sphere3, sg, hs, coeff)
        assert abs(d1a - d1n) <= 1e-4 * max(1.0, abs(d1a))


def test_gradient_on_generic_metric():
    # away from critical points Lap Ric, Hess R and Lap R are nonzero, so a
    # wrong coefficient on any term of the gradient shows; the metric and the
    # direction share their wave vectors, so <G, h> does not integrate to 0
    base = random_torus_metric(3, np.random.default_rng(5), amplitude=0.08)
    h = random_torus_sym_tensor(3, np.random.default_rng(5))
    grid = build_grid(base.domain, 10)
    unit = to_unit_volume(base, grid)
    X = grid.nodes
    ing = gradient_ingredients(unit, X)
    b = ing["bundle"]
    measure = grid.weights * b.sqrt_det
    ing_base = gradient_ingredients(base, X)
    for s, tau in ((0.0, 0.0), (0.5, -0.3), (-1.7, 2.2)):
        coeff = Coefficients(s, tau)
        d1a = _first_variation_pairing(ing_base, grid, coeff)(h)
        d1n = first_variation_numeric(base, grid, h, coeff)
        # measured 2.4e-4, 2.8e-4 and 6.5e-5
        assert abs(d1a - d1n) <= 1e-3 * abs(d1n), (s, tau)
        # the Euler-Lagrange tensor is the trace-free part of G ...
        G = _gradient_parts(ing, coeff).grad_total
        E = G - _trace_multiplier(ing, coeff)[:, None, None] * b.g
        tr_E = np.einsum("aij,aij->a", b.ginv, E)
        assert np.abs(tr_E).max() <= 1e-10 * np.abs(G).max(), (s, tau)
        res, c = el_residual(unit, grid, coeff, ingredients=ing)
        assert res == np.abs(E).max() and res > 0.1 * np.abs(G).max()
        # ... and the multiplier the volume mean of tr_g G / n
        tr_G = np.einsum("aij,aij->a", b.ginv, G) / 3
        mean = np.sum(measure * tr_G) / np.sum(measure)
        assert abs(c - mean) <= 1e-12 * abs(mean), (s, tau)


def test_el_residual_space_forms(sphere4, torus3, torus3_grid, sphere3):
    grid4 = build_grid(sphere4.domain, (6, 6, 6, 8))
    u4 = to_unit_volume(sphere4, grid4)
    res, c = el_residual(u4, grid4, Coefficients(1.2, -0.4))
    assert res < 1e-6 and abs(c) < 1e-8

    res_t, c_t = el_residual(torus3, torus3_grid, Coefficients(2.0, 3.0))
    assert res_t == 0.0 and c_t == 0.0

    grid3 = build_grid(sphere3.domain, (8, 8, 12))
    u3 = to_unit_volume(sphere3, grid3)
    res3, c3 = el_residual(u3, grid3, C00)
    lam = u3.lam
    assert res3 < 1e-6
    # dual route: trace constant equals the gradient-tensor proportionality
    c_direct = _lagrange_constant(gradient_ingredients(u3, grid3.nodes), grid3, C00)
    assert abs(c3 - c_direct) < 1e-12
    assert abs(c3 - (-(2.0) * lam**2)) <= 1e-8 * max(1.0, 2 * lam**2)


def test_el_residual_requires_unit_volume(sphere3):
    grid = build_grid(sphere3.domain, (8, 8, 12))
    with pytest.raises(PreconditionError):
        el_residual(sphere3, grid, C00)


def test_integrals_refuse_the_poincare_chart(poincare3):
    # the chart covers a non-compact model: a sum against its quadrature
    # weights is no integral, even on a box where every term is finite;
    # every entry point that sums over a grid refuses it
    grid = build_grid(poincare3.domain, 4)
    f = cosine_scalar_field(poincare3.domain, (1, 0, 0))
    h = conformal_tensor(poincare3, f)
    refusals = {
        "evaluate": lambda: evaluate(poincare3, grid, C00),
        "volume": lambda: volume(poincare3, grid),
        "to_unit_volume": lambda: to_unit_volume(poincare3, grid),
        "first_variation_numeric": lambda: first_variation_numeric(poincare3, grid, h, C00),
        "second_variation_numeric": lambda: second_variation_numeric(
            PerturbationFamily(poincare3, h), grid, C00
        ),
        "scale_factor": lambda: PerturbationFamily(poincare3, h).scale_factor(0.1, grid),
        "decomposition_residual": lambda: decomposition_residual(poincare3, grid),
        "rayleigh_lichnerowicz": lambda: rayleigh_lichnerowicz(poincare3, h, grid),
        "_lagrange_constant": lambda: _lagrange_constant(
            gradient_ingredients(poincare3, grid.nodes), grid, C00
        ),
        "conformal_identity_suite": lambda: conformal_identity_suite(poincare3, f, grid),
        "_first_variation_pairing": lambda: _first_variation_pairing(
            gradient_ingredients(poincare3, grid.nodes), grid, C00
        ),
        "el_residual": lambda: el_residual(poincare3, grid, C00),
        "symmetrization_energies": lambda: symmetrization_energies(poincare3, h, grid),
    }
    for name, call in refusals.items():
        with pytest.raises(GlobalIntegralUnsupportedError):
            call()
            pytest.fail(name)


def test_einstein_criticality(sphere3, torus3, torus3_grid):
    grid = build_grid(sphere3.domain, (8, 8, 12))
    assert einstein_criticality_defect(sphere3, grid) < 1e-8
    assert einstein_criticality_defect(torus3, torus3_grid) == 0.0
    # product of two round S^2 factors: Einstein and critical
    dom = ChartDomain(
        4,
        ((0.0, np.pi), (0.0, 2 * np.pi), (0.0, np.pi), (0.0, 2 * np.pi)),
        (False, True, False, True),
        SPHERE_ANGULAR,
    )
    a, b, c, d = sp.symbols("a b c d")
    gm = sp.diag(1, sp.sin(a) ** 2, 1, sp.sin(c) ** 2)
    prod = sympy_oracle.sympy_metric_field(dom, (a, b, c, d), gm, name="S2xS2")
    pgrid = build_grid(dom, (8, 12, 8, 12))
    assert einstein_criticality_defect(prod, pgrid) < 1e-7


def test_criticality_rejects_non_einstein():
    from curvlab.fields import random_torus_metric

    pm = random_torus_metric(3, np.random.default_rng(34), amplitude=0.08)
    grid = build_grid(pm.domain, 6)
    with pytest.raises(PreconditionError):
        einstein_criticality_defect(pm, grid)


# ---------------------------------------------------------------------------
# perturbation families and second variations
# ---------------------------------------------------------------------------


def _family_t_derivative(fam, X, grid, order, dt=1e-3):
    """Richardson-extrapolated central t-derivative (first or second order)
    of the metric along a perturbation family."""

    def diff(step):
        gp = metric_at(fam, step, grid).eval_grid(X)
        gm = metric_at(fam, -step, grid).eval_grid(X)
        if order == 1:
            return (gp - gm) / (2 * step)
        return (gp - 2 * fam.base.eval_grid(X) + gm) / step**2

    return (4 * diff(dt / 2) - diff(dt)) / 3


def test_family_volume_and_identities(euler3, euler3_grid):
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    fam = PerturbationFamily(euler3, h)
    v0 = volume(euler3, euler3_grid)
    for t in (0.03, -0.06):
        assert volume(metric_at(fam, t, euler3_grid), euler3_grid) == pytest.approx(
            v0, abs=1e-10 * v0
        )
    assert metric_at(fam, 0.0, euler3_grid) is euler3

    X = euler3_grid.nodes
    v1 = _family_t_derivative(fam, X, euler3_grid, order=1)
    v2 = _family_t_derivative(fam, X, euler3_grid, order=2)
    g0 = euler3.eval_grid(X)
    gi = np.linalg.inv(g0)
    meas = euler3_grid.weights * sqrt_det_grid(euler3, euler3_grid)
    trh = np.einsum("aij,aij->a", gi, v1)
    assert abs(np.sum(meas * trh)) < 1e-8
    hup = raise_all(v1, gi, (0, 1))
    h2 = np.einsum("aij,aij->a", v1, hup)
    second = np.einsum("aij,aij->a", gi, v2)
    assert abs(np.sum(meas * (second - h2 + 0.5 * trh**2))) < 1e-6


def test_second_variation_preconditions(torus3, torus3_grid):
    h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    pm = random_torus_metric(3, np.random.default_rng(35), amplitude=0.05)
    with pytest.raises(PreconditionError):
        second_variation_numeric(
            PerturbationFamily(pm, h), torus3_grid, C00
        )
    # t_step**4 must be a positive normal float: 1e-100 underflows it to 0
    for bad in (0.0, -1e-3, np.nan, np.inf, 1e-100, 1e-300, 1e300):
        with pytest.raises(PreconditionError):
            second_variation_numeric(PerturbationFamily(torus3, h), torus3_grid, C00, bad)


def test_second_variation_along_a_flat_deformation(torus3, torus3_grid):
    # a constant h keeps the torus flat, so F is identically 0 along it: the
    # value is exactly 0 and its relative error has no scale
    A = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 0.3]])
    h = trig_sym_tensor_field(torus3.domain, [((0, 0, 0), A, np.zeros((3, 3)))])
    d2 = second_variation_numeric(PerturbationFamily(torus3, h), torus3_grid, C00)
    assert d2 == (0.0, np.inf)


def _richardson_second_variation(family, grid, coeff, t_step=2.5e-3):
    """Richardson-extrapolated central second difference of F along the
    family (error of order t_step^4), the independent oracle of the rotated
    complex step."""
    F0 = evaluate(family.base, grid, coeff).F

    def D(dt):
        Fp, Fm = (evaluate(metric_at(family, t, grid), grid, coeff).F for t in (dt, -dt))
        return (Fp - 2 * F0 + Fm) / dt**2

    return (4 * D(t_step / 2) - D(t_step)) / 3


@pytest.mark.parametrize("n, res", [(3, (10, 10, 12)), (4, (6, 6, 6, 8)), (5, (4, 4, 4, 4, 6))])
def test_rotated_step_matches_richardson_oracle(n, res):
    # random pullback directions are not volume-neutral, so a(t) and the
    # exponent (n - 4)/n of the scaling law enter (n = 4: F is scale-free)
    base = make_model("sphere", n)
    grid = build_grid(base.domain, res)
    fam = PerturbationFamily(base, random_sphere_sym_tensor(n, np.random.default_rng(41)))
    coeff = Coefficients(0.7, -0.4)
    d2 = second_variation_numeric(fam, grid, coeff).value
    oracle = _richardson_second_variation(fam, grid, coeff)
    # measured 1.4e-9, 2.0e-9 and 6.8e-9: the oracle's own error
    assert abs(d2 - oracle) <= 1e-7 * abs(oracle)


@pytest.mark.parametrize("model", HESSIAN_MODELS)
@pytest.mark.parametrize("s, tau", [(0.0, 0.0), (0.7, -0.4), (-3.0, 1.0)])
def test_second_variation_error_estimate(model, s, tau):
    report = hessian_case(model, Coefficients(s, tau))
    err, est = report.rel_err_d2, report.d2_rel_err_estimate
    # measured est / err from 0.93 to 3.4
    assert err / 30 <= est <= 30 * err


def _hessian_inputs(model):
    """(base, h, grid resolution) of each verify.hessian_case model."""
    if model == "s3-invariant":
        return make_model("s3-euler", 3), s3_invariant_tt((2.0, -1.0, -1.0)), (12, 12, 16)
    base = make_model("torus", 3)
    if model == "torus-tt":
        h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    else:
        h = conformal_tensor(base, cosine_scalar_field(base.domain, (1, 0, 0)))
    return base, h, (16, 8, 8)


@pytest.mark.parametrize("model", HESSIAN_MODELS)
def test_hessian_case_integrates_the_base_once(model, monkeypatch):
    # the case takes its second variation from second_variation_numeric, as
    # every other caller does: one quadrature pass of the base, the same bits
    coeff = Coefficients(0.5, -0.3)
    integrated, real = [], variations._integrals

    def spy(field, *args, **kwargs):
        integrated.append(field.name)
        return real(field, *args, **kwargs)

    monkeypatch.setattr(variations, "_integrals", spy)
    report = hessian_case(model, coeff)
    monkeypatch.undo()
    base, h, res = _hessian_inputs(model)
    assert len(integrated) == 4 and integrated.count(base.name) == 1  # d1, F(g), phi(+-w)
    d2 = second_variation_numeric(PerturbationFamily(base, h), build_grid(base.domain, res), coeff)
    assert (report.d2_numeric, report.d2_rel_err_estimate) == (d2.value, d2.rel_err_estimate)


def test_torus_tt_second_variation(torus3):
    grid = build_grid(torus3.domain, (16, 8, 8))
    h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    fam = PerturbationFamily(torus3, h)
    d2 = second_variation_numeric(fam, grid, C00)
    # measured 1.2e-12
    assert d2.value == pytest.approx(2 * (2 * np.pi) ** 4, rel=5e-11)
    # sign flips across s = -4
    assert second_variation_numeric(fam, grid, Coefficients(-3.5, 0.0)).value > 0
    assert second_variation_numeric(fam, grid, Coefficients(-4.5, 0.0)).value < 0


def test_torus_conformal_second_variation(torus3):
    grid = build_grid(torus3.domain, (16, 8, 8))
    f = cosine_scalar_field(torus3.domain, (1, 0, 0))
    fam = PerturbationFamily(torus3, conformal_tensor(torus3, f))
    d2 = second_variation_numeric(fam, grid, C00)
    # measured 3.9e-12
    assert d2.value == pytest.approx(2 * (2 * np.pi) ** 4, rel=5e-11)


def test_s3_tt_second_variation(euler3):
    grid = build_grid(euler3.domain, (12, 12, 16))
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    fam = PerturbationFamily(euler3, h)
    d2 = second_variation_numeric(fam, grid, C00)
    predicted = second_variation_tt_predicted(3, 1, 12.0, C00, 6 * TWO_PI_SQ)
    assert predicted == pytest.approx(13264.748315, abs=1e-4)
    # measured 6.5e-11
    assert abs(d2.value - predicted) / predicted < 2e-9
    # region signs from the classification theorems
    assert second_variation_numeric(fam, grid, Coefficients(2.0, 0.5)).value > 0
    assert second_variation_numeric(fam, grid, Coefficients(-6.0, 2.0)).value < 0


def test_s3_conformal_second_variation_second_harmonic(euler3):
    # mean-zero eigenfunction with -Lap f = 8 f exercises the conformal path
    grid = build_grid(euler3.domain, (12, 12, 16))
    f = s3_second_harmonic()
    fam = PerturbationFamily(euler3, conformal_tensor(euler3, f))
    d2 = second_variation_numeric(fam, grid, C00)
    f2 = TWO_PI_SQ / 16
    predicted = second_variation_conformal_predicted(3, 1, 8.0, C00, f2)
    assert predicted == pytest.approx(140 * TWO_PI_SQ / 16, rel=1e-12)
    # measured 1.4e-10, estimated 1.8e-9
    err = abs(d2.value - predicted) / abs(predicted)
    assert err < 2e-9
    assert err / 30 <= d2.rel_err_estimate <= 30 * err


def test_predicted_formulas_and_domains():
    assert second_variation_tt_predicted(
        3, 1, 12.0, C00, 6 * TWO_PI_SQ
    ) == pytest.approx(112 * 6 * TWO_PI_SQ, rel=1e-12)
    # factor root at the structural floor
    assert second_variation_tt_predicted(4, 1, 6.0, C00, 1.0) == 0.0
    # (1 + s/4) root for flat TT modes
    assert second_variation_tt_predicted(
        3, 0, (2 * np.pi) ** 2, Coefficients(-4.0, 1.0), 1.0
    ) == 0.0
    with pytest.raises(EigenvalueRangeError):
        second_variation_tt_predicted(3, 1, 3.0, C00, 1.0)
    with pytest.raises(EigenvalueRangeError):
        second_variation_tt_predicted(3, -1, -4.0, C00, 1.0)
    with pytest.raises(EigenvalueRangeError):
        second_variation_tt_predicted(3, 0, -1.0, C00, 1.0)

    mu = (2 * np.pi) ** 2
    assert second_variation_conformal_predicted(
        3, 0, mu, C00, 0.5
    ) == pytest.approx(2 * (2 * np.pi) ** 4, rel=1e-12)
    # root of the positive-curvature polynomial at mu = n
    assert second_variation_conformal_predicted(4, 1, 4.0, C00, 1.0) == 0.0
    # flat conformal coefficient vanishes exactly on s + 4 tau = 4 (tau-1)/n
    n, tau = 3, 0.7
    s_zero = 4 * (tau - 1) / n - 4 * tau
    assert (
        second_variation_conformal_predicted(
            n, 0, mu, Coefficients(s_zero, tau), 1.0
        )
        == pytest.approx(0.0, abs=1e-12)
    )
    with pytest.raises(EigenvalueRangeError):
        second_variation_conformal_predicted(3, 1, 2.0, C00, 1.0)
    with pytest.raises(EigenvalueRangeError):
        second_variation_conformal_predicted(3, -1, -1.0, C00, 1.0)


def _integral_norm2(base, h, grid):
    ginv = np.linalg.inv(base.eval_grid(grid.nodes))
    return np.sum(grid.weights * sqrt_det_grid(base, grid) * norm2_02(h.eval_grid(grid.nodes), ginv))


def test_second_variation_matches_gradient_route(euler3):
    # d2 F = int (dG/dt) h dV - c int |h|^2 dV along the rescaled family
    grid = build_grid(euler3.domain, (8, 12, 16))
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    fam = PerturbationFamily(euler3, h)
    X = grid.nodes
    dt = 5e-3
    Gp = gradient_tensor(metric_at(fam, dt, grid), X, C00).grad_total
    Gm = gradient_tensor(metric_at(fam, -dt, grid), X, C00).grad_total
    dG = (Gp - Gm) / (2 * dt)
    gi = np.linalg.inv(euler3.eval_grid(X))
    hup = raise_all(h.eval_grid(X), gi, (0, 1))
    meas = grid.weights * sqrt_det_grid(euler3, grid)
    term = np.sum(meas * np.einsum("aij,aij->a", dG, hup))
    c = _lagrange_constant(gradient_ingredients(euler3, grid.nodes), grid, C00)
    pred = term - c * _integral_norm2(euler3, h, grid)
    d2 = second_variation_numeric(fam, grid, C00).value
    assert abs(d2 - pred) / abs(d2) < 0.01


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def test_tt_identity_suite(euler3):
    grid = build_grid(euler3.domain, (8, 12, 16))
    checks = tt_identity_suite(euler3, s3_invariant_tt((2.0, -1.0, -1.0)), grid)
    by_name = {c.name: c for c in checks}
    assert len(checks) == 10
    for c in checks:
        # relative to the largest |rhs|: worst measured 7.6e-11 (ricci_laplacian)
        assert c.rel_err < 5e-10, c
    # frozen closed-form value for the invariant mode
    assert by_name["riemann_product"].lhs == pytest.approx(
        120 * TWO_PI_SQ, rel=1e-4
    )
    assert by_name["scalar_hessian"].rhs == 0.0
    assert by_name["riem_norm_metric"].rhs == pytest.approx(
        2 * 3 * 2 * 6 * TWO_PI_SQ, rel=1e-12
    )


def test_tt_suite_rejects_non_tt(euler3, euler3_grid):
    f = s3_first_harmonic()
    with pytest.raises(PreconditionError):
        tt_identity_suite(euler3, conformal_tensor(euler3, f), euler3_grid)


def test_conformal_identity_suite(euler3):
    grid = build_grid(euler3.domain, (8, 12, 16))
    checks = conformal_identity_suite(euler3, s3_first_harmonic(), grid)
    assert len(checks) == 10
    for c in checks:
        # relative to the largest |rhs|: worst measured 3.3e-10 (scalar_laplacian_metric)
        assert c.rel_err < 1.5e-9, c


def test_suites_require_space_form():
    from curvlab.fields import random_torus_metric

    pm = random_torus_metric(3, np.random.default_rng(36), amplitude=0.05)
    grid = build_grid(pm.domain, 6)
    h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    with pytest.raises(PreconditionError):
        tt_identity_suite(pm, h, grid)


def test_space_form_shortcut_holds_at_a_large_radius():
    # relative deviation 5.6e-17 on the radius-1e4 S^4: judged against
    # max(1, |lam|) the shortcut was refused and Lap Ric came back as 3e-22
    base = make_model("sphere", 4, radius=1e4)
    ing = gradient_ingredients(base, build_grid(base.domain, 4).nodes)
    for key in ("lap_ric", "hess_R", "lap_R"):
        assert not ing[key].any(), key


def test_identity_suite_accepts_a_large_round_sphere():
    # the radius-1e6 Euler S^3 deviates by 3.3e-3 from its model tensor,
    # a roundoff of |lam| max|g|^2 = 6.25e10; the suites refused it
    base = make_model("s3-euler", 3, radius=1e6)
    grid = build_grid(base.domain, (8, 12, 16))
    checks = tt_identity_suite(base, s3_invariant_tt((2.0, -1.0, -1.0), radius=1e6), grid)
    scale = max(max(abs(c.lhs), abs(c.rhs)) for c in checks)
    for c in checks:
        assert abs(c.lhs - c.rhs) <= 1e-8 * scale, c  # worst measured 1.5e-10


def test_identity_gate_is_relative_to_the_suite_size():
    # on the radius-1e6 Euler S^3 the terms are about 1e-3: a gate with a
    # floor of 1 let a 10% error in one of them pass --tol 1e-4
    base = make_model("s3-euler", 3, radius=1e6)
    grid = build_grid(base.domain, (8, 12, 16))
    checks = tt_identity_suite(base, s3_invariant_tt((2.0, -1.0, -1.0), radius=1e6), grid)
    tol = 1e-4  # the check-identities default
    assert all(c.rel_err < 5e-10 for c in checks), checks
    lhs = {c.name: c.lhs for c in checks}
    rhs = {c.name: c.rhs for c in checks}
    assert _checks(lhs, rhs) == checks
    name = min((c for c in checks if c.rhs), key=lambda c: abs(c.rhs)).name  # ricci_riemann
    assert abs(rhs[name]) < 1e-3  # 9.5e-4
    rhs[name] *= 1.1
    failed = [c.name for c in _checks(lhs, rhs) if not c.rel_err <= tol]
    assert failed == [name]


def _ricci_variation_reference(hv, D2h, ginv, Ric):
    """The hand-derived Ric' and R' under (g_ij)' = h_ij:

        Ric'_ik = (h^j_{i,kj} + h^j_{k,ij} - (Lap h)_ik - (tr h)_{,ik}) / 2
        R' = h^{ij}_{,ij} - Lap tr h - h^{ij} R_ij
    """
    term1 = np.einsum("ajp,apikj->aik", ginv, D2h)
    term2 = np.einsum("ajp,apkij->aik", ginv, D2h)
    lap_h = np.einsum("akl,aijkl->aij", ginv, D2h)
    hess_H = np.einsum("apq,apqik->aik", ginv, D2h)
    dRic = 0.5 * (term1 + term2 - lap_h - hess_H)
    div2 = np.einsum("aip,ajq,apqij->a", ginv, ginv, D2h)
    lap_H = np.einsum("aik,aik->a", ginv, hess_H)
    dR = -np.einsum("aij,aij->a", raise_all(hv, ginv, (0, 1)), Ric) + div2 - lap_H
    return dRic, dR


def test_ricci_variation_arrays_match_reference_formulas(euler3):
    # the complex-step dRic and dR against the hand-derived linearisations
    from curvlab.tensors import sym_tensor_cov_derivs

    rng = np.random.default_rng(37)
    pm = random_torus_metric(3, rng)
    cases = [
        (euler3, s3_invariant_tt((2.0, -1.0, -1.0))),
        (pm, random_torus_sym_tensor(3, rng)),
    ]
    for base, h in cases:
        X = random_probes(base.domain, rng, count=40)
        hv, _, D2h, bundle = sym_tensor_cov_derivs(base, h, X)
        ginv = bundle.ginv
        Ric = curvature(base, X).Ric
        arrs = curvature_variation_arrays(base, h, X)
        want = _ricci_variation_reference(hv, D2h, ginv, Ric)
        # R' of the TT mode is 0 up to roundoff: relative to the size of the
        # terms it sums
        terms = np.einsum("aip,ajq,apqij->a", *map(np.abs, (ginv, ginv, D2h))).max()
        for name, b in zip(("dRic", "dR"), want):
            scale = max(np.abs(b).max(), terms if b.ndim == 1 else 0.0)
            assert np.abs(arrs[name] - b).max() <= 1e-13 * scale, (base.name, name)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_curvature_variations_keep_curvature_identities(n, seed):
    # dRm4 linearises a tensor with the symmetries of Rm4 and dR the trace
    # R = g^{ik} Ric_ik, whatever the metric and the direction
    rng = np.random.default_rng(seed)
    base = random_torus_metric(n, rng)
    h = random_torus_sym_tensor(n, rng)
    X = rng.uniform(0.0, 1.0, (4, n))
    arrs = curvature_variation_arrays(base, h, X)
    dRm = arrs["dRm4"]
    scale = np.abs(dRm).max()
    # both antisymmetries are exact by construction: Rm4 expands its pair matrix
    assert np.array_equal(dRm, -dRm.swapaxes(3, 4))
    assert np.array_equal(dRm, -dRm.swapaxes(1, 2))
    defects = {
        "pair": dRm - np.einsum("ajkli->alijk", dRm),
        "bianchi": dRm + np.einsum("aljki->alijk", dRm) + np.einsum("alkij->alijk", dRm),
    }
    for name, defect in defects.items():
        assert np.abs(defect).max() <= 1e-13 * scale, name
    b = curvature(base, X)
    trace_terms = (
        np.einsum("aik,aik->a", b.ginv, arrs["dRic"]),
        np.einsum("aik,aik->a", raise_all(h.eval_grid(X), b.ginv, (0, 1)), b.Ric),
    )
    scale = max(np.abs(t).max() for t in trace_terms)
    assert np.abs(arrs["dR"] - (trace_terms[0] - trace_terms[1])).max() <= 1e-13 * scale


def test_first_variation_numeric_flat_torus_direction():
    # F'(0) = 0 at the flat base; a Richardson difference at t_step 1e-2 was
    # off by 1.6e-4 on this direction, the complex step leaves roundoff
    base = make_model("torus", 3)
    grid = build_grid(base.domain, (10, 10, 10))
    rng = np.random.default_rng(1583431696)
    h = [random_torus_sym_tensor(3, rng) for _ in range(16)][15]
    assert abs(first_variation_numeric(base, grid, h, C00)) <= 1e-20


def _richardson_first_variation(base, grid, h, coeff, t_step=2.5e-3):
    """Three-level Richardson-extrapolated central difference of F along
    g + t h (error of order t_step^6), the independent oracle of the
    complex-step derivative."""

    def F(t):
        return evaluate(linear_combination_metric(base, h, t), grid, coeff).F

    def D(dt):
        return (F(dt) - F(-dt)) / (2 * dt)

    d1, d2, d3 = D(t_step), D(t_step / 2), D(t_step / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    return (16 * r2 - r1) / 15


@pytest.mark.parametrize("s, tau", [(0.0, 0.0), (0.7, -0.4), (-3.0, 1.0)])
def test_complex_step_matches_richardson_oracle(sphere3, s, tau):
    grid = build_grid(sphere3.domain, (10, 10, 12))
    h = random_sphere_sym_tensor(3, np.random.default_rng(41))
    coeff = Coefficients(s, tau)
    d1 = first_variation_numeric(sphere3, grid, h, coeff)
    oracle = _richardson_first_variation(sphere3, grid, h, coeff)
    # measured 8.2e-13, 6.1e-12 and 2.0e-12
    assert abs(d1 - oracle) <= 1e-9 * abs(oracle)
    # no step dependence: the O(t_step^2) error is far below roundoff
    tiny = first_variation_numeric(sphere3, grid, h, coeff, t_step=1e-40)
    assert abs(d1 - tiny) <= 1e-13 * abs(d1)
    for bad in (0.0, -1e-20, np.inf):
        with pytest.raises(PreconditionError):
            first_variation_numeric(sphere3, grid, h, coeff, t_step=bad)



def _complex_step_values(coeff):
    """First variations on S^3 and the torus and a second variation on the
    Euler S^3, all complex-step passes of F."""
    rng = np.random.default_rng(72)
    sphere, torus = make_model("sphere", 3), make_model("torus", 3)
    d1 = [
        first_variation_numeric(
            sphere, build_grid(sphere.domain, (5, 5, 8)), random_sphere_sym_tensor(3, rng), coeff
        ),
        first_variation_numeric(
            torus, build_grid(torus.domain, 6), random_torus_sym_tensor(3, rng), coeff
        ),
    ]
    euler = make_model("s3-euler", 3)
    family = PerturbationFamily(euler, s3_invariant_tt((2.0, -1.0, -1.0)))
    d2 = second_variation_numeric(family, build_grid(euler.domain, (6, 6, 8)), coeff)
    return [v.hex() for v in (*d1, d2.value, d2.rel_err_estimate)]


@pytest.mark.parametrize("s, tau", [(0.0, 0.0), (0.7, 0.0), (0.0, -0.4), (0.7, -0.4)])
def test_complex_step_passes_keep_the_bits_of_the_sum_over_all_parts(s, tau, monkeypatch):
    # F reads int |Ric|^2 only when s != 0 and int R^2 only when tau != 0;
    # the values keep the bits of F summed over all three parts
    coeff = Coefficients(s, tau)
    got = _complex_step_values(coeff)
    real = functionals._integrals
    monkeypatch.setattr(variations, "_integrals", lambda *a, **kw: real(*a, **kw, every=True))
    assert got == _complex_step_values(coeff)
    assert float.fromhex(got[0]) != 0.0 and float.fromhex(got[2]) != 0.0


def test_a_pass_of_F_builds_ricci_only_where_F_weighs_it(monkeypatch):
    # in the style of test_ricci_jets_invert_g_once_per_hessian_block
    calls = []
    for name in ("pair_ricci", "norm2_02"):
        real = getattr(tensors, name)
        monkeypatch.setattr(tensors, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    sphere = make_model("sphere", 3)
    grid = build_grid(sphere.domain, (5, 5, 8))
    h = random_sphere_sym_tensor(3, np.random.default_rng(73))
    expected = {(0.0, 0.0): set(), (0.7, 0.0): {"pair_ricci", "norm2_02"},
                (0.0, -0.4): {"pair_ricci"}, (0.7, -0.4): {"pair_ricci", "norm2_02"}}
    for (s, tau), names in expected.items():
        calls.clear()
        first_variation_numeric(sphere, grid, h, Coefficients(s, tau))
        assert set(calls) == names, (s, tau)
    # evaluate reports every part, so it reads both at s = tau = 0
    calls.clear()
    evaluate(sphere, grid, Coefficients())
    assert set(calls) == {"pair_ricci", "norm2_02"}
