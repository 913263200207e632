"""Prebuilt verification cases shared by the CLI and the test suite.

Each case bundles a model metric, a perturbation mode, a grid resolution and
the closed-form prediction it is checked against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy as sp

from .charts import build_grid, make_model
from .errors import ConfigurationError
from .fields import (
    ScalarField,
    SymTensorField,
    analytic_scalar_field,
    cosine_scalar_field,
    random_torus_sym_tensor,
    random_sphere_sym_tensor,
)
from .functionals import Coefficients
from .spectral import rayleigh_lichnerowicz, s3_invariant_tt, torus_tt_mode
from .variations import (
    PerturbationFamily,
    VariationReport,
    _first_variation_pairing,
    _lagrange_constant,
    conformal_identity_suite,
    conformal_tensor,
    first_variation_numeric,
    gradient_ingredients,
    second_variation_conformal_predicted,
    second_variation_numeric,
    second_variation_tt_predicted,
    tt_identity_suite,
)
from .tensors import curvature_grid, norm2_02, space_form_deviation

HESSIAN_MODELS = ("s3-invariant", "torus-tt", "torus-conformal")
CURVATURE_RES = {2: (16, 32), 3: (10, 10, 16), 4: (8, 8, 8, 12), 5: (6, 6, 6, 6, 10)}


def s3_first_harmonic(radius: float = 1.0) -> ScalarField:
    """cos(theta/2) cos((phi+psi)/2): a first spherical harmonic on the
    Euler chart, -Lap f = (n / r^2) f, mean zero."""
    theta, phi, psi = sp.symbols("theta phi psi")
    f = sp.cos(theta / 2) * sp.cos((phi + psi) / 2)
    dom = make_model("s3-euler", 3, radius=radius).domain
    return analytic_scalar_field(dom, (theta, phi, psi), f, name="S^3 harmonic l=1")


def s3_second_harmonic(radius: float = 1.0) -> ScalarField:
    """x1^2 - 1/4 on the unit S^3 (x1 the first ambient coordinate);
    -Lap f = 8 f, mean zero."""
    theta, phi, psi = sp.symbols("theta phi psi")
    x1 = sp.cos(theta / 2) * sp.cos((phi + psi) / 2)
    dom = make_model("s3-euler", 3, radius=radius).domain
    return analytic_scalar_field(
        dom, (theta, phi, psi), x1**2 - sp.Rational(1, 4), name="S^3 harmonic l=2"
    )


@lru_cache(maxsize=None)
def _standard_direction(mode: str) -> SymTensorField | ScalarField:
    """The fixed S^3 directions of the standard cases, built once (fields are
    frozen, so the cases can share them): the invariant TT mode d = (2, -1,
    -1) for ``"tt"``, the first harmonic for ``"conformal"``."""
    if mode == "tt":
        return s3_invariant_tt((2.0, -1.0, -1.0))
    return s3_first_harmonic()


def hessian_case(
    model: str,
    coeff: Coefficients,
    t_step: float = 1e-2,
) -> VariationReport:
    """Numeric-vs-predicted second variation for one of the standard modes."""
    if model == "s3-invariant":
        base = make_model("s3-euler", 3)
        h = _standard_direction("tt")
        grid = build_grid(base.domain, (12, 12, 16))
        n, lam, mode, eigenvalue = 3, 1, "tt", 12.0
    elif model == "torus-tt":
        base = make_model("torus", 3)
        h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
        grid = build_grid(base.domain, (16, 8, 8))
        n, lam, mode, eigenvalue = 3, 0, "tt", (2 * np.pi) ** 2
    elif model == "torus-conformal":
        base = make_model("torus", 3)
        f = cosine_scalar_field(base.domain, (1, 0, 0))
        h = conformal_tensor(base, f)
        grid = build_grid(base.domain, (16, 8, 8))
        n, lam, mode, eigenvalue = 3, 0, "conformal", (2 * np.pi) ** 2
    else:
        raise ConfigurationError(
            f"unknown hessian model {model!r}; pick one of {HESSIAN_MODELS}"
        )
    ing = gradient_ingredients(base, grid.nodes)
    b = ing["bundle"]
    measure = grid.weights * b.sqrt_det
    if mode == "tt":
        norm2 = float(np.sum(measure * norm2_02(h.eval_grid(grid.nodes), b.ginv)))
        predicted = second_variation_tt_predicted(n, lam, eigenvalue, coeff, norm2)
    else:
        f2 = float(np.sum(measure * f.eval_grid(grid.nodes) ** 2))
        predicted = second_variation_conformal_predicted(n, lam, eigenvalue, coeff, f2)
    d1_analytic = _first_variation_pairing(ing, grid, coeff)(h)
    d1_numeric = first_variation_numeric(base, grid, h, coeff)
    d2 = second_variation_numeric(PerturbationFamily(base, h), grid, coeff, t_step)
    c = _lagrange_constant(ing, grid, coeff)
    return VariationReport(
        model=model,
        mode=mode,
        n=n,
        lam=lam,
        s=coeff.s,
        tau=coeff.tau,
        d1_numeric=d1_numeric,
        d1_analytic=d1_analytic,
        d2_numeric=d2.value,
        d2_predicted=predicted,
        rel_err_d1=abs(d1_numeric - d1_analytic) / max(1.0, abs(d1_analytic)),
        rel_err_d2=abs(d2.value - predicted) / max(1.0, abs(predicted)),
        c_lagrange=c,
    )


def gradient_case(
    model: str,
    n: int,
    coeff: Coefficients,
    count: int = 10,
    seed: int = 0,
) -> list[dict]:
    """int <G, h> dV against the complex-step derivative of F on random
    directions.  On the flat torus both sides vanish identically (F is
    quadratic in the curvature, which is zero there; the numeric side is
    roundoff), so the s3 rows are the ones comparing nonzero values."""
    if count < 1 or seed < 0:
        raise ConfigurationError(f"gradient checks need count >= 1, seed >= 0, got {count}, {seed}")
    rng = np.random.default_rng(seed)
    if model == "torus":
        # a 10^n-node grid: n = 6 would need about 10 GB for Rm alone
        if n not in CURVATURE_RES:
            raise ConfigurationError(f"the torus gradient model has n = 2 to 5, got n = {n}")
        base = make_model("torus", n)
        grid = build_grid(base.domain, (10,) * n)
        make_h = lambda: random_torus_sym_tensor(n, rng)
    elif model == "s3":
        if n != 3:
            raise ConfigurationError(f"the s3 gradient model has n = 3, got n = {n}")
        base = make_model("sphere", 3)
        grid = build_grid(base.domain, (10, 10, 12))
        make_h = lambda: random_sphere_sym_tensor(3, rng)
    else:
        raise ConfigurationError("gradient models are 'torus' and 's3'")
    # the gradient is independent of h: build it once, pair it per direction
    d1_analytic = _first_variation_pairing(gradient_ingredients(base, grid.nodes), grid, coeff)
    rows = []
    for i in range(count):
        h = make_h()
        d1a = d1_analytic(h)
        d1n = first_variation_numeric(base, grid, h, coeff)
        rows.append(
            {
                "index": i,
                "d1_analytic": d1a,
                "d1_numeric": d1n,
                "abs_err": abs(d1a - d1n),
                "rel_err": abs(d1a - d1n) / max(1.0, abs(d1a)),
            }
        )
    return rows


def curvature_case(kind: str, n: int, radius: float = 1.0, res=None) -> dict:
    """Space-form deviations of a model over a grid of nodes."""
    if res is None:
        if n not in CURVATURE_RES:
            raise ConfigurationError(f"no default curvature grid for n = {n}; n must be 2 to 5")
        res = CURVATURE_RES[n]
    field = make_model(kind, n, radius=radius)
    grid = build_grid(field.domain, res)
    bundle = curvature_grid(field, grid.nodes)
    lam = field.lam
    rm_dev = space_form_deviation(bundle, lam)
    ric_dev = float(np.max(np.abs(bundle.Ric - (n - 1) * lam * bundle.g)))
    r_dev = float(np.max(np.abs(bundle.R - n * (n - 1) * lam)))
    return {
        "model": kind,
        "n": n,
        "lambda": lam,
        "nodes": grid.node_count,
        "max_rm_dev": rm_dev,
        "max_ric_dev": ric_dev,
        "max_r_dev": r_dev,
    }


def rayleigh_case(model: str, res: int | None = None, d=None, k=None):
    """RayleighReport plus metadata for the standard spectral modes."""
    if (model == "s3-invariant" and k is not None) or (model == "torus-tt" and d is not None):
        raise ConfigurationError("mode d is for s3-invariant, wave vector k for torus-tt")
    if model == "s3-invariant":
        base = make_model("s3-euler", 3)
        h = _standard_direction("tt") if d is None else s3_invariant_tt(tuple(d))
        grid = build_grid(base.domain, 24 if res is None else res)
        expected = 12.0
    elif model == "torus-tt":
        base = make_model("torus", 3)
        kk = (1, 0, 0) if k is None else tuple(k)
        h = torus_tt_mode(3, kk, np.diag([0.0, 1.0, -1.0]))
        grid = build_grid(base.domain, 12 if res is None else res)
        expected = float((2 * np.pi) ** 2 * np.dot(kk, kk))
    else:
        raise ConfigurationError("rayleigh models are 's3-invariant' and 'torus-tt'")
    report = rayleigh_lichnerowicz(base, h, grid)
    return report, {"model": model, "mode_desc": h.name, "expected_quotient": expected}


def identity_case(mode: str, res=(8, 12, 16)) -> list:
    """TT or conformal identity battery on the round S^3 chart."""
    base = make_model("s3-euler", 3)
    grid = build_grid(base.domain, res)
    if mode == "tt":
        return tt_identity_suite(base, _standard_direction(mode), grid)
    if mode == "conformal":
        return conformal_identity_suite(base, _standard_direction(mode), grid)
    raise ConfigurationError("identity mode must be 'tt' or 'conformal'")
