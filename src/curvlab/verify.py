"""Prebuilt verification cases shared by the CLI and the test suite.

Each case bundles a model metric, a perturbation mode, a grid resolution and
the closed-form prediction it is checked against.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .charts import build_grid, make_model
from .errors import ConfigurationError
from .fields import (
    ScalarField,
    analytic_scalar_field,
    cosine_scalar_field,
    euler_su2_domain,
    random_torus_sym_tensor,
    random_sphere_sym_tensor,
    wave,
)
from .functionals import Coefficients
from .spectral import rayleigh_lichnerowicz, s3_invariant_tt, torus_tt_mode
from .variations import (
    SECOND_VARIATION_STEP,
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
from .tensors import (
    curvature,
    distinct_blocks,
    max_abs,
    norm2_02,
    space_form_gate,
    space_form_parts,
)

# the names each case dispatches on, read by the CLI's choices
GRADIENT_MODELS = ("torus", "s3")
HESSIAN_MODELS = ("s3-invariant", "torus-tt", "torus-conformal")
RAYLEIGH_MODELS = ("s3-invariant", "torus-tt")
IDENTITY_MODES = ("tt", "conformal")
CURVATURE_RES = {2: (16, 32), 3: (10, 10, 16), 4: (8, 8, 8, 12), 5: (6, 6, 6, 6, 10)}
# directions of one gradient check: each takes about 4.5 ms and one report row
MAX_GRADIENT_COUNT = 10_000


# x1 = cos(theta/2) cos((phi+psi)/2), the first ambient coordinate of the
# unit S^3 on the Euler chart, in half-angle waves (q = 0 cos, q = 3 sin)
_X1 = wave(0, 0.5) * (wave(1, 0.5) * wave(2, 0.5) - wave(1, 0.5, 3) * wave(2, 0.5, 3))
# the invariant TT mode of the standard S^3 cases (their conformal
# direction is the first harmonic)
_STANDARD_TT = (2.0, -1.0, -1.0)


@contextmanager
def _finite_functional(coeff: Coefficients):
    """Refuse an (s, tau) whose F, gradient or second variation leaves the
    float range: the first overflowing or invalid (NaN-making) operation
    raises a ConfigurationError, so no warning is printed and no report of
    non-JSON NaN or Infinity tokens is written."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigurationError(
            f"s = {coeff.s:g}, tau = {coeff.tau:g} too large: the functional overflows ({exc})"
        ) from None


def s3_first_harmonic() -> ScalarField:
    """x1, a function of the angles only: a first spherical harmonic on the
    Euler chart of every radius r, -Lap f = (3 / r^2) f, mean zero."""
    return analytic_scalar_field(euler_su2_domain(), _X1, name="S^3 harmonic l=1")


def hessian_case(
    model: str,
    coeff: Coefficients,
    t_step: float = SECOND_VARIATION_STEP,
) -> VariationReport:
    """Numeric-vs-predicted second variation for one of the standard modes."""
    if model == "s3-invariant":
        base = make_model("s3-euler", 3)
        h = s3_invariant_tt(_STANDARD_TT)
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
    with _finite_functional(coeff):
        ing = gradient_ingredients(base, grid.nodes)
        b, at = ing["bundle"], ing["at"]
        if mode == "tt":
            _, norm2 = grid.integrals(b.sqrt_det[at], norm2_02(h.eval_grid(grid.nodes), b.ginv[at]))
            predicted = second_variation_tt_predicted(n, lam, eigenvalue, coeff, float(norm2))
        else:
            _, f2 = grid.integrals(b.sqrt_det[at], f.eval_grid(grid.nodes) ** 2)
            predicted = second_variation_conformal_predicted(n, lam, eigenvalue, coeff, float(f2))
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
            d2_rel_err_estimate=d2.rel_err_estimate,
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
    if count > MAX_GRADIENT_COUNT:
        raise ConfigurationError(f"gradient checks take count <= {MAX_GRADIENT_COUNT}, got {count}")
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
        raise ConfigurationError(f"unknown gradient model {model!r}; pick one of {GRADIENT_MODELS}")
    rows = []
    with _finite_functional(coeff):
        # the gradient is independent of h: build it once, pair it per direction
        ing = gradient_ingredients(base, grid.nodes)
        d1_analytic = _first_variation_pairing(ing, grid, coeff)
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


def curvature_case(
    kind: str, n: int, radius: float = 1.0, res=None, tol: float | None = None
) -> dict:
    """Space-form deviations of a model over a grid of nodes, its distinct
    nodes streamed in node blocks.

    With ``tol``, the report also says whether each deviation passes: the
    Rm, Ric and R deviations against ``tol`` times max(1, |lam| max|g|^k),
    k = 2, 1, 0, the size of the model tensor each is measured against (k = 2
    is :func:`curvlab.tensors.space_form_gate`, the one space-form gate).
    """
    if res is None:
        if n not in CURVATURE_RES:
            raise ConfigurationError(f"no default curvature grid for n = {n}; n must be 2 to 5")
        res = CURVATURE_RES[n]
    field = make_model(kind, n, radius=radius)
    grid = build_grid(field.domain, res)
    lam = field.lam

    def block_max(Y):
        b = curvature(field, Y)
        return (
            *space_form_parts(b, lam),
            [max_abs(b.Ric - (n - 1) * lam * b.g)],
            [max_abs(b.R - n * (n - 1) * lam)],
        )

    # np.max over the block maxima keeps a NaN
    maxima, _ = distinct_blocks(block_max, grid.nodes, field.reads)
    rm_dev, g_max, ric_dev, r_dev = (float(np.max(v)) for v in maxima)
    report = {
        "model": kind,
        "n": n,
        "lambda": lam,
        "nodes": grid.node_count,
        "max_rm_dev": rm_dev,
        "max_ric_dev": ric_dev,
        "max_r_dev": r_dev,
    }
    if tol is not None:
        report["tol"] = tol
        # each comparison fails on a NaN deviation
        report["pass"] = (
            space_form_gate(*maxima[:2], lam, tol)[0]
            and ric_dev <= tol * max(1.0, abs(lam) * g_max)
            and r_dev <= tol * max(1.0, abs(lam))
        )
    return report


def rayleigh_case(model: str, res: int | None = None, d=None, k=None):
    """RayleighReport plus metadata for the standard spectral modes."""
    if (model == "s3-invariant" and k is not None) or (model == "torus-tt" and d is not None):
        raise ConfigurationError("mode d is for s3-invariant, wave vector k for torus-tt")
    if model == "s3-invariant":
        base = make_model("s3-euler", 3)
        h = s3_invariant_tt(_STANDARD_TT if d is None else tuple(d))
        grid = build_grid(base.domain, 24 if res is None else res)
        expected = 12.0
    elif model == "torus-tt":
        base = make_model("torus", 3)
        kk = (1, 0, 0) if k is None else tuple(k)
        h = torus_tt_mode(3, kk, np.diag([0.0, 1.0, -1.0]))
        grid = build_grid(base.domain, 12 if res is None else res)
        # |k|^2 in float64: an int64 dot overflows past |k| = 3e9
        expected = float((2 * np.pi) ** 2 * np.sum(np.square(kk, dtype=float)))
    else:
        raise ConfigurationError(f"unknown rayleigh model {model!r}; pick one of {RAYLEIGH_MODELS}")
    report = rayleigh_lichnerowicz(base, h, grid)
    return report, {"model": model, "mode_desc": h.name, "expected_quotient": expected}


def identity_case(mode: str, res=(8, 12, 16)) -> list:
    """TT or conformal identity battery on the round S^3 chart."""
    base = make_model("s3-euler", 3)
    grid = build_grid(base.domain, res)
    if mode == "tt":
        return tt_identity_suite(base, s3_invariant_tt(_STANDARD_TT), grid)
    if mode == "conformal":
        return conformal_identity_suite(base, s3_first_harmonic(), grid)
    raise ConfigurationError(f"unknown identity mode {mode!r}; pick one of {IDENTITY_MODES}")
