"""First and second variations of the quadratic curvature functionals.

The first variation of F along g0 + t h equals int G_ij h^ij dV, where G is
the gradient tensor assembled in :func:`gradient_tensor`.  Second variations
are taken along the family g(t) = a(t) (g0 + t h) of
:class:`PerturbationFamily`, whose constant a(t) keeps Vol(g(t)) = Vol(g0):
the volume-preserving path along which the second-variation formulas at
constant-curvature critical metrics hold.

Every numeric first derivative in t here is a complex step (Squire & Trapp,
SIAM Rev. 40:110, 1998; Martins, Sturdza & Alonso, ACM TOMS 29:245, 2003):
the pipeline is analytic in the metric, so X'(0) = Im X(g0 + i eps h) / eps +
O(eps^2) from one curvature pass, with no difference of nearby values to
cancel digits.  :func:`first_variation_numeric` takes it of F,
:func:`curvature_variations` of Rm, Ric and R, :func:`christoffel_variation`
of Gamma, and the identity suites of each of the ten terms of the gradient.
No hand-derived prime (Gamma', Rm', Ric', R') remains in the package: the
classical linearisations live on only in the tests, as oracles for these
complex steps beside finite differences.  The numeric second variation is a
Richardson second difference.

Covariant derivatives are taken with the index order h_ij,kl = nabla_l
nabla_k h_ij.  Quantities that need derivatives of curvature (Lap Ric,
Hess R) are exact: the jets of the metric to order 4 propagate through the
curvature pipeline by Leibniz' rule (:func:`curvlab.tensors.jet_einsum`),
and :func:`curvlab.tensors.covariant_hessian_blocks` adds the connection
corrections to the resulting exact partials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .atlas import conformal_polynomial, tt_polynomial
from .charts import QuadratureGrid, volume
from .errors import (
    EigenvalueRangeError,
    GlobalIntegralUnsupportedError,
    PreconditionError,
)
from .fields import (
    Array,
    MetricField,
    ScalarField,
    SymTensorField,
    _as_batch,
    linear_combination_metric,
)
from .functionals import Coefficients, _integrals, evaluate
from .tensors import (
    CurvatureBundle,
    christoffel_arrays,
    contract,
    covariant_hessian_blocks,
    curvature_grid,
    einstein_defect,
    inner_02,
    jet_einsum,
    max_abs,
    ricci_arrays,
    space_form_deviation,
    sym_tensor_cov_derivs,
)

UNIT_VOLUME_TOL = 1e-6
SPACE_FORM_TOL = 1e-6
# step eps of the complex-step derivatives Im X(g + i eps h) / eps: their
# O(eps^2) error is far below roundoff (eps = 1e-20 and 1e-40 agree to 1e-15)
COMPLEX_STEP = 1e-20


def conformal_tensor(base: MetricField, f: ScalarField) -> SymTensorField:
    """The conformal direction h = f * g, its jet by Leibniz' rule."""
    fj, gj = f._jet, base._jet

    def jet(X, order):
        return jet_einsum("a,aij->aij", fj(X, order), gj(X, order))

    return SymTensorField(
        domain=base.domain,
        _jet=jet,
        exact_order=min(base.exact_order, f.exact_order),
        name=f"{f.name}*g",
    )


# ---------------------------------------------------------------------------
# Connection and curvature variations
# ---------------------------------------------------------------------------


def christoffel_variation(base: MetricField, h: SymTensorField, x) -> Array:
    """(Gamma^k_ij)' under (g_ij)' = h_ij, the complex step of Gamma; shape
    (n,n,n) at a point."""
    X, single = _as_batch(x, base.dimension)
    metric = linear_combination_metric(base, h, 1j * COMPLEX_STEP)
    out = christoffel_arrays(*metric.jet(X, 1)).imag / COMPLEX_STEP
    return out[0] if single else out


def curvature_variation_arrays(base: MetricField, h: SymTensorField, X: Array) -> dict:
    """Batched variations of curvature under (g_ij)' = h_ij: dRm13 (of
    R^l_ijk), dRm4 (of the lowered tensor), dRic and dR, each the complex
    step of one curvature pass."""
    b = curvature_grid(linear_combination_metric(base, h, 1j * COMPLEX_STEP), X)
    return {
        "dRm13": b.Rm13.imag / COMPLEX_STEP,
        "dRm4": b.Rm4.imag / COMPLEX_STEP,
        "dRic": b.Ric.imag / COMPLEX_STEP,
        "dR": b.R.imag / COMPLEX_STEP,
    }


def curvature_variations(base: MetricField, h: SymTensorField, x) -> dict:
    """Pointwise variations {dRm13, dRm4, dRic, dR} at x."""
    X, single = _as_batch(x, base.dimension)
    arrs = curvature_variation_arrays(base, h, X)
    return {k: v[0] for k, v in arrs.items()} if single else arrs


# ---------------------------------------------------------------------------
# Gradient tensor and Euler-Lagrange residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientTensor:
    """Pointwise gradients of the three energies and their combination."""

    grad_riemann: Array  # gradient of int |Rm|^2
    grad_ricci: Array  # gradient of int |Ric|^2
    grad_scalar: Array  # gradient of int R^2
    grad_total: Array


PARALLEL_CURVATURE_TOL = 1e-9


def _is_verified_space_form(base: MetricField, bundle: CurvatureBundle) -> bool:
    """True when the field declares constant curvature and the computed
    curvature confirms it pointwise to well below working tolerance."""
    lam = base.lam
    if lam is None:
        return False
    return space_form_deviation(bundle, lam) <= PARALLEL_CURVATURE_TOL * max(1.0, abs(lam))


def gradient_ingredients(
    base: MetricField, X: Array, use_structure: bool = True
) -> dict:
    """Curvature derivatives entering the gradient, with the curvature
    bundle, whose cached A1, B and ric2 are the quadratic contractions.

    The Laplacian of the Ricci tensor and the Hessian of the scalar
    curvature come from the exact order-2 jets of Ric and R (the metric jet
    to order 4 through the lean Ricci pipeline) plus the connection
    corrections; they reuse across coefficient choices.

    Constant-curvature metrics have parallel curvature, so when the field
    declares a space form and the declaration is confirmed pointwise on
    these nodes the derivative ingredients are exact zeros and the jet work
    is skipped (set ``use_structure=False`` to force the generic path, which
    leaves roundoff of order 1e-7 at the near-pole nodes of angular charts).
    """
    X, _ = _as_batch(X, base.dimension)
    bundle = curvature_grid(base, X)
    ginv = bundle.ginv
    if use_structure and _is_verified_space_form(base, bundle):
        N, n = X.shape
        lap_ric = np.zeros((N, n, n))
        hess_R = np.zeros((N, n, n))
        lap_R = np.zeros(N)
    else:
        def inner(Y):
            _, _, Gamma, Ric, R = ricci_arrays(base, Y, order=2)
            return Gamma, [Ric, R]

        ric_hess, r_hess = covariant_hessian_blocks(inner, X)
        lap_ric = contract("akl,aijkl->aij", ginv, ric_hess)
        hess_R = r_hess
        lap_R = contract("aik,aik->a", ginv, hess_R)
    return {
        "bundle": bundle,
        "lap_ric": lap_ric,
        "hess_R": hess_R,
        "lap_R": lap_R,
    }


def _gradient_parts(ing: dict, coeff: Coefficients) -> GradientTensor:
    """The gradient G = gR + s gRic + tau gS of F, the one place its terms
    are written."""
    b: CurvatureBundle = ing["bundle"]
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
    return GradientTensor(gR, gRic, gS, gR + coeff.s * gRic + coeff.tau * gS)


def gradient_tensor(base: MetricField, x, coeff: Coefficients) -> GradientTensor:
    """Gradient tensors at a point (or batch of points)."""
    X, single = _as_batch(x, base.dimension)
    G = _gradient_parts(gradient_ingredients(base, X), coeff)
    if single:
        return GradientTensor(*(getattr(G, f.name)[0] for f in fields(G)))
    return G


def _trace_multiplier(ing: dict, coeff: Coefficients) -> Array:
    """tr_g G / n at each node, from the trace identity
    tr_g G = ((n-4) (|Rm|^2 + s |Ric|^2 + tau R^2) - (4 + n s + 4(n-1) tau) Lap R) / 2."""
    b: CurvatureBundle = ing["bundle"]
    n = b.dimension
    density = b.normRm2 + coeff.s * b.normRic2 + coeff.tau * b.R**2
    return (
        (n - 4) * density - (4 + n * coeff.s + 4 * (n - 1) * coeff.tau) * ing["lap_R"]
    ) / (2 * n)


def _lagrange_constant(ing: dict, grid: QuadratureGrid, coeff: Coefficients) -> float:
    measure = grid.weights * ing["bundle"].sqrt_det
    return float(np.sum(measure * _trace_multiplier(ing, coeff)) / np.sum(measure))


def lagrange_constant(
    base: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> float:
    """Volume average of the trace identity defining the multiplier c."""
    return _lagrange_constant(gradient_ingredients(base, grid.nodes), grid, coeff)


def _first_variation_pairing(
    ing: dict, grid: QuadratureGrid, coeff: Coefficients
) -> Callable[[SymTensorField], float]:
    """h -> int G_ij h^{ij} dV, with G, g^-1 and the volume element of one
    set of gradient ingredients on the grid built once for every direction."""
    b: CurvatureBundle = ing["bundle"]
    G = _gradient_parts(ing, coeff).grad_total
    measure = grid.weights * b.sqrt_det
    return lambda h: float(np.sum(measure * inner_02(G, h.eval_grid(grid.nodes), b.ginv)))


def first_variation(
    base: MetricField, grid: QuadratureGrid, h: SymTensorField, coeff: Coefficients
) -> float:
    """int G_ij h^{ij} dV, the first variation of F along g + t h."""
    if not base.supports_global_quadrature:
        raise GlobalIntegralUnsupportedError("first variation needs global integrals")
    return _first_variation_pairing(gradient_ingredients(base, grid.nodes), grid, coeff)(h)


def first_variation_numeric(
    base: MetricField,
    grid: QuadratureGrid,
    h: SymTensorField,
    coeff: Coefficients,
    t_step: float = COMPLEX_STEP,
) -> float:
    """Complex-step derivative Im F(g + i t_step h) / t_step of F along
    g + t h (see the module docstring)."""
    if not (np.isfinite(t_step) and t_step > 0):
        raise PreconditionError(f"t_step must be positive and finite, got {t_step}")
    sums, _, _ = _integrals(linear_combination_metric(base, h, 1j * t_step), grid, coeff)
    return float(sums["F"].imag / t_step)


def el_residual(
    base: MetricField,
    grid: QuadratureGrid,
    coeff: Coefficients,
    ingredients: dict | None = None,
) -> tuple[float, float]:
    """Sup-norm (componentwise, over all nodes) of the Euler-Lagrange tensor,
    the trace-free part G - (tr_g G / n) g of the gradient, and the
    multiplier c of G = c g, the volume average of tr_g G / n.

    The base must have unit quadrature volume (rescale with
    :func:`curvlab.charts.to_unit_volume` first).  ``ingredients`` may pass
    the output of :func:`gradient_ingredients` on this grid, which does not
    depend on (s, tau).
    """
    ing = gradient_ingredients(base, grid.nodes) if ingredients is None else ingredients
    b: CurvatureBundle = ing["bundle"]
    vol = float(np.sum(grid.weights * b.sqrt_det))
    if abs(vol - 1.0) > UNIT_VOLUME_TOL:
        raise PreconditionError(
            f"Euler-Lagrange residual needs a unit-volume base (vol = {vol:.6g})"
        )
    G = _gradient_parts(ing, coeff).grad_total
    E = G - _trace_multiplier(ing, coeff)[:, None, None] * b.g
    return max_abs(E), _lagrange_constant(ing, grid, coeff)


def einstein_criticality_defect(base: MetricField, grid: QuadratureGrid) -> float:
    """sup_x |R_i^{plk} R_jplk - (1/n) |Rm|^2 g_ij| over the grid
    (componentwise).  Zero exactly when the Einstein base is critical for
    every (s, tau)."""
    n = base.dimension
    bundle = curvature_grid(base, grid.nodes)
    if float(np.max(einstein_defect(bundle))) > SPACE_FORM_TOL * max(
        1.0, float(np.max(np.abs(bundle.R))) / n
    ):
        raise PreconditionError("base metric is not Einstein on this grid")
    D = bundle.A1 - (bundle.normRm2 / n)[:, None, None] * bundle.g
    return max_abs(D)


# ---------------------------------------------------------------------------
# Perturbation families and numeric second variations
# ---------------------------------------------------------------------------


@dataclass
class PerturbationFamily:
    """The family g(t) = a(t) (base + t h), where the constant a(t) keeps the
    total volume pinned at Vol(base) for every t (so a(0) = 1 and g(0) is the
    base itself)."""

    base: MetricField
    h: SymTensorField

    def scale_factor(
        self, t: float, grid: QuadratureGrid, base_vol: float | None = None
    ) -> float:
        """a(t); ``base_vol`` is Vol(base) on the grid when the caller has it."""
        if t == 0.0:
            return 1.0
        if base_vol is None:
            base_vol = volume(self.base, grid)
        vol_t = volume(linear_combination_metric(self.base, self.h, t), grid)
        return (base_vol / vol_t) ** (2.0 / self.base.dimension)

    def metric_at(
        self, t: float, grid: QuadratureGrid, base_vol: float | None = None
    ) -> MetricField:
        if t == 0.0:
            return self.base
        a = self.scale_factor(t, grid, base_vol)
        return linear_combination_metric(self.base, self.h, t, scale=a)


class D2Numeric(NamedTuple):
    value: float
    rel_err_estimate: float


def second_variation_numeric(
    family: PerturbationFamily,
    grid: QuadratureGrid,
    coeff: Coefficients,
    t_step: float = 1e-2,
) -> D2Numeric:
    """Richardson-extrapolated second difference of F along the family.

    Requires a constant-curvature (hence critical) base.
    """
    if family.base.lam is None:
        raise PreconditionError("second variation is evaluated at space-form bases")
    if not (np.isfinite(t_step) and t_step > 0):
        raise PreconditionError(f"t_step must be positive and finite, got {t_step}")

    base_vol = volume(family.base, grid)

    def F(t: float) -> float:
        return evaluate(family.metric_at(t, grid, base_vol), grid, coeff).F

    F0 = F(0.0)

    def D(dt: float) -> float:
        return (F(dt) - 2 * F0 + F(-dt)) / dt**2

    coarse = D(t_step)
    fine = D(t_step / 2)
    value = (4 * fine - coarse) / 3
    rel = abs(value - fine) / max(1.0, abs(value))
    return D2Numeric(value, rel)


def second_variation_tt_predicted(
    n: int, lam: int, lam_L: float, coeff: Coefficients, h_norm2: float
) -> float:
    """Closed-form second variation on a TT eigendirection,
    :func:`curvlab.atlas.tt_polynomial` times |h|^2.

    ``lam_L`` is the eigenvalue of -Lap_L (of -Lap for lam = 0).  Admissible
    ranges: lam_L >= 2(n-1) for lam = 1 (the least TT eigenvalue is 4n, but
    the formula is defined down to the first factor root), lam_L >= -n for
    lam = -1, lam_L > 0 for lam = 0.
    """
    if lam not in (-1, 0, 1):
        raise EigenvalueRangeError(f"lam must be in {{-1, 0, 1}}, got {lam}")
    if lam == 0 and lam_L <= 0:
        raise EigenvalueRangeError("flat TT modes have positive -Lap eigenvalues")
    if lam != 0 and lam_L < (2 * (n - 1) if lam == 1 else -n) - 1e-12:
        raise EigenvalueRangeError(f"lam_L = {lam_L} below the admissible range for lam={lam}")
    return tt_polynomial(n, lam, coeff.s, coeff.tau, lam_L) * h_norm2


def second_variation_conformal_predicted(
    n: int, lam: int, mu: float, coeff: Coefficients, f_norm2: float
) -> float:
    """Closed-form second variation on a conformal eigendirection f,
    :func:`curvlab.atlas.conformal_polynomial` times |f|^2.

    ``mu`` is the eigenvalue of -Lap on f.  For lam = 1 the admissible
    spectrum starts at mu = n (attained exactly on the round sphere); for
    lam = 0 and -1 it is mu > 0.
    """
    if lam not in (-1, 0, 1):
        raise EigenvalueRangeError(f"lam must be in {{-1, 0, 1}}, got {lam}")
    if lam == 1 and mu < n - 1e-12:
        raise EigenvalueRangeError(f"mu = {mu} below the first eigenvalue n = {n}")
    if lam != 1 and mu <= 0:
        raise EigenvalueRangeError(f"conformal modes at lam = {lam} need mu > 0")
    return conformal_polynomial(n, lam, coeff.s, coeff.tau, mu) * f_norm2


# ---------------------------------------------------------------------------
# Integral identity suites
# ---------------------------------------------------------------------------


class IdentityCheck(NamedTuple):
    name: str
    lhs: float
    rhs: float
    rel_err: float


def _check(name: str, lhs: float, rhs: float) -> IdentityCheck:
    return IdentityCheck(name, lhs, rhs, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))


def _require_space_form(base: MetricField, bundle: CurvatureBundle) -> float:
    lam = base.lam
    if lam is None:
        raise PreconditionError("identity suites need a constant-curvature base")
    dev = space_form_deviation(bundle, lam)
    if dev > SPACE_FORM_TOL * max(1.0, abs(lam)):
        raise PreconditionError(f"base is not a space form (deviation {dev:.2e})")
    return lam


def _suite_sides(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid, hv, D2h, ginv
) -> tuple[float, dict[str, float], tuple[float, float, float]]:
    """lam, the left-hand sides {name: int <T', h> dV} of the ten terms T of
    the gradient, and (int |h|^2, int <h, Lap h>, int |Lap h|^2), from h, its
    second covariant derivative D2h and g^-1 on the grid nodes.

    Each T' is the complex step Im T(g + i eps h) / eps, all ten from one
    :func:`gradient_ingredients` pass on the complex metric (its generic
    path: the complex metric declares no space form).  Lap R g enters as
    (g^{ik} (Hess R)'_ik) g, its prime at a space form, where Lap R =
    Hess R = 0: Im(Lap R g) / eps would also carry the generic path's
    roundoff in Lap R (about 3e-7 at the near-pole nodes) through Lap R h.
    On a closed manifold int <h, Lap^2 h> = int |Lap h|^2, which the closed
    forms read from the last integral.
    """
    X = grid.nodes
    ing = gradient_ingredients(linear_combination_metric(base, h, 1j * COMPLEX_STEP), X)
    b: CurvatureBundle = ing["bundle"]
    lam = _require_space_form(base, b)
    measure = grid.weights * b.sqrt_det.real

    def integral(S, T) -> float:
        return float(np.sum(measure * inner_02(S, T, ginv)))

    terms = {
        "riemann_product": b.A1,
        "ricci_laplacian": ing["lap_ric"],
        "scalar_hessian": ing["hess_R"],
        "ricci_square": b.ric2,
        "ricci_riemann": b.B,
        "riem_norm_metric": b.normRm2[:, None, None] * b.g,
        "scalar_laplacian_metric": contract("aik,aik->a", ginv, ing["hess_R"])[:, None, None]
        * b.g.real,
        "ricci_norm_metric": b.normRic2[:, None, None] * b.g,
        "scalar_ricci": b.R[:, None, None] * b.Ric,
        "scalar_square_metric": (b.R**2)[:, None, None] * b.g,
    }
    lhs = {k: integral(T.imag / COMPLEX_STEP, hv) for k, T in terms.items()}
    lap_h = contract("akl,aijkl->aij", ginv, D2h)
    return lam, lhs, (integral(hv, hv), integral(lap_h, hv), integral(lap_h, lap_h))


def tt_identity_suite(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid
) -> list[IdentityCheck]:
    """Integral identities for TT directions on a round-sphere base.

    Each primed gradient term (a complex step, see :func:`_suite_sides`),
    integrated against h^{ij}, reduces to a combination of int |h|^2,
    int <h, Lap h> and int <h, Lap^2 h>, the last read as int |Lap h|^2;
    the suite returns the directly computed and closed-form values side by
    side.
    """
    from .spectral import TT_TOL, _tt_defect_arrays

    hv, Dh, D2h, _, ginv, _ = sym_tensor_cov_derivs(base, h, grid.nodes)
    dd, dt = _tt_defect_arrays(hv, Dh, ginv)
    if dd > TT_TOL or dt > TT_TOL:
        raise PreconditionError(
            f"suite requires a TT field (div {dd:.2e}, tr {dt:.2e})"
        )
    lam, lhs, (nrm, ihl, ihl2) = _suite_sides(base, h, grid, hv, D2h, ginv)
    n = base.dimension
    rhs = {
        "riemann_product": 2 * (n + 1) * lam**2 * nrm - 2 * lam * ihl,
        "ricci_laplacian": -0.5 * ihl2 + lam * ihl,
        "scalar_hessian": 0.0,
        "ricci_square": (n**2 - 1) * lam**2 * nrm - (n - 1) * lam * ihl,
        "ricci_riemann": (n**2 - n - 1) * lam**2 * nrm - 0.5 * (n - 2) * lam * ihl,
        "riem_norm_metric": 2 * lam**2 * n * (n - 1) * nrm,
        "scalar_laplacian_metric": 0.0,
        "ricci_norm_metric": lam**2 * n * (n - 1) ** 2 * nrm,
        "scalar_ricci": lam**2 * n**2 * (n - 1) * nrm - 0.5 * lam * n * (n - 1) * ihl,
        "scalar_square_metric": lam**2 * n**2 * (n - 1) ** 2 * nrm,
    }
    return [_check(k, lhs[k], rhs[k]) for k in rhs]


def conformal_identity_suite(
    base: MetricField, f: ScalarField, grid: QuadratureGrid
) -> list[IdentityCheck]:
    """Same contract as :func:`tt_identity_suite` for h = f g, in terms of
    int f^2, int f Lap f and int f Lap^2 f = int (Lap f)^2."""
    h = conformal_tensor(base, f)
    hv, _, D2h, _, ginv, _ = sym_tensor_cov_derivs(base, h, grid.nodes)
    lam, lhs, h_integrals = _suite_sides(base, h, grid, hv, D2h, ginv)
    n = base.dimension
    # |f g|^2 = n f^2 and Lap(f g) = (Lap f) g
    f2, f_lap, f_lap2 = (v / n for v in h_integrals)
    rhs = {
        "riemann_product": -2 * lam**2 * n * (n - 1) * f2 - 4 * lam * (n - 1) * f_lap,
        "ricci_laplacian": -(n - 1) * f_lap2 - lam * n * (n - 1) * f_lap,
        "scalar_hessian": -(n - 1) * f_lap2 - lam * n * (n - 1) * f_lap,
        "ricci_square": -(lam**2) * n * (n - 1) ** 2 * f2
        - 2 * lam * (n - 1) ** 2 * f_lap,
        "ricci_riemann": -(lam**2) * n * (n - 1) ** 2 * f2
        - 2 * lam * (n - 1) ** 2 * f_lap,
        "riem_norm_metric": -2 * lam**2 * n**2 * (n - 1) * f2
        - 4 * lam * n * (n - 1) * f_lap,
        "scalar_laplacian_metric": -n * (n - 1) * f_lap2
        - lam * n**2 * (n - 1) * f_lap,
        "ricci_norm_metric": -(lam**2) * n**2 * (n - 1) ** 2 * f2
        - 2 * lam * n * (n - 1) ** 2 * f_lap,
        "scalar_ricci": -(lam**2) * n**2 * (n - 1) ** 2 * f2
        - 2 * lam * n * (n - 1) ** 2 * f_lap,
        "scalar_square_metric": -(lam**2) * n**3 * (n - 1) ** 2 * f2
        - 2 * lam * n**2 * (n - 1) ** 2 * f_lap,
    }
    return [_check(k, lhs[k], rhs[k]) for k in rhs]


# ---------------------------------------------------------------------------
# Variation reports
# ---------------------------------------------------------------------------


@dataclass
class VariationReport:
    model: str
    mode: str
    n: int
    lam: float
    s: float
    tau: float
    d1_numeric: float
    d1_analytic: float
    d2_numeric: float
    d2_predicted: float
    rel_err_d1: float
    rel_err_d2: float
    c_lagrange: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model,
                "mode": self.mode,
                "n": self.n,
                "lambda": self.lam,
                "s": self.s,
                "tau": self.tau,
                "d1_numeric": self.d1_numeric,
                "d1_analytic": self.d1_analytic,
                "d2_numeric": self.d2_numeric,
                "d2_predicted": self.d2_predicted,
                "rel_err_d1": self.rel_err_d1,
                "rel_err_d2": self.rel_err_d2,
                "c_lagrange": self.c_lagrange,
            },
            sort_keys=True,
        )
