"""First and second variations of the quadratic curvature functionals.

The metric family is g(t) = a(t) (g0 + t h).  With a = 1 ("raw") the first
variation of F equals int G_ij h^ij dV, where G is the gradient tensor
assembled in :func:`gradient_tensor`.  With the "constant-rescale"
normalization a(t) is the constant making Vol(g(t)) = Vol(g0), which is the
volume-preserving path along which the second-variation formulas at
constant-curvature critical metrics hold.

The numeric first variation is a complex-step derivative (Squire & Trapp,
SIAM Rev. 40:110, 1998; Martins, Sturdza & Alonso, ACM TOMS 29:245, 2003):
F is analytic in the metric, so F'(0) = Im F(g0 + i eps h) / eps + O(eps^2)
from one curvature pass, with no difference of nearby values to cancel
digits.  The numeric second variation is a Richardson second difference.

Derivative bookkeeping: primes denote d/dt at t = 0.  The variation of the
Levi-Civita connection is

    (Gamma^k_ij)' = 1/2 g^{kl} (h_il,j + h_jl,i - h_ij,l)

and the curvature variations follow from it; all covariant derivatives are
taken with the unperturbed connection and use the index order
h_ij,kl = nabla_l nabla_k h_ij.  Quantities that need derivatives of
curvature (Lap Ric, Hess R, and their primes) are exact: the jets of the
metric and of h to order 4 propagate through the curvature pipeline by
Leibniz' rule (:func:`curvlab.tensors.jet_einsum`), and
:func:`curvlab.tensors.covariant_hessian_blocks` adds the connection
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
    christoffel_combination,
    connection_jet,
    contract,
    covariant_hessian_blocks,
    covariant_jet,
    curvature_grid,
    einstein_defect,
    inner_02,
    jet_einsum,
    max_abs,
    raise_all,
    ricci_arrays,
    space_form_deviation,
    sym_tensor_cov_derivs,
)

RAW = "raw"
CONSTANT_RESCALE = "constant-rescale"

UNIT_VOLUME_TOL = 1e-6
SPACE_FORM_TOL = 1e-6


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
    """(Gamma^k_ij)' = 1/2 g^{kl}(h_il,j + h_jl,i - h_ij,l); shape (n,n,n)."""
    X, single = _as_batch(x, base.dimension)
    _, Dh, _, _, ginv, _ = sym_tensor_cov_derivs(base, h, X)
    out = 0.5 * contract("akl,alij->akij", ginv, christoffel_combination(Dh))
    return out[0] if single else out


def ricci_variation_jet(ginv: list, h: list, D2h: list, Ric: list):
    """Jets of (Ric', R', Lap h, Lap tr h, h^{ij}) under (g_ij)' = h_ij, from
    the jets of (g^-1, h, nabla nabla h, Ric), to the order of the D2h jet:

        Ric'_ik = (h^j_{i,kj} + h^j_{k,ij} - (Lap h)_ik - (tr h)_{,ik}) / 2
        R' = h^{ij}_{,ij} - Lap tr h - h^{ij} R_ij
    """
    order = len(D2h) - 1

    def c(spec, *jets):
        return jet_einsum(spec, *jets, order=order)

    t1 = c("ajp,apikj->aik", ginv, D2h)  # h^j_{i,kj}
    t2 = c("ajp,apkij->aik", ginv, D2h)  # h^j_{k,ij}
    lap_h = c("akl,aijkl->aij", ginv, D2h)
    hess_H = c("apq,apqik->aik", ginv, D2h)  # (tr h)_{,ik}
    dRic = [0.5 * (p + q - r - s) for p, q, r, s in zip(t1, t2, lap_h, hess_H)]
    hup = c("ajq,aiq->aij", ginv, c("aip,apq->aiq", ginv, h))
    div2 = c("ajq,aqj->a", ginv, c("aip,apqij->aqj", ginv, D2h))  # h^{ij}_{,ij}
    lap_H = c("aik,aik->a", ginv, hess_H)
    h_ric = c("aij,aij->a", hup, Ric)
    dR = [q - p - r for p, q, r in zip(h_ric, div2, lap_H)]
    return dRic, dR, lap_h, lap_H, hup


def curvature_variation_arrays(base: MetricField, h: SymTensorField, X: Array) -> dict:
    """Batched variations of curvature under (g_ij)' = h_ij.

    Returns dRm13 (variation of R^l_ijk), dRm4 (of the lowered tensor),
    dRic, dR, plus h, h^{ij}, Lap h and Lap tr h.
    """
    X, _ = _as_batch(X, base.dimension)
    bundle = curvature_grid(base, X)
    hv, _, D2h, _, ginv, _ = sym_tensor_cov_derivs(base, h, X)

    # combo[a,p,i,j,k] = h_ip,kj + h_kp,ij - h_ik,pj - h_ip,jk - h_jp,ik + h_ij,pk
    combo = (
        np.einsum("aipkj->apijk", D2h)
        + np.einsum("akpij->apijk", D2h)
        - np.einsum("aikpj->apijk", D2h)
        - np.einsum("aipjk->apijk", D2h)
        - np.einsum("ajpik->apijk", D2h)
        + np.einsum("aijpk->apijk", D2h)
    )
    dRm13 = 0.5 * contract("apl,apijk->alijk", ginv, combo)
    # the lowered variation reuses combo with its first component slot read as l
    dRm4 = contract("alq,aqijk->alijk", hv, bundle.Rm13) + 0.5 * combo
    dRic, dR, lap_h, lap_H, hup = (
        q[0] for q in ricci_variation_jet([ginv], [hv], [D2h], [bundle.Ric])
    )
    return {
        "bundle": bundle,
        "h": hv,
        "hup": hup,
        "lap_h": lap_h,
        "lap_H": lap_H,
        "dRm13": dRm13,
        "dRm4": dRm4,
        "dRic": dRic,
        "dR": dR,
    }


def curvature_variations(base: MetricField, h: SymTensorField, x) -> dict:
    """Pointwise variations {dRm13, dRm4, dRic, dR} at x."""
    X, single = _as_batch(x, base.dimension)
    arrs = curvature_variation_arrays(base, h, X)
    keys = ("dRm13", "dRm4", "dRic", "dR")
    if single:
        return {k: arrs[k][0] for k in keys}
    return {k: arrs[k] for k in keys}


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
    """int G_ij h^{ij} dV along the raw family."""
    if not base.supports_global_quadrature:
        raise GlobalIntegralUnsupportedError("first variation needs global integrals")
    return _first_variation_pairing(gradient_ingredients(base, grid.nodes), grid, coeff)(h)


def first_variation_numeric(
    base: MetricField,
    grid: QuadratureGrid,
    h: SymTensorField,
    coeff: Coefficients,
    t_step: float = 1e-20,
) -> float:
    """Complex-step derivative Im F(g + i t_step h) / t_step of F along
    g + t h (see the module docstring).  Its O(t_step^2) error is far below
    roundoff: the values at 1e-20 and 1e-40 agree to about 1e-15."""
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
    """The family g(t) = a(t) (base + t h).

    With normalization "constant-rescale" the constant a(t) keeps the total
    volume pinned at Vol(base) for every t (so a(0) = 1 and g(0) is the base
    itself); "raw" leaves a = 1.
    """

    base: MetricField
    h: SymTensorField
    normalization: str = CONSTANT_RESCALE

    def __post_init__(self):
        if self.normalization not in (RAW, CONSTANT_RESCALE):
            raise PreconditionError(f"unknown normalization {self.normalization!r}")

    def scale_factor(
        self, t: float, grid: QuadratureGrid, base_vol: float | None = None
    ) -> float:
        """a(t); ``base_vol`` is Vol(base) on the grid when the caller has it."""
        if self.normalization == RAW or t == 0.0:
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

    Requires the constant-rescale normalization and a constant-curvature
    (hence critical) base.
    """
    if family.normalization != CONSTANT_RESCALE:
        raise PreconditionError("second variation requires the rescaled family")
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


def _variation_quantities(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid
) -> dict:
    """Everything needed to integrate the primed curvature contractions."""
    X = grid.nodes
    arrs = curvature_variation_arrays(base, h, X)
    b: CurvatureBundle = arrs["bundle"]
    lam = _require_space_form(base, b)
    n = base.dimension
    ginv = b.ginv
    hv, hup = arrs["h"], arrs["hup"]
    measure = grid.weights * b.sqrt_det

    def pair(T) -> float:
        return float(np.sum(measure * inner_02(T, hv, ginv)))

    def inner(Y):
        # order-2 jets (suffix _j) of the primed quantities whose Hessians
        # enter the suite, from the order-4 jets of the metric and of h
        _, ginv_j, Gamma_j, Ric_j, _ = ricci_arrays(base, Y, order=2)
        h_j = h.jet(Y, 4)
        D2h_j = covariant_jet(covariant_jet(h_j, Gamma_j), Gamma_j)
        dric_j, dR_j, lap_h_j, _, _ = ricci_variation_jet(ginv_j, h_j, D2h_j, Ric_j)
        tr_dric_j = jet_einsum("aik,aik->a", ginv_j, dric_j)
        return Gamma_j, [dric_j, dR_j, tr_dric_j, lap_h_j]

    dric_hess, d_hess_R, trdric_hess, laph_hess = covariant_hessian_blocks(inner, X)
    lap_h = arrs["lap_h"]
    lap2_h = contract("akl,aijkl->aij", ginv, laph_hess)

    # constant-curvature reductions of the primed second-order quantities
    d_lap_ric = contract("akl,aijkl->aij", ginv, dric_hess) - lam * (n - 1) * lap_h
    d_lap_R = contract("akl,akl->a", ginv, trdric_hess) - lam * (n - 1) * arrs["lap_H"]

    dRm4, dRic, dR = arrs["dRm4"], arrs["dRic"], arrs["dR"]

    # d(A1)_ij, A1_ij = Rm[i,alpha] (g^-1)^3 Rm[j,alpha]
    dA1 = contract("aiplk,ajplk->aij", dRm4, b.Rm_up3) + contract(
        "aiplk,ajplk->aij", b.Rm_up3, dRm4
    )
    for s in (1, 2, 3):
        others = tuple(t for t in (1, 2, 3) if t != s)
        Ts = raise_all(raise_all(b.Rm4, ginv, others), hup, (s,))
        dA1 -= contract("aiplk,ajplk->aij", Ts, b.Rm4)

    # d(Ric^2)_ij
    dric2 = (
        np.einsum("aip,apq,aqj->aij", dRic, ginv, b.Ric)
        + np.einsum("aip,apq,aqj->aij", b.Ric, ginv, dRic)
        - np.einsum("aip,apq,aqj->aij", b.Ric, hup, b.Ric)
    )

    # d(R^{pl} R_{ipjl})_ij
    dric_up = (
        raise_all(dRic, ginv, (0, 1))
        - raise_all(raise_all(b.Ric, ginv, (1,)), hup, (0,))
        - raise_all(raise_all(b.Ric, ginv, (0,)), hup, (1,))
    )
    dB = contract("apl,aipjl->aij", dric_up, b.Rm4) + contract(
        "apl,aipjl->aij", b.ric_up, dRm4
    )

    # scalar variations
    Rm_up4 = raise_all(b.Rm4, ginv, (0, 1, 2, 3))
    d_normRm2 = 2 * contract("aiplk,aiplk->a", dRm4, Rm_up4) - 4 * contract(
        "aij,aij->a", hup, b.A1
    )
    d_normRic2 = 2 * contract("aij,aij->a", dRic, b.ric_up) - 2 * contract(
        "aij,aij->a", hup, b.ric2
    )

    return dict(
        lam=lam,
        n=n,
        pair=pair,
        hv=hv,
        b=b,
        dA1=dA1,
        d_lap_ric=d_lap_ric,
        d_hess_R=d_hess_R,
        d_lap_R=d_lap_R,
        dric2=dric2,
        dB=dB,
        d_normRm2=d_normRm2,
        d_normRic2=d_normRic2,
        dRic=dRic,
        dR=dR,
        nrm=pair(hv),
        ip_h_lap=pair(lap_h),
        ip_h_lap2=pair(lap2_h),
        measure=measure,
    )


def _suite_lhs(q: dict) -> dict[str, float]:
    """Integrals of each primed contraction against h^{ij}."""
    b: CurvatureBundle = q["b"]
    g, hv = b.g, q["hv"]
    pair = q["pair"]
    dR = q["dR"]
    # ambient scalars are constant on a space form: Lap R = 0 exactly
    return {
        "riemann_product": pair(q["dA1"]),
        "ricci_laplacian": pair(q["d_lap_ric"]),
        "scalar_hessian": pair(q["d_hess_R"]),
        "ricci_square": pair(q["dric2"]),
        "ricci_riemann": pair(q["dB"]),
        "riem_norm_metric": pair(
            q["d_normRm2"][:, None, None] * g + b.normRm2[:, None, None] * hv
        ),
        "scalar_laplacian_metric": pair(q["d_lap_R"][:, None, None] * g),
        "ricci_norm_metric": pair(
            q["d_normRic2"][:, None, None] * g + b.normRic2[:, None, None] * hv
        ),
        "scalar_ricci": pair(
            dR[:, None, None] * b.Ric + b.R[:, None, None] * q["dRic"]
        ),
        "scalar_square_metric": pair(
            (2 * b.R * dR)[:, None, None] * g + (b.R**2)[:, None, None] * hv
        ),
    }


def tt_identity_suite(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid
) -> list[IdentityCheck]:
    """Integral identities for TT directions on a round-sphere base.

    Each primed curvature contraction, integrated against h^{ij}, reduces to
    a combination of int |h|^2 and int <h, Lap h>; the suite returns the
    directly computed and closed-form values side by side.
    """
    from .spectral import TT_TOL, tt_defect

    dd, dt = tt_defect(base, h, grid)
    if dd > TT_TOL or dt > TT_TOL:
        raise PreconditionError(
            f"suite requires a TT field (div {dd:.2e}, tr {dt:.2e})"
        )
    q = _variation_quantities(base, h, grid)
    lam, n = q["lam"], q["n"]
    nrm, ihl, ihl2 = q["nrm"], q["ip_h_lap"], q["ip_h_lap2"]
    lhs = _suite_lhs(q)
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
    """Same contract as :func:`tt_identity_suite` for h = f g."""
    h = conformal_tensor(base, f)
    q = _variation_quantities(base, h, grid)
    lam, n = q["lam"], q["n"]
    X = grid.nodes
    fv = f.eval_grid(X)

    def lap_f_at(Y, order):
        """(Gamma jet, [jet of Lap f]) to ``order``, from the jets of f and g."""
        ginv, Gamma = connection_jet(base.jet(Y, order + 1))
        hess = covariant_jet(covariant_jet(f.jet(Y, order + 2), Gamma), Gamma)
        return Gamma, [jet_einsum("aik,aik->a", ginv, hess)]

    ginv = q["b"].ginv
    _, [[lap_f]] = lap_f_at(X, 0)  # at order 0 the one jet is [Lap f]
    (lapf_hess,) = covariant_hessian_blocks(lambda Y: lap_f_at(Y, 2), X)
    lap2_f = np.einsum("akl,akl->a", ginv, lapf_hess)
    m = q["measure"]
    f2 = float(np.sum(m * fv**2))
    f_lap = float(np.sum(m * fv * lap_f))
    f_lap2 = float(np.sum(m * fv * lap2_f))
    lhs = _suite_lhs(q)
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
