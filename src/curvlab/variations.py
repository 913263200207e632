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
cancel digits.  :func:`first_variation_numeric` takes it of F along one
direction, :func:`_numeric_pairing` once per unit entry of the base's jet
for every direction (the step is linear in h), :func:`curvature_variations`
of Rm, Ric and R, and the identity suites of each of the ten terms of the
gradient, the conformal one once per unit entry of f's jet along h = f g
(:func:`_suite_sides`; TT's h has six times the entries).  No hand-derived
prime (Gamma', Rm', Ric', R') remains in the package: the classical
linearisations live on only in the tests, as oracles for these complex
steps beside finite differences.
:func:`second_variation_numeric` takes the second-order sibling, the complex
step rotated by pi/4 (the four-point contour of Lyness & Moler, SIAM J.
Numer. Anal. 4:202, 1967, halved by conjugate symmetry): with w = t e^(i
pi/4) and phi real on the real axis, Im (phi(w) + phi(-w)) / t^2 = phi''(0)
+ O(t^4), and no difference of nearby values cancels digits.  Richardson
differences remain only in the tests, as oracles.

The gradient's ten terms (A1, Lap Ric, Hess R, Ric^2, B, |Rm|^2 g, Lap R g,
|Ric|^2 g, R Ric, R^2 g) are written once, in :func:`_gradient_terms`: G
sums them by the (coefficient, term) rows of :data:`_GRADIENT_ROWS`, and the
identity suites integrate their complex steps.

Covariant derivatives are taken with the index order h_ij,kl = nabla_l
nabla_k h_ij.  Quantities that need derivatives of curvature (Lap Ric,
Hess R) are exact: the jets of the metric to order 4 propagate through the
curvature pipeline by Leibniz' rule (:func:`curvlab.tensors.jet_einsum`),
and :func:`curvlab.tensors.covariant_hessian_blocks` adds the connection
corrections to the resulting exact partials.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from math import comb
from operator import add
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .atlas import conformal_polynomial, tt_polynomial
from .charts import QuadratureGrid, positive_normal_power, volume
from .errors import DegenerateMetricError, DimensionError, EigenvalueRangeError, PreconditionError
from .fields import (
    Array,
    MetricField,
    ScalarField,
    SymTensorField,
    _as_batch,
    _reading,
    linear_combination_metric,
    reads_of,
)
from .functionals import _DENSITIES, Coefficients, _integrals
from .spectral import _require_tt, _tt_defect_arrays
from .tensors import (
    CurvatureBundle,
    _symmetric_pairs,
    contract,
    covariant_hessian_blocks,
    curvature,
    curvature_bundle,
    distinct_blocks,
    distinct_nodes,
    einstein_parts,
    inner_02,
    jet_scale,
    node_blocks,
    representative_blocks,
    require_einstein,
    ricci_arrays,
    space_form_gate,
    space_form_parts,
    sym_tensor_cov_derivs,
)

UNIT_VOLUME_TOL = 1e-6
SPACE_FORM_TOL = 1e-6
# step eps of the complex-step derivatives Im X(g + i eps h) / eps: their
# O(eps^2) error is far below roundoff (eps = 1e-20 and 1e-40 agree to 1e-15)
COMPLEX_STEP = 1e-20
# default step of second_variation_numeric, error O(t_step^4): on the S^3 TT
# mode 1e-3 is 1e-10 off the closed form, 1e-2 is 2e-7 off
SECOND_VARIATION_STEP = 1e-3


def conformal_tensor(base: MetricField, f: ScalarField) -> SymTensorField:
    """The conformal direction h = f * g, its jet the scalar-times-tensor
    product of the two jets (:func:`curvlab.tensors.jet_scale`); f must be a
    scalar field in the dimension of the base."""
    if not isinstance(f, ScalarField):
        raise DimensionError(f"a conformal factor must be a ScalarField, got {type(f).__name__}")
    if f.dimension != base.dimension:
        raise DimensionError(
            f"conformal factor of dimension {f.dimension} on a base of dimension {base.dimension}"
        )
    fj, gj = f._jet, base._jet

    def jet(X, order):
        return jet_scale(fj(X, order), gj(X, order))

    jet = _reading(reads_of(f, base), jet)
    jet.factor = (base, f)  # the form f g, which the identity suites seed
    return SymTensorField(domain=base.domain, _jet=jet, name=f"{f.name}*g")


# ---------------------------------------------------------------------------
# Curvature variations
# ---------------------------------------------------------------------------


def curvature_variation_arrays(base: MetricField, h: SymTensorField, X: Array) -> dict:
    """Batched variations of curvature under (g_ij)' = h_ij: dRm13 (of
    R^l_ijk), dRm4 (of the lowered tensor), dRic and dR, each the complex
    step of one curvature pass."""
    b = curvature(linear_combination_metric(base, h, 1j * COMPLEX_STEP), X)
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


def gradient_ingredients(
    base: MetricField, X: Array, use_structure: bool = True
) -> dict:
    """Curvature derivatives entering the gradient, with the curvature
    bundle, whose cached A1, B and ric2 are the quadratic contractions, made
    once per distinct node of the coordinates the base reads
    (:func:`curvlab.tensors.distinct_nodes`), every array on those nodes.
    Whole-grid callers run this per block of a distinct-node pass; the
    dedupe is kept only for the benchmark's whole-grid call, which reads
    maxima and the bundle's g and Rm4 (ROADMAP item 10 retires it).

    Lap Ric and Hess R come from the exact order-2 jets of Ric and R (the
    metric jet to order 4 through :func:`curvlab.tensors.ricci_arrays`)
    plus the connection corrections, in Hessian blocks.  Constant-curvature
    metrics have parallel curvature, so when the field declares a space
    form and the declaration is confirmed pointwise on these nodes they are
    exact zeros and the jet work is skipped (``use_structure=False`` forces
    the generic path, which leaves roundoff of order 1e-7 at the near-pole
    nodes of angular charts).
    """
    X, _ = _as_batch(X, base.dimension)
    rows, _ = distinct_nodes(X, base.reads)
    try:
        return _ingredients(base, X[rows], base.lam if use_structure else None)
    except DegenerateMetricError as e:
        raise e.renumbered(np.arange(len(X))[rows]) from None


def _ingredients(metric, X: Array, lam: float | None) -> dict:
    """:func:`gradient_ingredients` at the rows X of ``metric``, whose
    ``packed_jet(X, order)`` is a packed metric jet (a field, or the seeded
    rows of :func:`_suite_sides`); with ``lam``, the structure shortcut."""
    bundle = curvature_bundle(*metric.packed_jet(X, 2))
    if lam is not None and space_form_gate(
        *space_form_parts(bundle, lam), lam, PARALLEL_CURVATURE_TOL
    )[0]:
        N, n = bundle.g.shape[:2]
        lap_ric, hess_R, lap_R = np.zeros((N, n, n)), np.zeros((N, n, n)), np.zeros(N)
    else:
        def inner(Y):
            _, _, Gamma, Ric, R = ricci_arrays(metric, Y, order=2)
            return Gamma, [Ric, R]

        ric_hess, hess_R = covariant_hessian_blocks(inner, X)
        lap_ric = contract("akl,aijkl->aij", bundle.ginv, ric_hess)
        lap_R = contract("aik,aik->a", bundle.ginv, hess_R)
    return {"bundle": bundle, "lap_ric": lap_ric, "hess_R": hess_R, "lap_R": lap_R}


def _gradient_terms(ing: dict) -> dict[str, Array]:
    """The ten terms of the gradient by name, from one set of gradient
    ingredients: the one place each term is written."""
    b: CurvatureBundle = ing["bundle"]
    g = b.g
    return {
        "riemann_product": b.A1,
        "ricci_laplacian": ing["lap_ric"],
        "scalar_hessian": ing["hess_R"],
        "ricci_square": b.ric2,
        "ricci_riemann": b.B,
        "riem_norm_metric": b.normRm2[:, None, None] * g,
        "scalar_laplacian_metric": ing["lap_R"][:, None, None] * g,
        "ricci_norm_metric": b.normRic2[:, None, None] * g,
        "scalar_ricci": b.R[:, None, None] * b.Ric,
        "scalar_square_metric": (b.R**2)[:, None, None] * g,
    }


# (coefficient, term) rows of each energy's gradient, in summation order
_GRADIENT_ROWS = {
    "grad_riemann": ((-2, "riemann_product"), (2, "scalar_hessian"), (-4, "ricci_laplacian"),
                     (-4, "ricci_riemann"), (4, "ricci_square"), (0.5, "riem_norm_metric")),
    "grad_ricci": ((-1, "ricci_laplacian"), (-2, "ricci_riemann"), (1, "scalar_hessian"),
                   (-0.5, "scalar_laplacian_metric"), (0.5, "ricci_norm_metric")),
    "grad_scalar": ((2, "scalar_hessian"), (-2, "scalar_laplacian_metric"),
                    (-2, "scalar_ricci"), (0.5, "scalar_square_metric")),
}


def _gradient_parts(ing: dict, coeff: Coefficients) -> GradientTensor:
    """The gradient G = gR + s gRic + tau gS of F, each part summed from its
    first row on (no 0 + to flip the sign of a zero)."""
    terms = _gradient_terms(ing)
    parts = {
        part: reduce(add, (c * terms[name] for c, name in rows))
        for part, rows in _GRADIENT_ROWS.items()
    }
    gR, gRic, gS = parts.values()
    return GradientTensor(**parts, grad_total=gR + coeff.s * gRic + coeff.tau * gS)


def gradient_tensor(base: MetricField, x, coeff: Coefficients) -> GradientTensor:
    """Gradient tensors at a point (or batch of points)."""
    X, single = _as_batch(x, base.dimension)

    def block(Y):
        G = _gradient_parts(gradient_ingredients(base, Y), coeff)
        return tuple(getattr(G, f.name) for f in fields(G))

    parts = distinct_blocks(block, X, base.reads)
    return GradientTensor(*(T[0] for T in parts) if single else parts)


def _trace_multiplier(ing: dict, coeff: Coefficients) -> Array:
    """tr_g G / n at each node, from the trace identity
    tr_g G = ((n-4) (|Rm|^2 + s |Ric|^2 + tau R^2) - (4 + n s + 4(n-1) tau) Lap R) / 2,
    each coefficient multiplied into Lap R first (their sum overflows at |s| ~ 1e308)."""
    b: CurvatureBundle = ing["bundle"]
    n, lap_R = b.dimension, ing["lap_R"]
    density = b.normRm2 + coeff.s * b.normRic2 + coeff.tau * b.R**2
    weighted = 4 * lap_R + n * (coeff.s * lap_R) + 4 * (n - 1) * (coeff.tau * lap_R)
    return ((n - 4) * density - weighted) / (2 * n)


def _gradient_pass(base: MetricField, grid: QuadratureGrid, coeff: Coefficients) -> dict:
    """:func:`gradient_ingredients` in one pass over the grid's distinct nodes
    (:func:`curvlab.tensors.distinct_blocks`): ``sqrt_det``, ``ginv``, ``G``
    and ``el_max``, the largest entry of |G - (tr_g G / n) g|, at every node,
    then the ``volume`` and ``c``, the multiplier of G = c g (the volume mean
    of tr_g G / n), from one sum, which refuses a grid without integrals."""

    def block(Y):
        ing = gradient_ingredients(base, Y)
        b, G = ing["bundle"], _gradient_parts(ing, coeff).grad_total
        trace = _trace_multiplier(ing, coeff)
        E = G - trace[:, None, None] * b.g
        return b.sqrt_det, b.ginv, G, np.abs(E).max(axis=(1, 2)), trace

    sqrt_det, ginv, G, el_max, trace = distinct_blocks(block, grid.nodes, base.reads)
    vol, total = grid.integrals(sqrt_det, trace)
    return {"sqrt_det": sqrt_det, "ginv": ginv, "G": G, "el_max": el_max,
            "volume": float(vol), "c": float(total / vol)}


def _first_variation_pairing(p: dict, grid: QuadratureGrid) -> Callable[[SymTensorField], float]:
    """h -> int G_ij h^{ij} dV, with G, g^-1 and the volume element of one
    :func:`_gradient_pass` of the base on the grid for every direction."""
    sqrt_det, G, ginv = p["sqrt_det"], p["G"], p["ginv"]
    return lambda h: float(grid.integrals(sqrt_det, inner_02(G, h.eval_grid(grid.nodes), ginv))[1])


def _functional_step(coeff: Coefficients, t_step: float) -> float:
    """The complex step of F, eps = t_step / sqrt(max(1, |s|, |tau|)): its
    residue, eps^2 times the weights of F, stays at roundoff at every (s, tau)."""
    return t_step / np.sqrt(max(1.0, abs(coeff.s), abs(coeff.tau)))


def _jet_entries(jet: list) -> Array:
    """The n(n+1)/2 C(n+2, 2) unique entries, per node, of the packed jet
    [T, dT, d2T] of a symmetric (0,2) tensor: the pairs i <= j in packed
    column order, each with its columns of T, dT and d2T."""
    N, n = jet[0].shape[:2]
    i, j = _symmetric_pairs(n)
    pairs = [np.take(T.reshape(N, n * n, -1), i * n + j, axis=1) for T in jet]
    return np.concatenate(pairs, axis=2).reshape(N, -1)


def _seeded_blocks(fn: Callable[[Array], tuple], K: int, W: int) -> tuple:
    """``fn`` over the K W seeded rows, an (R, 2) array of (representative, unit
    jet entry e < W), in node blocks: each output with its rows on (K, W) axes."""
    rows = np.stack(np.divmod(np.arange(K * W), W), axis=1)
    return tuple(out.reshape((K, W) + out.shape[1:]) for out in node_blocks(fn, rows))


def _numeric_pairing(
    base: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> Callable[[SymTensorField], float]:
    """h -> :func:`first_variation_numeric` (base, grid, h, coeff), up to
    O(eps^2), from one complex-step pass for every direction (vector-mode
    forward differentiation; Griewank & Walther, *Evaluating Derivatives*,
    2nd ed., 2008).  A row (:func:`_seeded_blocks`), a representative of the
    coordinates the base reads and a unit entry e of its jet
    (:func:`_jet_entries`), i eps in both slots (i, j) and (j, i), gives L_e
    = Im(sqrt(det g) (|Rm|^2 + s |Ric|^2 + tau R^2)) / eps, and a direction
    sums L_e h_e over the grid (:func:`curvlab.tensors.representative_blocks`).
    The base is tested by the gradient pass beside it."""
    eps = _functional_step(coeff, COMPLEX_STEP)
    n = base.dimension
    i, j = _symmetric_pairs(n)
    width = comb(n + 2, 2)  # the columns of an entry: 1 + n + n(n+1)/2
    W = len(i) * width

    def seeded(Y):
        # the base's jet at the representatives, its orders side by side
        jet = np.concatenate([d.reshape(len(Y), n, n, -1) for d in base.packed_jet(Y, 2)], 3)

        def rows(r):
            node, (pair, col) = r[:, 0], divmod(r[:, 1], width)
            J = jet[node].astype(complex)
            J.imag[np.arange(len(r)), i[pair], j[pair], col] = eps
            J.imag[np.arange(len(r)), j[pair], i[pair], col] = eps
            b = curvature_bundle(J[..., 0], J[..., 1 : n + 1], J[..., n + 1 :])
            # F's integrand, reading Ric and R only where F weighs them
            terms = [w * _DENSITIES[k](b) for w, k in ((coeff.s, "rho"), (coeff.tau, "S")) if w]
            return ((b.sqrt_det * sum(terms, b.normRm2)).imag / eps,)

        return _seeded_blocks(rows, len(Y), W)

    read = representative_blocks(seeded, grid.nodes, base.reads)

    def pairing(h: SymTensorField) -> float:
        (p,) = read(lambda Y, L: (np.einsum("ae,ae->a", L(0), _jet_entries(h.packed_jet(Y, 2))),))
        # L carries the base's sqrt(det g): p is the measure's own density
        return float(grid.integrals(p)[0])

    return pairing


def first_variation_numeric(
    base: MetricField,
    grid: QuadratureGrid,
    h: SymTensorField,
    coeff: Coefficients,
    t_step: float = COMPLEX_STEP,
) -> float:
    """Complex-step derivative Im F(g + i eps h) / eps of F along g + t h
    (module docstring), eps from :func:`_functional_step`."""
    if not (np.isfinite(t_step) and t_step > 0):
        raise PreconditionError(f"t_step must be positive and finite, got {t_step}")
    eps = _functional_step(coeff, t_step)
    sums = _integrals(linear_combination_metric(base, h, 1j * eps), grid, coeff)
    return float(sums["F"].imag / eps)


def el_residual(
    base: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> tuple[float, float]:
    """Sup-norm (componentwise, over all nodes) of the Euler-Lagrange tensor
    G - (tr_g G / n) g, the trace-free part of the gradient, and the multiplier
    c of G = c g (the volume mean of tr_g G / n), of one :func:`_gradient_pass`.

    The base must have unit quadrature volume (rescale with
    :func:`curvlab.charts.to_unit_volume` first).
    """
    p = _gradient_pass(base, grid, coeff)
    if abs(p["volume"] - 1.0) > UNIT_VOLUME_TOL:
        raise PreconditionError(
            f"Euler-Lagrange residual needs a unit-volume base (vol = {p['volume']:.6g})"
        )
    return float(np.max(p["el_max"])), p["c"]


def einstein_criticality_defect(base: MetricField, grid: QuadratureGrid) -> float:
    """sup_x |R_i^{plk} R_jplk - (1/n) |Rm|^2 g_ij| over the grid
    (componentwise).  Zero exactly when the Einstein base is critical for
    every (s, tau)."""
    n = base.dimension

    def block(Y):
        b = curvature(base, Y)
        D = b.A1 - (b.normRm2 / n)[:, None, None] * b.g
        return (*einstein_parts(b), np.abs(D).max(axis=(1, 2)))

    defect2, r_scale, D_max = distinct_blocks(block, grid.nodes, base.reads)
    require_einstein(defect2, r_scale)
    return float(np.max(D_max))


# ---------------------------------------------------------------------------
# Perturbation families and numeric second variations
# ---------------------------------------------------------------------------


@dataclass
class PerturbationFamily:
    """The family g(t) = a(t) (base + t h), where the constant a(t) keeps the
    total volume pinned at Vol(base) for every real t (so a(0) = 1 and g(0)
    is the base itself)."""

    base: MetricField
    h: SymTensorField

    def scale_factor(self, t: float, grid: QuadratureGrid) -> float:
        """a(t) = (Vol(base) / Vol(base + t h))^(2/n)."""
        if t == 0.0:
            return 1.0
        vol_t = volume(linear_combination_metric(self.base, self.h, t), grid)
        return (volume(self.base, grid) / vol_t) ** (2.0 / self.base.dimension)


class D2Numeric(NamedTuple):
    value: float
    rel_err_estimate: float


def second_variation_numeric(
    family: PerturbationFamily,
    grid: QuadratureGrid,
    coeff: Coefficients,
    t_step: float = SECOND_VARIATION_STEP,
) -> D2Numeric:
    """phi''(0) of phi(t) = F(g(t)) along the family by the rotated complex
    step of the module docstring: one real pass on the base, two complex ones.

    By the scaling law F(a g) = a^((n-4)/2) F(g), phi(z) = (V_0 / V(z))^((n-4)/n)
    F(g_0 + z h), F and the volume V from one quadrature pass.  With a_k the
    Taylor coefficients of phi and S = phi(w) + phi(-w), the estimate is
    (a_4 t_step^2 / a_2)^2 + eps (|a_0| + |S|) / (t_step^2 max(1, |a_2|)).
    Requires a constant-curvature (hence critical) base.
    """
    base, h, n = family.base, family.h, family.base.dimension
    if base.lam is None:
        raise PreconditionError("second variation is evaluated at space-form bases")
    if not positive_normal_power(t_step, 4):
        raise PreconditionError(
            f"t_step must be positive with t_step**4 a finite normal float, got {t_step}"
        )
    sums = _integrals(base, grid, coeff)
    a0, vol0 = float(sums["F"]), float(sums["volume"])

    def phi(z: complex) -> complex:
        s = _integrals(linear_combination_metric(base, h, z), grid, coeff)
        return (vol0 / s["volume"]) ** ((n - 4) / n) * s["F"]

    w = t_step * np.exp(0.25j * np.pi)
    # numpy's complex: a d2 or a4 beyond the float range overflows as numpy's do
    S = phi(w) + phi(-w)
    value = float(S.imag / t_step**2)
    a2, a4 = value / 2, float((a0 - S.real / 2) / t_step**4)
    roundoff = np.finfo(float).eps * (abs(a0) + abs(S)) / (t_step**2 * max(1.0, abs(a2)))
    return D2Numeric(value, (a4 * t_step**2 / a2) ** 2 + roundoff if a2 else np.inf)


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


def _checks(lhs: dict[str, float], rhs: dict[str, float]) -> list[IdentityCheck]:
    """One check per term: |lhs - rhs| relative to the size of the suite, its
    largest |rhs| (or the term's own |lhs| or |rhs|, if larger), so that a
    mismatch is judged alike at every radius of the base."""
    scale = max(abs(v) for v in rhs.values())
    out = []
    for k, r in rhs.items():
        size = max(scale, abs(lhs[k]), abs(r))
        out.append(IdentityCheck(k, lhs[k], r, abs(lhs[k] - r) / size if size else 0.0))
    return out


def _suite_primes(ing: dict, g: Array, ginv: Array) -> dict[str, Array]:
    """Im T / eps of the ten terms of complex-step ingredients, Lap R g replaced on g."""
    terms = _gradient_terms(ing)
    terms["scalar_laplacian_metric"] = contract("aik,aik->a", ginv, ing["hess_R"])[:, None, None] * g
    return {k: T.imag / COMPLEX_STEP for k, T in terms.items()}


def _suite_sides(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid, tt: bool
) -> tuple[float, dict[str, float], tuple[float, float, float]]:
    """lam, the left-hand sides {name: int <T', h> dV} of the ten terms T of
    the gradient, and (int |h|^2, int <h, Lap h>, int |Lap h|^2), from one
    pass over the grid in node blocks.  Each block builds h's covariant
    derivatives with the base's bundle (the measure, the g of the replaced
    term below, the space-form parts), the primes T' and the 13 per-node
    densities (with ``tt``, the TT defects too), so no grid-sized complex
    curvature array is built; then the gates are judged once and the
    densities make one :meth:`curvlab.charts.QuadratureGrid.integrals` call.

    Each T' is the complex step Im T(g + i eps h) / eps of a term of
    :func:`_gradient_terms` (:func:`_suite_primes`), all ten from one
    ingredients pass on a complex metric (its generic path: it declares no
    space form).  A TT h takes them on the distinct nodes of base and h.  An
    h = f g of :func:`conformal_tensor` on this base is seeded, the step
    being linear in f's jet: one step per representative of the base's
    coordinates and unit entry e of f's packed jet to order 4 (35 at n =
    3) gives L_e, kept per representative
    (:func:`curvlab.tensors.representative_blocks`), and T' = sum_e L_e d^e
    f is one contraction per term and block, so a further mode on the base
    costs one pairing.  TT's 6 x 35 seeds would make 13 times its rows.

    The one term replaced, Lap R g, enters as (g^{ik} (Hess R)'_ik) g, its
    prime at a space form, where Lap R = Hess R = 0: Im(Lap R g) / eps
    would also carry the generic path's roundoff in Lap R (about 3e-7 at
    the near-pole nodes) through Lap R h.  On a closed manifold int <h,
    Lap^2 h> = int |Lap h|^2, which the closed forms read from the last
    integral.
    """
    lam, n = base.lam, base.dimension
    if lam is None:
        raise PreconditionError("identity suites need a constant-curvature base")
    names: list[str] = []  # the term names of _gradient_terms, in its order

    def sides(hv, Dh, D2h, b, primes):
        lap_h = contract("akl,aijkl->aij", b.ginv, D2h)
        pairs = [(T, hv) for T in primes] + [(hv, hv), (lap_h, hv), (lap_h, lap_h)]
        return (
            *space_form_parts(b, lam),
            b.sqrt_det,
            *(inner_02(S, T, b.ginv) for S, T in pairs),
            *(_tt_defect_arrays(hv, Dh, b.ginv) if tt else ()),
        )

    seeded_base, f = getattr(h._jet, "factor", (None, None))
    if seeded_base is base:
        W = comb(n + 4, 4)
        unit = np.split(np.eye(W), np.cumsum([comb(n + k - 1, k) for k in range(4)]), axis=1)

        def kept(Y):
            g = base.packed_jet(Y, 4)  # once per representative

            def jet(rows, order):  # g + i eps jet_scale(u_e, g), u_e a unit entry of f's jet
                node, e = rows.T
                at = [d[node] for d in g[: order + 1]]
                step = jet_scale([u[e] for u in unit[: order + 1]], at)
                return [d + 1j * COMPLEX_STEP * t for d, t in zip(at, step)]

            def steps(rows):
                ing = _ingredients(SimpleNamespace(packed_jet=jet), rows, None)
                b = ing["bundle"]  # its real part is the base's
                primes = _suite_primes(ing, b.g.real, b.ginv.real)
                names[:] = primes
                return tuple(primes.values())

            # L_t[rep, :, :, e], entries last: a gather of rows is the pairing's layout
            return tuple(np.moveaxis(L, 1, -1) for L in _seeded_blocks(steps, len(Y), W))

        def paired(Y, L):
            derivs = sym_tensor_cov_derivs(base, h, Y)
            fj = np.concatenate([d.reshape(len(Y), -1) for d in f.packed_jet(Y, 4)], axis=1)
            return sides(*derivs, [contract("aije,ae->aij", L(t), fj) for t in range(len(names))])

        out = representative_blocks(kept, grid.nodes, base.reads)(paired)
    else:
        complex_metric = linear_combination_metric(base, h, 1j * COMPLEX_STEP)

        def block(Y):
            hv, Dh, D2h, b = sym_tensor_cov_derivs(base, h, Y)
            primes = _suite_primes(gradient_ingredients(complex_metric, Y), b.g, b.ginv)
            names[:] = primes
            return sides(hv, Dh, D2h, b, primes.values())

        out = distinct_blocks(block, grid.nodes, reads_of(base, h))
    dev, g_max, sqrt_det, *rest = out
    densities, defects = rest[: len(names) + 3], rest[len(names) + 3 :]
    if tt:
        _require_tt(*defects, "suite requires a TT field")
    ok, worst = space_form_gate(dev, g_max, lam, SPACE_FORM_TOL)
    if not ok:
        raise PreconditionError(f"base is not a space form (deviation {worst:.2e})")
    _, *sums = map(float, grid.integrals(sqrt_det, *densities))
    return lam, dict(zip(names, sums)), tuple(sums[len(names) :])


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
    lam, lhs, (nrm, ihl, ihl2) = _suite_sides(base, h, grid, tt=True)
    n = base.dimension
    rhs = dict(
        riemann_product=2 * (n + 1) * lam**2 * nrm - 2 * lam * ihl,
        ricci_laplacian=-0.5 * ihl2 + lam * ihl,
        scalar_hessian=0.0,
        ricci_square=(n**2 - 1) * lam**2 * nrm - (n - 1) * lam * ihl,
        ricci_riemann=(n**2 - n - 1) * lam**2 * nrm - 0.5 * (n - 2) * lam * ihl,
        riem_norm_metric=2 * lam**2 * n * (n - 1) * nrm,
        scalar_laplacian_metric=0.0,
        ricci_norm_metric=lam**2 * n * (n - 1) ** 2 * nrm,
        scalar_ricci=lam**2 * n**2 * (n - 1) * nrm - 0.5 * lam * n * (n - 1) * ihl,
        scalar_square_metric=lam**2 * n**2 * (n - 1) ** 2 * nrm,
    )
    return _checks(lhs, rhs)


def conformal_identity_suite(
    base: MetricField, f: ScalarField, grid: QuadratureGrid
) -> list[IdentityCheck]:
    """Same contract as :func:`tt_identity_suite` for h = f g, in terms of
    int f^2, int f Lap f and int f Lap^2 f = int (Lap f)^2."""
    lam, lhs, h_integrals = _suite_sides(base, conformal_tensor(base, f), grid, tt=False)
    n = base.dimension
    # |f g|^2 = n f^2 and Lap(f g) = (Lap f) g
    f2, f_lap, f_lap2 = (v / n for v in h_integrals)
    rhs = dict(
        riemann_product=-2 * lam**2 * n * (n - 1) * f2 - 4 * lam * (n - 1) * f_lap,
        ricci_laplacian=-(n - 1) * f_lap2 - lam * n * (n - 1) * f_lap,
        scalar_hessian=-(n - 1) * f_lap2 - lam * n * (n - 1) * f_lap,
        ricci_square=-(lam**2) * n * (n - 1) ** 2 * f2
        - 2 * lam * (n - 1) ** 2 * f_lap,
        ricci_riemann=-(lam**2) * n * (n - 1) ** 2 * f2
        - 2 * lam * (n - 1) ** 2 * f_lap,
        riem_norm_metric=-2 * lam**2 * n**2 * (n - 1) * f2
        - 4 * lam * n * (n - 1) * f_lap,
        scalar_laplacian_metric=-n * (n - 1) * f_lap2
        - lam * n**2 * (n - 1) * f_lap,
        ricci_norm_metric=-(lam**2) * n**2 * (n - 1) ** 2 * f2
        - 2 * lam * n * (n - 1) ** 2 * f_lap,
        scalar_ricci=-(lam**2) * n**2 * (n - 1) ** 2 * f2
        - 2 * lam * n * (n - 1) ** 2 * f_lap,
        scalar_square_metric=-(lam**2) * n**3 * (n - 1) ** 2 * f2
        - 2 * lam * n**2 * (n - 1) ** 2 * f_lap,
    )
    return _checks(lhs, rhs)


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
    d2_rel_err_estimate: float
    c_lagrange: float
