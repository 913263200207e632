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
:func:`curvature_variations` of Rm, Ric and R, and the identity suites of
each of the ten terms of the gradient.  No hand-derived prime (Gamma', Rm',
Ric', R') remains in the package: the classical linearisations live on only
in the tests, as oracles for these complex steps beside finite differences.
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
from operator import add
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
from .functionals import Coefficients, _integrals
from .spectral import _require_tt, _tt_defect_arrays
from .tensors import (
    CurvatureBundle,
    contract,
    covariant_hessian_blocks,
    curvature,
    distinct_blocks,
    distinct_nodes,
    einstein_parts,
    inner_02,
    jet_scale,
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
    bundle, whose cached A1, B and ric2 are the quadratic contractions.

    All of them are made once per distinct node of the coordinates the base
    reads (:func:`curvlab.tensors.distinct_nodes`), and every array is on
    those nodes: ``ing["at"]`` gathers a per-node quantity made from them
    back to the rows of X, as the quadrature sums and the pointwise
    gradient do, and a maximum over them is the maximum over X.  Unlike a
    :func:`curvlab.tensors.distinct_blocks` pass, which gathers its outputs
    itself, this hands out the bundle, which builds A1, B and the norms
    lazily on first read, so on the representatives only; the benchmark
    reads ``ing["bundle"]`` too.

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
    rows, at = distinct_nodes(X, base.reads)
    try:
        bundle = curvature(base, X[rows])
    except DegenerateMetricError as e:
        raise e.renumbered(np.arange(len(X))[rows]) from None
    X = X[rows]
    ginv = bundle.ginv
    lam = base.lam
    if use_structure and lam is not None and space_form_gate(
        *space_form_parts(bundle, lam), lam, PARALLEL_CURVATURE_TOL
    )[0]:
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
    return {"bundle": bundle, "lap_ric": lap_ric, "hess_R": hess_R, "lap_R": lap_R, "at": at}


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
    ing = gradient_ingredients(base, X)
    G = _gradient_parts(ing, coeff)
    parts = [getattr(G, f.name)[ing["at"]] for f in fields(G)]
    return GradientTensor(*(T[0] for T in parts) if single else parts)


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
    """The multiplier c of G = c g: the volume average of tr_g G / n."""
    at = ing["at"]
    vol, trace = grid.integrals(ing["bundle"].sqrt_det[at], _trace_multiplier(ing, coeff)[at])
    return float(trace / vol)


def _first_variation_pairing(
    ing: dict, grid: QuadratureGrid, coeff: Coefficients
) -> Callable[[SymTensorField], float]:
    """h -> int G_ij h^{ij} dV, with G, g^-1 and the volume element of one
    set of gradient ingredients of the base on the grid built once for every
    direction; a grid without integrals is refused here, before any
    direction."""
    b: CurvatureBundle = ing["bundle"]
    at = ing["at"]
    G, ginv, sqrt_det = _gradient_parts(ing, coeff).grad_total[at], b.ginv[at], b.sqrt_det[at]
    grid.integrals(sqrt_det)
    return lambda h: float(grid.integrals(sqrt_det, inner_02(G, h.eval_grid(grid.nodes), ginv))[1])


def first_variation_numeric(
    base: MetricField,
    grid: QuadratureGrid,
    h: SymTensorField,
    coeff: Coefficients,
    t_step: float = COMPLEX_STEP,
) -> float:
    """Complex-step derivative Im F(g + i eps h) / eps of F along g + t h
    (module docstring), eps = t_step / sqrt(max(1, |s|, |tau|)) so that its
    residue, eps^2 times the weights of F, stays at roundoff at every (s, tau)."""
    if not (np.isfinite(t_step) and t_step > 0):
        raise PreconditionError(f"t_step must be positive and finite, got {t_step}")
    eps = t_step / np.sqrt(max(1.0, abs(coeff.s), abs(coeff.tau)))
    sums = _integrals(linear_combination_metric(base, h, 1j * eps), grid, coeff)
    return float(sums["F"].imag / eps)


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
    vol = float(grid.integrals(b.sqrt_det[ing["at"]])[0])
    if abs(vol - 1.0) > UNIT_VOLUME_TOL:
        raise PreconditionError(
            f"Euler-Lagrange residual needs a unit-volume base (vol = {vol:.6g})"
        )
    G = _gradient_parts(ing, coeff).grad_total
    E = G - _trace_multiplier(ing, coeff)[:, None, None] * b.g
    return float(np.max(np.abs(E))), _lagrange_constant(ing, grid, coeff)


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
    S = complex(phi(w) + phi(-w))
    value = S.imag / t_step**2
    a2, a4 = value / 2, (a0 - S.real / 2) / t_step**4
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


def _suite_sides(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid, tt: bool
) -> tuple[float, dict[str, float], tuple[float, float, float]]:
    """lam, the left-hand sides {name: int <T', h> dV} of the ten terms T of
    the gradient, and (int |h|^2, int <h, Lap h>, int |Lap h|^2), from one
    pass over the distinct nodes of the coordinates base and h read,
    streamed in node blocks (:func:`curvlab.tensors.distinct_blocks`).

    Each block builds h's covariant derivatives with the base's bundle (the
    measure, the g of the replaced term below, the space-form parts), the
    complex-step ingredients and the 13 per-node densities (with ``tt``, the
    TT defects too), so no grid-sized complex curvature array is built.  After the pass the gates
    are judged once and the densities at every grid node make one
    :meth:`curvlab.charts.QuadratureGrid.integrals` call.

    Each T' is the complex step Im T(g + i eps h) / eps of a term of
    :func:`_gradient_terms`, all ten from one :func:`gradient_ingredients`
    pass on the complex metric (its generic path: the complex metric
    declares no space form).  The one term replaced here, Lap R g, enters as
    (g^{ik} (Hess R)'_ik) g, its prime at a space form, where Lap R =
    Hess R = 0: Im(Lap R g) / eps would also carry the generic path's
    roundoff in Lap R (about 3e-7 at the near-pole nodes) through Lap R h.
    On a closed manifold int <h, Lap^2 h> = int |Lap h|^2, which the closed
    forms read from the last integral.
    """
    lam = base.lam
    if lam is None:
        raise PreconditionError("identity suites need a constant-curvature base")
    complex_metric = linear_combination_metric(base, h, 1j * COMPLEX_STEP)
    names: list[str] = []  # the term names of _gradient_terms, in its order

    def block(Y):
        hv, Dh, D2h, b = sym_tensor_cov_derivs(base, h, Y)
        # Y is distinct on what the complex metric reads: ing is on all of Y
        ing = gradient_ingredients(complex_metric, Y)
        terms = _gradient_terms(ing)
        terms["scalar_laplacian_metric"] = (
            contract("aik,aik->a", b.ginv, ing["hess_R"])[:, None, None] * b.g
        )
        names[:] = terms
        lap_h = contract("akl,aijkl->aij", b.ginv, D2h)
        pairs = [(T.imag / COMPLEX_STEP, hv) for T in terms.values()]
        pairs += [(hv, hv), (lap_h, hv), (lap_h, lap_h)]
        return (
            *space_form_parts(b, lam),
            b.sqrt_det,
            *(inner_02(S, T, b.ginv) for S, T in pairs),
            *(_tt_defect_arrays(hv, Dh, b.ginv) if tt else ()),
        )

    dev, g_max, sqrt_det, *rest = distinct_blocks(block, grid.nodes, reads_of(base, h))
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
