"""Explicit transverse-traceless modes and Lichnerowicz Rayleigh quotients.

Two analytically TT families are provided:

* Fourier modes on the flat torus, h = A cos(2 pi k.x) with tr A = 0 and
  A k = 0; these satisfy -Lap_L h = |2 pi k|^2 h.
* Left-invariant diagonal modes on the round S^3 chart,
  h = sum_i d_i w^i (x) w^i with sum d_i = 0 in the bi-invariant orthonormal
  coframe w^i; these attain the least TT eigenvalue 4n of -Lap_L on the
  unit sphere.

Random TT fields on curved models are deliberately not offered: without an
elliptic projection the TT property could only hold approximately, and every
spectral claim here is meant to be exactly checkable.  The TT gate judges
the defects relative to the size of h (:func:`_require_tt`), so a mode is
accepted at every scale, as its quotient is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import QuadratureGrid, milnor_coframe_exprs
from .errors import InvalidModeError, PreconditionError
from .fields import (
    Array,
    MetricField,
    Separable,
    SymTensorField,
    analytic_sym_tensor_field,
    euler_su2_domain,
    reads_of,
    torus_domain,
    trig_sym_tensor_field,
)
from .tensors import (
    _bundle_from_connection,
    distinct_blocks,
    einstein_parts,
    inner_02,
    lichnerowicz_arrays,
    norm2_02,
    raise_all,
    require_einstein,
    sym_tensor_cov_derivs,
)

TT_TOL = 1e-6


@dataclass(frozen=True)
class RayleighReport:
    energy: float  # int <-Lap_L h, h>
    norm2: float  # int |h|^2
    quotient: float
    tt_defect_div: float
    tt_defect_tr: float


def torus_tt_mode(n: int, k, A) -> SymTensorField:
    """TT Fourier mode h = A cos(2 pi k.x) on the flat unit torus.

    k must hold integers of size at most 2^53, which float64 holds exactly.
    The constraints tr A = 0 and A k = 0 are checked exactly (integer or
    dyadic-rational inputs incur no rounding).
    """
    if np.shape(k) != (n,) or np.shape(A) != (n, n):
        raise InvalidModeError(f"expected k of shape ({n},) and A of shape ({n},{n})")
    # compared as given: a large int would round on the way to float64
    given = np.asarray(k, dtype=object).tolist()
    if not all(abs(v) <= 2**53 and float(v).is_integer() for v in given):
        raise InvalidModeError(f"wave vector k = {given} must hold integers of size <= 2^53")
    k = np.asarray(k, dtype=float)
    A = np.asarray(A, dtype=float)
    if not np.array_equal(A, A.T):
        raise InvalidModeError("amplitude matrix is not symmetric")
    if not k.any():
        raise InvalidModeError("wave vector k must be nonzero")
    if A.trace() != 0.0:
        raise InvalidModeError(f"trace A = {A.trace()} != 0")
    Ak = A @ k
    if Ak.any():
        raise InvalidModeError(f"A k = {Ak.tolist()} != 0 (transversality)")
    name = f"torus TT mode k={k.astype(int).tolist()}"
    return trig_sym_tensor_field(torus_domain(n), [(k, A, np.zeros((n, n)))], name=name)


def s3_invariant_tt(d, radius: float = 1.0) -> SymTensorField:
    """Left-invariant traceless diagonal mode on the round S^3 Euler chart.

    h = sum_i d_i w^i w^i in the orthonormal bi-invariant coframe, expressed
    in chart components with closed-form jets; requires sum d_i = 0 and
    d != 0.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (3,):
        raise InvalidModeError("need three coefficients")
    if d.sum() != 0.0:
        raise InvalidModeError(f"sum d = {d.sum()} != 0 (trace condition)")
    if not d.any():
        raise InvalidModeError("mode coefficients are all zero")
    w = milnor_coframe_exprs(radius)
    h = {
        (mu, nu): sum((float(d[i]) * w[i][mu] * w[i][nu] for i in range(3)), Separable())
        for mu in range(3)
        for nu in range(mu, 3)
    }
    return analytic_sym_tensor_field(
        euler_su2_domain(), h, name=f"S^3 invariant mode d={d.tolist()}"
    )


def tt_defect(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid
) -> tuple[float, float]:
    """(sup |delta h|_g, sup |tr h|) over the grid nodes."""

    def defects(Y):
        hv, Dh, _, _, ginv, *_ = sym_tensor_cov_derivs(base, h, Y)
        return _tt_defect_arrays(hv, Dh, ginv)[:2]

    maxima = distinct_blocks(defects, grid.nodes, reads_of(base, h))
    return tuple(float(np.max(v)) for v in maxima)


def _tt_defect_arrays(hv: Array, Dh: Array, ginv: Array) -> tuple[Array, ...]:
    """(|delta h|_g, |tr h|, |nabla h|_g^2, |h|_g^2) at each node: the two TT
    defects and the squared sizes :func:`_require_tt` judges them against."""
    div = np.einsum("apq,apjq->aj", ginv, Dh)
    div_norm = np.sqrt(np.maximum(np.einsum("aij,ai,aj->a", ginv, div, div), 0.0))
    tr = np.einsum("aij,aij->a", ginv, hv)
    grad2 = np.einsum("aijk,aijk->a", Dh, raise_all(Dh, ginv, (0, 1, 2)))
    return div_norm, np.abs(tr), grad2, norm2_02(hv, ginv)


def _require_tt(
    div_norm: Array, tr: Array, grad2: Array, size2: Array, what: str
) -> tuple[float, float]:
    """The TT defect maxima over all nodes, from :func:`_tt_defect_arrays`;
    PreconditionError unless max |delta h|_g <= TT_TOL max |nabla h|_g and
    max |tr h| <= TT_TOL max |h|_g, so that the gate holds at every scale of
    h.  A NaN fails."""
    dd, dt = float(np.max(div_norm)), float(np.max(tr))
    grad, size = (np.sqrt(np.maximum(np.max(v), 0.0)) for v in (grad2, size2))
    if not (dd <= TT_TOL * grad and dt <= TT_TOL * size):
        raise PreconditionError(f"{what} (div {dd:.2e}, tr {dt:.2e})")
    return dd, dt


def rayleigh_lichnerowicz(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid
) -> RayleighReport:
    """Rayleigh quotient of -Lap_L on a TT field over an Einstein base, the
    distinct nodes of the coordinates base and h read streamed in blocks
    (per-node densities, summed once over all nodes), each block's
    curvature built from the metric jet and connection (g^-1, S, Gamma) of
    its covariant derivatives."""

    def densities(Y):
        hv, Dh, D2h, g, ginv, S, Gamma = sym_tensor_cov_derivs(base, h, Y)
        bundle = _bundle_from_connection(*g, ginv, S, Gamma)
        lap_L = lichnerowicz_arrays(hv, D2h, bundle)
        return (
            *einstein_parts(bundle),
            *_tt_defect_arrays(hv, Dh, ginv),
            bundle.sqrt_det,
            -inner_02(lap_L, hv, bundle.ginv),
        )

    # an h near the float range overflows to inf or NaN, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        out = distinct_blocks(densities, grid.nodes, reads_of(base, h))
        defect2, r_scale, div_norm, tr, grad2, norm_d, sqrt_det, energy_d = out
        _, energy, norm2 = map(float, grid.integrals(sqrt_det, energy_d, norm_d))
    require_einstein(defect2, r_scale)
    if not (0.0 < norm2 < np.inf and np.isfinite(energy)):
        raise PreconditionError(
            f"h leaves the float range: int |h|^2 = {norm2:.3g}, int <-Lap_L h, h> = "
            f"{energy:.3g}; rescale it (the quotient is scale-invariant)"
        )
    dd, dt = _require_tt(div_norm, tr, grad2, norm_d, "field is not transverse-traceless")
    return RayleighReport(
        energy=energy,
        norm2=norm2,
        quotient=energy / norm2,
        tt_defect_div=dd,
        tt_defect_tr=dt,
    )

