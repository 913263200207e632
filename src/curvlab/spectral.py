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
spectral claim here is meant to be exactly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import QuadratureGrid, _require_quadrature, milnor_coframe_exprs
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
    volume_element,
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

    The constraints tr A = 0 and A k = 0 are checked exactly (integer or
    dyadic-rational inputs incur no rounding).
    """
    k = np.asarray(k, dtype=float)
    A = np.asarray(A, dtype=float)
    if k.shape != (n,) or A.shape != (n, n):
        raise InvalidModeError(f"expected k of shape ({n},) and A of shape ({n},{n})")
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
        return _tt_defect_arrays(hv, Dh, ginv)

    maxima, _ = distinct_blocks(defects, grid.nodes, reads_of(base, h))
    return tuple(float(np.max(v)) for v in maxima)


def _tt_defect_arrays(hv: Array, Dh: Array, ginv: Array) -> tuple[Array, Array]:
    """(|delta h|_g, |tr h|) at each node."""
    div = np.einsum("apq,apjq->aj", ginv, Dh)
    div_norm = np.sqrt(np.maximum(np.einsum("aij,ai,aj->a", ginv, div, div), 0.0))
    tr = np.einsum("aij,aij->a", ginv, hv)
    return div_norm, np.abs(tr)


def _require_tt(div_norm: Array, tr: Array, what: str) -> tuple[float, float]:
    """The TT defect maxima over all nodes; PreconditionError past TT_TOL."""
    dd, dt = float(np.max(div_norm)), float(np.max(tr))
    if dd > TT_TOL or dt > TT_TOL:
        raise PreconditionError(f"{what} (div {dd:.2e}, tr {dt:.2e})")
    return dd, dt


def rayleigh_lichnerowicz(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid
) -> RayleighReport:
    """Rayleigh quotient of -Lap_L on a TT field over an Einstein base, the
    distinct nodes of the coordinates base and h read streamed in blocks
    (per-node densities, gathered to one sum over all nodes), each block's
    curvature built from the metric jet and connection (g^-1, S, Gamma) of
    its covariant derivatives."""
    _require_quadrature(base)

    def densities(Y):
        hv, Dh, D2h, g, ginv, S, Gamma = sym_tensor_cov_derivs(base, h, Y)
        bundle = _bundle_from_connection(*g, ginv, S, Gamma)
        lap_L = lichnerowicz_arrays(hv, D2h, bundle)
        return (
            *einstein_parts(bundle),
            *_tt_defect_arrays(hv, Dh, ginv),
            bundle.sqrt_det,
            -inner_02(lap_L, hv, bundle.ginv),
            norm2_02(hv, bundle.ginv),
        )

    out, at = distinct_blocks(densities, grid.nodes, reads_of(base, h))
    defect2, r_scale, div_norm, tr, sqrt_det, energy_d, norm_d = out
    require_einstein(defect2, r_scale)
    dd, dt = _require_tt(div_norm, tr, "field is not transverse-traceless")
    measure = grid.weights * sqrt_det[at]
    energy = float(np.sum(measure * energy_d[at]))
    norm2 = float(np.sum(measure * norm_d[at]))
    return RayleighReport(
        energy=energy,
        norm2=norm2,
        quotient=energy / norm2,
        tt_defect_div=dd,
        tt_defect_tr=dt,
    )


def symmetrization_energies(
    base: MetricField, h: SymTensorField, grid: QuadratureGrid
) -> tuple[float, float]:
    """Energies of the cyclic and antisymmetrized first derivatives of h:

    cyc  = int |h_ij,k + h_jk,i + h_ki,j|^2
    anti = int |h_ij,k - h_ik,j|^2

    Both are non-negative; the invariant S^3 mode makes cyc vanish, the
    equality case of the least-eigenvalue bound on the unit sphere.
    """
    _require_quadrature(base)

    def densities(Y):
        hv, Dh, _, g, ginv, *_ = sym_tensor_cov_derivs(base, h, Y)
        cyc = Dh + np.einsum("ajki->aijk", Dh) + np.einsum("akij->aijk", Dh)
        anti = Dh - np.einsum("aikj->aijk", Dh)
        return (
            *_tt_defect_arrays(hv, Dh, ginv),
            volume_element(g[0]),
            *(np.einsum("aijk,aijk->a", T, raise_all(T, ginv, (0, 1, 2))) for T in (cyc, anti)),
        )

    out, at = distinct_blocks(densities, grid.nodes, reads_of(base, h))
    div_norm, tr, sqrt_det, cyc_d, anti_d = out
    _require_tt(div_norm, tr, "field is not transverse-traceless")
    measure = grid.weights * sqrt_det[at]
    return float(np.sum(measure * cyc_d[at])), float(np.sum(measure * anti_d[at]))
