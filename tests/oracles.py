"""Oracles the tests check the package against, which no report of the
package reads: the Kulkarni-Nomizu product (the dense model of a space form
and of the Weyl decomposition), the complex step of the Christoffel symbols,
the metric of a volume-preserving family at t, the rough Laplacian and the
symmetrization energies of a TT field (the equality case of the least TT
eigenvalue on the sphere)."""

from __future__ import annotations

import numpy as np

from curvlab.errors import DimensionError
from curvlab.fields import _as_batch, linear_combination_metric, reads_of
from curvlab.spectral import _require_tt, _tt_defect_arrays
from curvlab.tensors import (
    bivector_product,
    christoffel_arrays,
    covariant_derivative,
    distinct_blocks,
    expand_pairs,
    raise_all,
    sym_tensor_cov_derivs,
    volume_element,
)
from curvlab.variations import COMPLEX_STEP


def kulkarni_nomizu(A, B):
    """(A o B)_ijkl = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il, the expansion
    of A wedge B + B wedge A.  Accepts (n,n) or batched (N,n,n) symmetric inputs.
    """
    A, B = np.asarray(A), np.asarray(B)
    dtype = np.result_type(A, B, float)  # complex inputs stay complex
    A, B = A.astype(dtype, copy=False), B.astype(dtype, copy=False)
    single = A.ndim == 2
    if single:
        A, B = A[None], B[None]
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
    out = expand_pairs(bivector_product(A, B) + bivector_product(B, A), A.shape[-1])
    return out[0] if single else out


def christoffel_variation(base, h, x):
    """(Gamma^k_ij)' under (g_ij)' = h_ij, the complex step of Gamma; shape
    (n,n,n) at a point."""
    X, single = _as_batch(x, base.dimension)
    metric = linear_combination_metric(base, h, 1j * COMPLEX_STEP)
    out = christoffel_arrays(*metric.packed_jet(X, 1)).imag / COMPLEX_STEP
    return out[0] if single else out


def metric_at(family, t, grid):
    """g(t) = a(t) (base + t h) of a :class:`curvlab.variations.PerturbationFamily`."""
    if t == 0.0:
        return family.base
    return linear_combination_metric(family.base, family.h, t).rescaled(
        family.scale_factor(t, grid)
    )


def rough_laplacian(base, h, X):
    """(Lap h)_ij = g^{kl} h_ij,kl (non-positive spectrum on the flat torus),
    g^-1 inverted from the metric's values."""
    ginv = np.linalg.inv(base.eval_grid(X))
    return np.einsum("akl,aijkl->aij", ginv, covariant_derivative(base, h, X, order=2))


def symmetrization_energies(base, h, grid):
    """Energies of the cyclic and antisymmetrized first derivatives of h:

    cyc  = int |h_ij,k + h_jk,i + h_ki,j|^2
    anti = int |h_ij,k - h_ik,j|^2

    Both are non-negative; the invariant S^3 mode makes cyc vanish, the
    equality case of the least-eigenvalue bound on the unit sphere.  The
    distinct nodes are streamed in blocks, each in one covariant-derivative
    pass, and h must pass the package's TT gate, judged after the sums, so
    that a grid without integrals is refused first.
    """

    def densities(Y):
        hv, Dh, _, g, ginv, *_ = sym_tensor_cov_derivs(base, h, Y)
        cyc = Dh + np.einsum("ajki->aijk", Dh) + np.einsum("akij->aijk", Dh)
        anti = Dh - np.einsum("aikj->aijk", Dh)
        return (
            *_tt_defect_arrays(hv, Dh, ginv),
            volume_element(g[0]),
            *(np.einsum("aijk,aijk->a", T, raise_all(T, ginv, (0, 1, 2))) for T in (cyc, anti)),
        )

    out = distinct_blocks(densities, grid.nodes, reads_of(base, h))
    div_norm, tr, grad2, size2, sqrt_det, cyc_d, anti_d = out
    _, cyc, anti = grid.integrals(sqrt_det, cyc_d, anti_d)
    _require_tt(div_norm, tr, grad2, size2, "field is not transverse-traceless")
    return float(cyc), float(anti)
