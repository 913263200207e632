"""Pointwise Riemannian tensor algebra on coordinate charts.

All computations are batched over a leading node axis ``a``.  Index
conventions (frozen by the unit tests against the round-sphere
normalization Ric = (n-1) * lam * g):

* ``dg[a,i,j,k] = d g_ij / d x^k``; ``d2g[a,i,j,k,l]`` appends ``d/d x^l``.
* Christoffel symbols ``Gamma[a,k,i,j]`` = Gamma^k_ij = g^{kl} S_lij / 2,
  where ``S[a,l,i,j]`` = g_jl,i + g_il,j - g_ij,l = 2 Gamma_{l,ij} holds the
  symbols of the first kind (:func:`christoffel_combination`).
* Curvature is the Riemann tensor of the first kind ``Rm4[a,l,i,j,k]`` =
  R_lijk = g_lp R^p_ijk, R^l_ijk = d_j Gamma^l_ik - d_k Gamma^l_ij +
  Gamma^p_ik Gamma^l_jp - Gamma^p_ij Gamma^l_kp (antisymmetric pairs (l,i)
  and (j,k); Rm4[l,i,j,k] = lam (g_lj g_ik - g_lk g_ij) on a space form).
  It comes from the second partials of g with no derivative of the
  connection (Eisenhart, *Riemannian Geometry*, 1926): R_lijk = T_lijk -
  T_likj, T_lijk = (g_lk,ij - g_ik,lj + S_qkl Gamma^q_ij) / 2, so the (j,k)
  antisymmetry is exact.  ``Rm13`` = R^l_ijk is raised from Rm4 on demand.
* Ricci ``Ric[a,i,k] = g^{lj} R_lijk``; scalar ``R = g^{ik} Ric_ik``.
* The quadratic contractions of the gradient are cached on the bundle:
  ``A1_ij = R_i^{plk} R_jplk``, ``B_ij = R^{pl} R_ipjl`` and
  ``ric2_ij = R_ip g^{pq} R_qj``, all with Rm4's slot order.
  :func:`space_form_deviation` is the one space-form test: max |Rm4 -
  lam (g o g)/2|, each caller comparing it with its own tolerance.
* Covariant derivatives of a symmetric tensor follow the index order
  ``h_ij,kl = nabla_l nabla_k h_ij``: ``Dh[a,i,j,k]``, ``D2h[a,i,j,k,l]``.
* A jet ``[T, dT, ..., d^m T]`` appends m symmetric coordinate-derivative
  axes to the components (as in :mod:`curvlab.fields`); :func:`jet_einsum`,
  :func:`jet_inverse` and :func:`covariant_jet` carry jets through products,
  inverses and covariant derivatives, so derivatives of computed curvature
  are exact.

Products of two batched tensors go through :func:`contract`, which reads an
einsum spec and runs it as one batched ``np.matmul``: each index is a batch
index (in both operands and kept), a free index (in one operand and kept) or
a contracted index (in both, summed), and the operands are transposed and
reshaped to (batch, free, contracted) matrices.  numpy's own ``einsum``
cannot hand a product that keeps the node axis to BLAS, and its inner loops
here run only n = 3..5 long.  ``contract`` falls back to ``np.einsum`` for an
index summed inside one operand, for more than two operands, for operands
whose shared axes differ in size (broadcasting), and for a batch smaller
than :data:`MATMUL_MIN_BATCH` (single-point calls), where the transposes
cost more than they save.  Single-operand traces and permutations stay
plain ``np.einsum``.

The rough Laplacian is the metric trace of the second covariant derivative,
with the sign that makes it non-positive on the flat torus
(Laplacian of cos(k.x) = -|k|^2 cos(k.x)).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import Callable

import numpy as np

from .errors import DegenerateMetricError, DimensionError, PreconditionError
from .fields import Array, CovectorField, MetricField, SymTensorField, _as_batch

# Relative FD step (fraction of the smallest axis extent) for finite
# differences of computed tensor fields such as the Ricci tensor.  The
# package's own curvature derivatives are exact jets; this step serves the
# independent finite-difference oracles that check them, where it keeps the
# stencils clear of chart singularities.
FIELD_FD_REL_STEP = 2e-3

EINSTEIN_TOL = 1e-6

# Nodes per block of covariant_hessian_blocks (order-4 jets of every
# ingredient are live at once) and of space_form_deviation's model tensor:
# blocks keep peak memory flat in the grid.
HESSIAN_BLOCK = 64

# Smallest batch that contract runs as a matmul.  Pointwise calls carry one
# node and grids at least HESSIAN_BLOCK; below this size the transposes and
# reshapes cost more than np.einsum's own loop.
MATMUL_MIN_BATCH = 16


# ---------------------------------------------------------------------------
# Contraction kernel
# ---------------------------------------------------------------------------


def _expand_ellipsis(sub: str, ndim: int) -> str | None:
    """Subscripts with ``...`` replaced by one digit label per axis, aligned
    from the right as numpy broadcasts them; None if the count is off."""
    if "..." not in sub:
        return sub if len(sub) == ndim else None
    width = ndim - (len(sub) - 3)
    if not 0 <= width <= 10:
        return None
    return sub.replace("...", "".join(str(k) for k in reversed(range(width))))


def _operand_layout(sub: str, batch: str, free: str, summed: str):
    """(axis permutation, True when the contracted group comes first) that
    brings an operand to batch + free + contracted or batch + contracted +
    free, whichever its own axis order already follows."""
    rest = "".join(c for c in sub if c not in batch)
    k_first = rest == summed + free and rest != free + summed
    order = batch + (summed + free if k_first else free + summed)
    return tuple(sub.index(c) for c in order), k_first


@lru_cache(maxsize=None)
def _contract_plan(spec: str, ndims: tuple[int, ...]):
    """Axis plan running a two-operand einsum spec as one batched matmul, or
    None when the spec needs np.einsum."""
    ins, arrow, out = spec.partition("->")
    subs = ins.split(",")
    if not arrow or len(subs) != 2 or len(ndims) != 2:
        return None
    a, b = (_expand_ellipsis(s, nd) for s, nd in zip(subs, ndims))
    if a is None or b is None:
        return None
    width = max(sum(c.isdigit() for c in x) for x in (a, b))
    if "..." not in out and width:
        return None
    out = out.replace("...", "".join(str(k) for k in reversed(range(width))))
    if any(len(set(x)) != len(x) for x in (a, b, out)):
        return None  # a diagonal or a repeated output index
    if any(c not in out for c in a + b if (c in a) != (c in b)):
        return None  # an index summed inside one operand
    if any(c not in a + b for c in out):
        return None
    batch = "".join(c for c in a if c in b and c in out)
    fa = "".join(c for c in a if c not in b)
    fb = "".join(c for c in b if c not in a)
    # the contracted indices follow the operand with more axes
    longer = a if len(a) >= len(b) else b
    summed = "".join(c for c in longer if c in a and c in b and c not in out)
    perm_a, a_k_first = _operand_layout(a, batch, fa, summed)
    perm_b, b_k_first = _operand_layout(b, batch, fb, summed)
    # matmul gives (batch, fa, fb); the swapped product B^T A^T gives
    # (batch, fb, fa), taken when the output lists an index of B first
    kept = [c for c in out if c not in batch]
    swap = bool(kept) and kept[0] in fb
    made = batch + (fb + fa if swap else fa + fb)
    out_perm = tuple(made.index(c) for c in out)
    return (
        perm_a, a_k_first, perm_b, b_k_first,
        len(batch), len(fa), len(summed), swap, out_perm,
    )


def contract(spec: str, *operands: Array) -> Array:
    """``np.einsum(spec, *operands)`` for two batched operands, run as one
    batched matmul (see the module docstring for the fallback cases)."""
    plan = _contract_plan(spec, tuple(map(np.ndim, operands)))
    if plan is None:
        return np.einsum(spec, *operands)
    perm_a, a_k_first, perm_b, b_k_first, nb, nfa, nk, swap, out_perm = plan
    A, B = operands
    if prod(A.shape[i] for i in perm_a[:nb]) < MATMUL_MIN_BATCH:
        return np.einsum(spec, A, B)
    A, B = np.transpose(A, perm_a), np.transpose(B, perm_b)
    bshape = A.shape[:nb]
    if a_k_first:
        kshape, fashape = A.shape[nb : nb + nk], A.shape[nb + nk :]
    else:
        fashape, kshape = A.shape[nb : nb + nfa], A.shape[nb + nfa :]
    if b_k_first:
        bk, fbshape = B.shape[nb : nb + nk], B.shape[nb + nk :]
    else:
        fbshape, bk = B.shape[nb : B.ndim - nk], B.shape[B.ndim - nk :]
    if B.shape[:nb] != bshape or bk != kshape:  # broadcasting: leave it to einsum
        return np.einsum(spec, *operands)
    size, fa, k, fb = prod(bshape), prod(fashape), prod(kshape), prod(fbshape)
    A = A.reshape((size, k, fa)).swapaxes(1, 2) if a_k_first else A.reshape((size, fa, k))
    B = B.reshape((size, k, fb)) if b_k_first else B.reshape((size, fb, k)).swapaxes(1, 2)
    if swap:
        R = np.matmul(B.swapaxes(1, 2), A.swapaxes(1, 2)).reshape(bshape + fbshape + fashape)
    else:
        R = np.matmul(A, B).reshape(bshape + fashape + fbshape)
    return np.transpose(R, out_perm)


# ---------------------------------------------------------------------------
# Jet algebra
# ---------------------------------------------------------------------------
#
# A jet of order m is a list [T, dT, ..., d^m T] of batched arrays; d^k T
# carries k trailing derivative axes, symmetric among themselves.  Products
# follow Leibniz' rule (Taylor propagation, Griewank & Walther, "Evaluating
# Derivatives", 2nd ed., ch. 13): the k-th partial of a product sums, over
# every way of handing each of the k derivative indices to one factor, the
# product of the factors' partials.

_DERIV = "uvwxyz"
_SLOTS = "ijkl"


@lru_cache(maxsize=None)
def _leibniz_terms(spec: str, k: int) -> tuple:
    """(einsum subscripts, factor orders) of every term of the k-th partial."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    d = _DERIV[:k]
    terms = []
    for owner in product(range(len(ins)), repeat=k):
        subs = [
            s + "".join(c for c, o in zip(d, owner) if o == f) for f, s in enumerate(ins)
        ]
        orders = tuple(owner.count(f) for f in range(len(ins)))
        terms.append((",".join(subs) + "->" + out + d, orders))
    return tuple(terms)


def _leibniz(spec: str, jets, k: int):
    """k-th partial of an einsum product; partials missing from a short jet
    count as zero."""
    total = 0.0
    for subs, orders in _leibniz_terms(spec, k):
        if all(r < len(j) for r, j in zip(orders, jets)):
            total = total + contract(subs, *(j[r] for r, j in zip(orders, jets)))
    return total


def jet_einsum(spec: str, *jets: list, order: int | None = None) -> list:
    """Jet of the batched einsum ``spec`` of the factors' jets, to ``order``
    (default: the order of the shortest factor jet)."""
    shortest = min(len(j) for j in jets) - 1
    if order is None:
        order = shortest
    elif order > shortest:
        raise DimensionError(f"a factor jet of order {shortest} cannot give order {order}")
    return [_leibniz(spec, jets, k) for k in range(order + 1)]


def jet_inverse(A: list) -> list:
    """Jet of the matrix inverse, solving d^k(A A^-1) = 0 order by order."""
    inv = [np.linalg.inv(A[0])]
    for k in range(1, len(A)):
        # the terms of d^k(A A^-1) whose A factor is differentiated
        rest = _leibniz("aij,ajk->aik", (A, inv), k)
        inv.append(-contract("aij,ajk...->aik...", inv[0], rest))
    return inv


def connection_jet(g: list) -> tuple[list, list]:
    """Jets of (g^-1, Gamma) from a metric jet; both come one order short."""
    ginv = jet_inverse(g[:-1])
    S = [christoffel_combination(d) for d in g[1:]]
    return ginv, [0.5 * G for G in jet_einsum("akl,alij->akij", ginv, S)]


def christoffel_combination(D: Array) -> Array:
    """S[a,l,i,j,...] = D[a,j,l,i,...] + D[a,i,l,j,...] - D[a,i,j,l,...], any
    trailing derivative axes riding along: Gamma^k_ij = g^{kl} S_lij / 2 for
    D = dg."""
    P = np.einsum("ailj...->alij...", D)
    return P + P.swapaxes(2, 3) - np.einsum("aijl...->alij...", D)


def covariant_jet(T: list, Gamma: list) -> list:
    """Jet of nabla T (new slot last), one order shorter than the jet of T.

    (nabla T)_{..m} = d_m T - sum over slots s of Gamma^p_{m i_s} T_{..p..};
    the jet of Gamma must reach the order of the result.
    """
    comp = _SLOTS[: T[0].ndim - 1]
    out = list(T[1:])
    for s, c in enumerate(comp):
        spec = f"apm{c},a{comp[:s]}p{comp[s + 1:]}->a{comp}m"
        corr = jet_einsum(spec, Gamma, T, order=len(T) - 2)
        out = [o - x for o, x in zip(out, corr)]
    return out


# ---------------------------------------------------------------------------
# Core pipeline
# ---------------------------------------------------------------------------


def connection_arrays(g: Array, dg: Array):
    """(ginv, S, Gamma) from the metric and its first partials: S[a,l,i,j] =
    2 Gamma_{l,ij} (first kind) and Gamma[a,k,i,j] = g^{kl} S_lij / 2."""
    ginv = np.linalg.inv(g)
    S = christoffel_combination(dg)
    return ginv, S, 0.5 * contract("akl,alij->akij", ginv, S)


def christoffel_arrays(g: Array, dg: Array) -> Array:
    """Gamma[a,k,i,j] from the metric and its first partials."""
    return connection_arrays(g, dg)[2]


def ricci_arrays(field, X: Array, order: int = 0):
    """Lean pipeline: jets of (g, ginv, Gamma, Ric, R) at the points.

    Ric and R come to ``order``, ginv and Gamma to ``order + 1`` and g to
    ``order + 2``.  Ricci is contracted straight from the connection data, so
    no rank-5 intermediate is materialized.
    """
    X, _ = _as_batch(X, field.dimension)
    g = field.jet(X, order + 2)
    ginv, Gamma = connection_jet(g)
    # Ric_ik = d_j Gamma^j_ik - d_k Gamma^j_ij + Gamma^p_ik Gamma^j_jp
    #          - Gamma^p_ij Gamma^j_kp
    c1 = [np.einsum("ajjp...->ap...", G) for G in Gamma]
    t3 = jet_einsum("apik,ap->aik", Gamma, c1, order=order)
    t4 = jet_einsum("apij,ajkp->aik", Gamma, Gamma, order=order)
    Ric = [
        np.einsum("ajikj...->aik...", dG) - np.einsum("ajijk...->aik...", dG) + p - q
        for dG, p, q in zip(Gamma[1:], t3, t4)
    ]
    R = jet_einsum("aik,aik->a", ginv, Ric)
    return g, ginv, Gamma, Ric, R


@dataclass
class CurvatureBundle:
    """Pointwise curvature data; arrays keep the leading node axis."""

    g: Array
    ginv: Array
    sqrt_det: Array  # (a,) sqrt(det g), the volume element
    Gamma: Array  # (a,k,i,j)
    Rm4: Array  # (a,l,i,j,k) = R_lijk, the curvature array (first kind)
    Ric: Array  # (a,i,k)
    R: Array  # (a,)
    normRm2: Array  # |Rm|^2
    normRic2: Array  # |Ric|^2

    @property
    def dimension(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def W(self) -> Array | None:
        """Weyl (0,4) tensor, built on first use; zeros for n = 3, None for
        n = 2."""
        if self.dimension < 3:
            return None
        return weyl_from_parts(self.g, self.ginv, self.Rm4, self.Ric, self.R)

    @cached_property
    def Rm13(self) -> Array:
        """R^l_ijk: Rm4 with its first slot raised."""
        return raise_all(self.Rm4, self.ginv, (0,))

    @cached_property
    def Rm_up3(self) -> Array:
        """R_i^{jkl}: Rm4 with its last three slots raised."""
        return raise_all(self.Rm4, self.ginv, (1, 2, 3))

    @cached_property
    def ric_up(self) -> Array:
        """R^{ik}."""
        return raise_all(self.Ric, self.ginv, (0, 1))

    @cached_property
    def A1(self) -> Array:
        """A1_ij = R_i^{plk} R_jplk."""
        return contract("aiplk,ajplk->aij", self.Rm4, self.Rm_up3)

    @cached_property
    def B(self) -> Array:
        """B_ij = R^{pl} R_ipjl."""
        return contract("apl,aipjl->aij", self.ric_up, self.Rm4)

    @cached_property
    def ric2(self) -> Array:
        """(Ric^2)_ij = R_ip g^{pq} R_qj."""
        return np.einsum("aip,apq,aqj->aij", self.Ric, self.ginv, self.Ric)


def raise_all(T: Array, ginv: Array, slots: tuple[int, ...]) -> Array:
    """Raise the given component slots of a batched covariant tensor:
    each slot index p becomes i through ginv[a, i, p].

    A slot at either end of the working array's axis order is contracted
    without a copy, and its raised index lands at the other end; raising
    every slot thus cycles the axes back to a contiguous result.
    """
    comp = _SLOTS[: T.ndim - 1]
    mem, out = comp, T  # mem: the component letters of out, in axis order
    pending = [comp[s] for s in slots]
    while pending:
        c = mem[0] if mem[0] in pending else mem[-1] if mem[-1] in pending else pending[0]
        pending.remove(c)
        up = c.upper()
        if c == mem[0]:
            new = mem[1:] + up
            out = contract(f"a{mem},a{up}{c}->a{new}", out, ginv)
        else:
            new = up + mem.replace(c, "")
            out = contract(f"a{up}{c},a{mem}->a{new}", ginv, out)
        mem = new
    return np.transpose(out, (0,) + tuple(1 + mem.lower().index(c) for c in comp))


def kulkarni_nomizu(A: Array, B: Array) -> Array:
    """(A o B)_ijkl = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il.

    Accepts (n,n) or batched (N,n,n) symmetric inputs.
    """
    A, B = np.asarray(A), np.asarray(B)
    dtype = np.result_type(A, B, float)  # complex inputs stay complex
    A, B = A.astype(dtype, copy=False), B.astype(dtype, copy=False)
    single = A.ndim == 2
    if single:
        A, B = A[None], B[None]
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
    out = (
        contract("aik,ajl->aijkl", A, B)
        + contract("ajl,aik->aijkl", A, B)
        - contract("ail,ajk->aijkl", A, B)
        - contract("ajk,ail->aijkl", A, B)
    )
    return out[0] if single else out


def weyl_from_parts(g: Array, ginv: Array, Rm4: Array, Ric: Array, R: Array) -> Array:
    """Weyl tensor of the decomposition
    Rm = W + (Ric o g)/(n-2) - R (g o g)/(2 (n-1)(n-2)).

    The coefficient on g o g is the unique one making W totally trace-free
    (checked by the unit tests).  n = 3 returns exact zeros.
    """
    n = g.shape[-1]
    if n < 3:
        raise DimensionError("Weyl tensor requires n >= 3")
    if n == 3:
        return np.zeros_like(Rm4)
    W = (
        Rm4
        - kulkarni_nomizu(Ric, g) / (n - 2)
        + (R / (2 * (n - 1) * (n - 2)))[:, None, None, None, None]
        * kulkarni_nomizu(g, g)
    )
    return W


def norm2_04(T: Array, ginv: Array) -> Array:
    """|T|^2 for a batched (0,4) tensor antisymmetric in slots (0,1) and in
    slots (2,3), as Rm and W are: over the index pairs p = (l < i),
    |T|^2 = 4 tr(M L M L) with M[p,q] = T_{lp ip lq iq} and L the 2x2 minors
    of g^-1, L[p,q] = g^{lp lq} g^{ip iq} - g^{lp iq} g^{ip lq}."""
    N, n = ginv.shape[:2]
    l, i = np.triu_indices(n, 1)
    p = l * n + i
    M = T.reshape(N, n * n, n * n)[:, p][:, :, p]
    G = ginv.reshape(N, n * n)
    ll, ii = l[:, None] * n + l, i[:, None] * n + i
    li, il = l[:, None] * n + i, i[:, None] * n + l
    L = G[:, ll] * G[:, ii] - G[:, li] * G[:, il]
    return 4 * contract("apq,apq->a", M, np.matmul(np.matmul(L, M), L))


def inner_02(S: Array, T: Array, ginv: Array) -> Array:
    """S_ij T^ij for batched (0,2) tensors."""
    return contract("aij,aij->a", S, raise_all(T, ginv, (0, 1)))


def norm2_02(T: Array, ginv: Array) -> Array:
    return inner_02(T, T, ginv)


def curvature_bundle(g: Array, dg: Array, d2g: Array) -> CurvatureBundle:
    det = np.linalg.det(g)
    if np.any(det.real <= 0):  # real part: complex-step metrics pass through
        a = int(np.argmax(det.real <= 0))
        raise DegenerateMetricError(f"metric not positive definite (node {a})")
    ginv, S, Gamma = connection_arrays(g, dg)
    N, n = g.shape[:2]
    # P[a,k,l,i,j] = 2 T_lijk = g_lk,ij - g_ik,lj + S_qkl Gamma^q_ij, built in
    # the product's own layout (g_lk,ij = d2g[a,k,l,i,j] by symmetry of g)
    P = contract("aqkl,aqij->aklij", S, Gamma)
    P += d2g
    P -= d2g.transpose(0, 2, 3, 1, 4)
    Rm4 = np.subtract(P.transpose(0, 2, 3, 4, 1), P.transpose(0, 2, 3, 1, 4))
    Rm4 *= 0.5
    # Ric_ik = g^{lj} R_lijk = -g^{lj} R_ljik: the contracted slots are
    # adjacent, so the product runs on Rm4's own layout
    Ric = -np.matmul(ginv.reshape(N, 1, 1, n * n), Rm4.reshape(N, n, n * n, n)).reshape(N, n, n)
    R = contract("aik,aik->a", ginv, Ric)
    normRm2 = norm2_04(Rm4, ginv)
    normRic2 = norm2_02(Ric, ginv)
    return CurvatureBundle(g, ginv, np.sqrt(det), Gamma, Rm4, Ric, R, normRm2, normRic2)


def curvature_grid(
    field: MetricField, X: Array, block: int = 4096
) -> CurvatureBundle:
    """Curvature bundle at a batch of points, evaluated in blocks."""
    X, _ = _as_batch(X, field.dimension)
    N = X.shape[0]
    if N <= block:
        return curvature_bundle(*field.jet(X, 2))
    # blocks are copied as they come into full arrays of their dtype (complex
    # for a complex-step metric), so no block outlives the next one
    out = {}
    for i in range(0, N, block):
        part = curvature_bundle(*field.jet(X[i : i + block], 2))
        for f in fields(CurvatureBundle):
            arr = getattr(part, f.name)
            if i == 0:
                out[f.name] = np.empty((N,) + arr.shape[1:], dtype=arr.dtype)
            out[f.name][i : i + block] = arr
    return CurvatureBundle(**out)


def curvature(field: MetricField, x) -> CurvatureBundle:
    """Curvature bundle at a single chart point (arrays keep a length-1 batch)."""
    X, _ = _as_batch(x, field.dimension)
    return curvature_grid(field, X)


def space_form_deviation(bundle: CurvatureBundle, lam: float) -> float:
    """max |Rm4 - lam (g o g)/2| = max |Rm4_lijk - lam (g_lj g_ik - g_lk g_ij)|,
    the model built in place per ``HESSIAN_BLOCK`` nodes (no grid-sized temporary)."""
    dev = 0.0
    for i in range(0, len(bundle.g), HESSIAN_BLOCK):
        g = bundle.g[i : i + HESSIAN_BLOCK]
        model = g[:, :, None, :, None] * g[:, None, :, None, :]
        model -= g[:, :, None, None, :] * g[:, None, :, :, None]
        model *= lam
        np.subtract(bundle.Rm4[i : i + HESSIAN_BLOCK], model, out=model)
        dev = max(dev, max_abs(model))
    return dev


def weyl(bundle: CurvatureBundle) -> Array:
    """Weyl tensor of an existing bundle (n >= 3)."""
    if bundle.dimension < 3:
        raise DimensionError("Weyl tensor requires n >= 3")
    return bundle.W


# ---------------------------------------------------------------------------
# Covariant derivatives of symmetric-tensor fields (analytic route)
# ---------------------------------------------------------------------------


def sym_tensor_cov_derivs(field: MetricField, h: SymTensorField, X: Array):
    """(h, Dh, D2h, g, ginv, Gamma) at the nodes: Dh[a,i,j,k] = h_ij,k,
    D2h[a,i,j,k,l] = h_ij,kl."""
    X, _ = _as_batch(X, field.dimension)
    g = field.jet(X, 2)
    ginv, Gamma = connection_jet(g)
    hj = h.jet(X, 2)
    Dh = covariant_jet(hj, Gamma)
    D2h = covariant_jet(Dh, Gamma)[0]
    return hj[0], Dh[0], D2h, g[0], ginv[0], Gamma[0]


def covariant_derivative(
    field: MetricField, h: SymTensorField, x, order: int = 1
) -> Array:
    """h_ij,k (order 1) or h_ij,kl (order 2) at a point or batch."""
    if order not in (1, 2):
        raise DimensionError("order must be 1 or 2")
    X, single = _as_batch(x, field.dimension)
    _, Dh, D2h, _, _, _ = sym_tensor_cov_derivs(field, h, X)
    out = Dh if order == 1 else D2h
    return out[0] if single else out


def divergence(field: MetricField, h: SymTensorField, x) -> Array:
    """(delta h)_j = g^{pq} h_pj,q."""
    X, single = _as_batch(x, field.dimension)
    _, Dh, _, _, ginv, _ = sym_tensor_cov_derivs(field, h, X)
    out = contract("apq,apjq->aj", ginv, Dh)
    return out[0] if single else out


def trace(field: MetricField, h: SymTensorField, x) -> Array:
    """tr_g h = g^{ij} h_ij."""
    X, single = _as_batch(x, field.dimension)
    ginv = np.linalg.inv(field.metric_grid(X))
    out = contract("aij,aij->a", ginv, h.eval_grid(X))
    return out[0] if single else out


def delta_star(field: MetricField, omega: CovectorField, x) -> Array:
    """(delta* w)_ij = -(w_i,j + w_j,i)/2, the L^2 adjoint of the divergence."""
    X, single = _as_batch(x, field.dimension)
    Gamma = christoffel_arrays(*field.jet(X, 1))
    Dw = covariant_jet(omega.jet(X, 1), [Gamma])[0]  # Dw[a,i,j] = w_i,j
    out = -0.5 * (Dw + np.einsum("aij->aji", Dw))
    return out[0] if single else out


def rough_laplacian_tensor(field: MetricField, h: SymTensorField, x) -> Array:
    """(Lap h)_ij = g^{kl} h_ij,kl (non-positive spectrum on the flat torus)."""
    X, single = _as_batch(x, field.dimension)
    _, _, D2h, _, ginv, _ = sym_tensor_cov_derivs(field, h, X)
    out = contract("akl,aijkl->aij", ginv, D2h)
    return out[0] if single else out


def einstein_defect(bundle: CurvatureBundle) -> Array:
    """|Ric - (R/n) g|_g at each node."""
    n = bundle.dimension
    E = bundle.Ric - (bundle.R / n)[:, None, None] * bundle.g
    return np.sqrt(np.maximum(norm2_02(E, bundle.ginv), 0.0))


def lichnerowicz(field: MetricField, h: SymTensorField, x) -> Array:
    """Lichnerowicz Laplacian Lap_L h = Lap h + 2 R_ikjl h^kl - (2/n) R h.

    Requires an Einstein base metric at the evaluation points.
    """
    X, single = _as_batch(x, field.dimension)
    bundle = curvature_grid(field, X)
    defect = einstein_defect(bundle)
    if np.max(defect) > EINSTEIN_TOL:
        raise PreconditionError(
            f"base metric is not Einstein (defect {np.max(defect):.2e})"
        )
    hv, _, D2h, _, _, _ = sym_tensor_cov_derivs(field, h, X)
    out = lichnerowicz_arrays(hv, D2h, bundle)
    return out[0] if single else out


def lichnerowicz_arrays(hv: Array, D2h: Array, bundle: CurvatureBundle) -> Array:
    """Lap_L h from h, its second covariant derivative D2h and the bundle
    of the base at the same nodes."""
    ginv = bundle.ginv
    lap = contract("akl,aijkl->aij", ginv, D2h)
    hup = raise_all(hv, ginv, (0, 1))
    curv = 2 * contract("aikjl,akl->aij", bundle.Rm4, hup)
    return lap + curv - (2.0 / bundle.dimension) * bundle.R[:, None, None] * hv


# ---------------------------------------------------------------------------
# Second covariant derivatives of computed tensor fields
# ---------------------------------------------------------------------------


def covariant_hessian_blocks(
    inner_fn: Callable[[Array], tuple[list[Array], list[list[Array]]]], X: Array
) -> list[Array]:
    """Second covariant derivatives of several computed fields at once.

    ``inner_fn(Y)`` returns the jet of Gamma it built at the points ``Y``
    (to order 1 at least) and, for each computed covariant tensor field, its
    exact jet [T, dT, d2T] there; the connection corrections turn each into
    nabla nabla T.  Nodes go in blocks of ``HESSIAN_BLOCK``.  Each output
    has shape (N, n^valence, n, n) with the trailing axes ordered (k, l) for
    nabla_l nabla_k.
    """
    parts = []
    for i in range(0, X.shape[0], HESSIAN_BLOCK):
        Gamma, jets = inner_fn(X[i : i + HESSIAN_BLOCK])
        parts.append([covariant_jet(covariant_jet(T, Gamma), Gamma)[0] for T in jets])
    return [np.concatenate(p) for p in zip(*parts)]


def max_abs(T: Array) -> float:
    """Componentwise sup norm over nodes and indices."""
    return float(np.max(np.abs(T)))
