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
  T_likj, T_lijk = (g_lk,ij - g_ik,lj + S_qkl Gamma^q_ij) / 2, on the sorted
  pairs p = (l < i), q = (j < k): the bivector operator ``M[a,p,q]`` =
  R_{l_p i_p j_q k_q}.  Rm4 expands M, so both antisymmetries are exact.
* Ricci ``Ric[a,i,k] = g^{lj} R_lijk``; scalar ``R = g^{ik} Ric_ik``.
* A :class:`CurvatureBundle` holds g, g^-1, sqrt(det g), Gamma, M, Rm4, Ric
  and R; sqrt(det g) comes from :func:`volume_element`, the one positivity
  test and volume measure, shared with :func:`curvlab.charts.sqrt_det_grid`.
  The rest is computed on first read and cached on the bundle: the norms
  ``normRm2``, ``normRic2`` and ``normW2`` (read by the functionals and the
  gradient, not by the curvature checks), wedge^2 g and wedge^2 g^-1, the
  Weyl tensor's pair matrix ``W_pairs`` and its expansion ``W``, the raised
  forms of Rm4 and Ric (``Rm13`` = R^l_ijk), and the quadratic contractions of the
  gradient, ``A1_ij = R_i^{plk} R_jplk``, ``B_ij = R^{pl} R_ipjl`` and
  ``ric2_ij = R_ip g^{pq} R_qj``, all with Rm4's slot order.
  :func:`space_form_deviation` is the one space-form deviation, max |M -
  lam wedge^2 g| = max |Rm4 - lam (g o g)/2|, and :func:`is_space_form` the
  one gate on it: each caller passes its own tolerance, judged relative to
  :func:`space_form_scale`, the size max(1, |lam| max|g|^2) of the model.
* Covariant derivatives of a symmetric tensor follow the index order
  ``h_ij,kl = nabla_l nabla_k h_ij``: ``Dh[a,i,j,k]``, ``D2h[a,i,j,k,l]``.
* A jet ``[T, dT, ..., d^m T]`` appends m symmetric coordinate-derivative
  axes to the components (as in :mod:`curvlab.fields`); :func:`jet_einsum`,
  :func:`jet_inverse` and :func:`covariant_jet` carry jets through products,
  inverses and covariant derivatives, so derivatives of computed curvature
  are exact.  They require that symmetry of their inputs (every jet in the
  package has it): Leibniz' rule runs on packed partials, the C(n+k-1, k)
  sorted derivative multi-indices of each order, one packed product per
  split of the order among the factors, and each result is expanded to its
  full, exactly symmetric derivative axes once.

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

Work over many nodes goes through one block helper, :func:`node_blocks`: it
splits the nodes into near-equal blocks, runs a function on each and hands
back each block's per-node outputs (or per-block maxima) concatenated in
node order.  It has two block sizes.  :data:`HESSIAN_BLOCK` (64 nodes) serves
:func:`covariant_hessian_blocks`, where the order-4 jets of every ingredient
are live at once.  :data:`GRID_BLOCK` (1,024 nodes) serves the whole-grid
reductions of order-2 curvature and covariant jets (the curvature check,
the functionals, the Rayleigh quotient, the Einstein defects), so no
grid-sized rank-4 or rank-5 array is built.  No block falls below
:data:`MATMUL_MIN_BATCH` unless the whole batch does: every node then takes
the contraction path a whole-grid pass would give it, the per-node values
are the same bits, and callers that sum the concatenated densities in node
order report the same bytes whatever the block size.

The rough Laplacian is the metric trace of the second covariant derivative,
with the sign that makes it non-positive on the flat torus
(Laplacian of cos(k.x) = -|k|^2 cos(k.x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import prod
from typing import Callable

import numpy as np

from .errors import DegenerateMetricError, DimensionError, PreconditionError
from .fields import Array, CovectorField, MetricField, SymTensorField, _as_batch

# Relative FD step (fraction of the smallest axis extent) of the
# finite-difference oracles the tests check computed tensor fields, such as
# the Ricci tensor, against; the package's own curvature derivatives are
# exact jets and never read it.  It keeps the stencils clear of chart
# singularities.
FIELD_FD_REL_STEP = 2e-3

EINSTEIN_TOL = 1e-6

# Nodes per block of covariant_hessian_blocks (order-4 jets of every
# ingredient are live at once): blocks keep peak memory flat in the grid.
HESSIAN_BLOCK = 64

# Nodes per block of the whole-grid reductions (order-2 curvature and
# covariant jets, reduced to per-node densities or block maxima): on the
# default 12,960-node S^5 grid one rank-5 array is 65 MB, one block's 5 MB.
GRID_BLOCK = 1024

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


def node_blocks(fn: Callable[..., tuple], *arrays: Array, size: int | None = None) -> tuple:
    """Run ``fn`` on near-equal blocks of the rows of ``arrays`` (all cut at
    the same nodes) and concatenate each of its outputs over the blocks, in
    node order.

    ``fn`` returns a tuple of arrays led by the block's node axis, or of
    length-1 sequences for a reduction per block.  Blocks hold at most
    ``size`` nodes (default :data:`GRID_BLOCK`) and, when there are that
    many, no fewer than :data:`MATMUL_MIN_BATCH`, a floor that wins over a
    smaller ``size``.
    """
    N = len(arrays[0])
    count = max(1, min(-(-N // (GRID_BLOCK if size is None else size)), N // MATMUL_MIN_BATCH))
    edges = [N * k // count for k in range(count + 1)]
    parts = [fn(*(A[a:b] for A in arrays)) for a, b in zip(edges, edges[1:])]
    return tuple(np.concatenate(p) for p in zip(*parts))


# ---------------------------------------------------------------------------
# Jet algebra
# ---------------------------------------------------------------------------
#
# A jet of order m is a list [T, dT, ..., d^m T] of batched arrays; d^k T
# carries k trailing derivative axes.  Every jet in the package is symmetric
# in those axes (partials commute), and the products below rely on it: they
# read each order only on its C(n+k-1, k) sorted derivative multi-indices.
#
# Products follow Leibniz' rule (Taylor propagation, Griewank & Walther,
# "Evaluating Derivatives", 2nd ed., ch. 13): the k-th partial of a product
# sums, over every way of handing each of the k derivative indices to one
# factor, the product of the factors' partials.  The ways group by split,
# the orders (r_1, ..., r_F) the factors receive, and the rule runs on
# packed jets: each order-r partial taken once (np.take) on its sorted
# multi-indices, one trailing packed axis.  Each split is one packed
# product, in which every factor's packed axis is a free matmul dimension.
# A constant multiplicity matrix then folds the tuples (beta_1, ..., beta_F)
# of the factors' multi-indices into the sorted output multi-index they make
# up, in one 2-D matmul, and the splits' sum is expanded to the full
# symmetric derivative axes once (Griewank, Utke & Walther, Math. Comp.
# 69:1117, 2000; the unique-partials-then-expand pattern of the closed-form
# jets in :mod:`curvlab.fields`).  The partials that come out are thus exactly
# symmetric.  At n = 3, k = 4 a two-factor product is 5 packed products
# over 126 (beta_1, beta_2) pairs; handing out the indices one by one would
# take 16 products at all n^4 = 81 columns each.

_PACKED = "uvwxyz"  # packed-axis letters, less those the product spec uses
_SLOTS = "ijkl"


@lru_cache(maxsize=None)
def _symmetric_index(n: int, k: int) -> tuple[Array, Array]:
    """(the sorted column of each full derivative index of order k, the flat
    position of each sorted multi-index), the columns in
    combinations_with_replacement order; a sorted multi-index is the first
    of its permutations in C order."""
    column = {alpha: c for c, alpha in enumerate(combinations_with_replacement(range(n), k))}
    expand = np.array([column[tuple(sorted(i))] for i in np.ndindex((n,) * k)]).reshape((n,) * k)
    return expand, np.unique(expand, return_index=True)[1]


def _pack(T: Array, r: int) -> Array:
    """An order-r partial on its sorted derivative multi-indices, one
    trailing packed axis (orders 0 and 1 are already packed)."""
    if r < 2:
        return T
    flat = T.reshape(T.shape[: T.ndim - r] + (-1,))
    return np.take(flat, _symmetric_index(T.shape[-1], r)[1], axis=-1)


def _pack_jet(J: list) -> list:
    """Every order of a jet, packed."""
    return [_pack(T, r) for r, T in enumerate(J)]


def _expand(P: Array, k: int, n: int) -> Array:
    """The packed order-k partial P on its full symmetric derivative axes."""
    return P if k < 2 else np.take(P, _symmetric_index(n, k)[0], axis=-1)


@lru_cache(maxsize=None)
def _leibniz_plan(spec: str, k: int, n: int, tops: tuple[int, ...]) -> tuple:
    """The splits of the k-th partial (k >= 1) of the einsum product ``spec``
    in n dimensions, factor f's jet reaching order ``tops[f]``.

    A split is (orders, packed spec, number of packed axes, fold).  Factor f
    enters with its packed order-r_f partial, whose packed axis the packed
    spec names when r_f > 0 and appends to the output, in factor order.
    ``fold`` maps the flattened packed axes to the sorted output
    multi-indices; it is None when one factor takes every index, where it is
    the identity.
    """
    ins, out = spec.split("->")
    ins = ins.split(",")
    letters = [c for c in _PACKED if c not in spec]
    alphas = list(combinations_with_replacement(range(n), k))
    splits = []
    for orders in product(range(k + 1), repeat=len(ins)):
        if sum(orders) != k or any(r > t for r, t in zip(orders, tops)):
            continue
        owners = [f for f, r in enumerate(orders) if r]
        subs = [s + (letters[f] if r else "") for f, (s, r) in enumerate(zip(ins, orders))]
        packed_spec = ",".join(subs) + "->" + out + "".join(letters[f] for f in owners)
        fold = None
        if len(owners) > 1:
            betas = [combinations_with_replacement(range(n), orders[f]) for f in owners]
            rows = {beta: i for i, beta in enumerate(product(*betas))}
            fold = np.zeros((len(rows), len(alphas)))
            for owner in product(owners, repeat=k):
                if any(owner.count(f) != orders[f] for f in owners):
                    continue
                for c, alpha in enumerate(alphas):
                    beta = tuple(
                        tuple(d for d, o in zip(alpha, owner) if o == f) for f in owners
                    )
                    fold[rows[beta], c] += 1
        splits.append((orders, packed_spec, len(owners), fold))
    return tuple(splits)


def _leibniz(spec: str, packed: list, k: int) -> Array:
    """Packed k-th partial (k >= 1) of an einsum product from the factors'
    packed jets; partials missing from a short jet count as zero."""
    n = packed[0][1].shape[-1]
    tops = tuple(min(len(j) - 1, k) for j in packed)
    total = None
    for orders, packed_spec, npacked, fold in _leibniz_plan(spec, k, n, tops):
        P = contract(packed_spec, *(j[r] for j, r in zip(packed, orders)))
        if fold is not None:
            lead = P.shape[: P.ndim - npacked]
            P = P.reshape(-1, fold.shape[0]) @ fold.astype(P.dtype, copy=False)
            P = P.reshape(lead + (-1,))
        total = P if total is None else total + P
    return total


def _packed_product(spec: str, packed: list, order: int) -> list:
    """Packed partials, orders 0 to ``order``, of an einsum product from the
    factors' packed jets; order 0 is the plain product on the same spec."""
    return [contract(spec, *(j[0] for j in packed))] + [
        _leibniz(spec, packed, k) for k in range(1, order + 1)
    ]


def jet_einsum(spec: str, *jets: list, order: int | None = None) -> list:
    """Jet of the batched einsum ``spec`` of the factors' jets, to ``order``
    (default: the order of the shortest factor jet).  The factors' partials
    must be symmetric in their derivative axes; the result's are exactly."""
    shortest = min(len(j) for j in jets) - 1
    if order is None:
        order = shortest
    elif order > shortest:
        raise DimensionError(f"a factor jet of order {shortest} cannot give order {order}")
    packed = [_pack_jet(j[: order + 1]) for j in jets]
    n = jets[0][1].shape[-1] if order else 0
    return [_expand(P, k, n) for k, P in enumerate(_packed_product(spec, packed, order))]


def jet_inverse(A: list) -> list:
    """Jet of the matrix inverse, solving d^k(A A^-1) = 0 order by order."""
    inv = [np.linalg.inv(A[0])]
    packed_A, packed_inv = _pack_jet(A), inv[:]
    for k in range(1, len(A)):
        # the terms of d^k(A A^-1) whose A factor is differentiated
        rest = _leibniz("aij,ajk->aik", (packed_A, packed_inv), k)
        packed_inv.append(-contract("aij,ajk...->aik...", inv[0], rest))
        # the coordinate count is the derivative axis, not the matrix size
        inv.append(_expand(packed_inv[-1], k, A[1].shape[-1]))
    return inv


def connection_jet(g: list) -> tuple[list, list, list]:
    """Jets of (g^-1, S, Gamma) from a metric jet, S =
    :func:`christoffel_combination` of the partials of g; all come one order
    short."""
    ginv = jet_inverse(g[:-1])
    S = [christoffel_combination(d) for d in g[1:]]
    return ginv, S, [0.5 * G for G in jet_einsum("akl,alij->akij", ginv, S)]


def christoffel_combination(D: Array) -> Array:
    """S[a,l,i,j,...] = D[a,j,l,i,...] + D[a,i,l,j,...] - D[a,i,j,l,...], any
    trailing derivative axes riding along: Gamma^k_ij = g^{kl} S_lij / 2 for
    D = dg."""
    P = np.einsum("ailj...->alij...", D)
    return P + P.swapaxes(2, 3) - np.einsum("aijl...->alij...", D)


def covariant_jet(T: list, Gamma: list) -> list:
    """Jet of nabla T (new slot last), one order shorter than the jet of T.

    (nabla T)_{..m} = d_m T - sum over slots s of Gamma^p_{m i_s} T_{..p..};
    the jet of Gamma must reach the order of the result.  Each order is
    formed packed (d^k of d_m T on the sorted multi-indices of its last k
    axes) and expanded once.
    """
    comp = _SLOTS[: T[0].ndim - 1]
    order = len(T) - 2
    factors = [_pack_jet(J[: order + 1]) for J in (Gamma, T)]
    out = [_pack(dT, k) for k, dT in enumerate(T[1:])]
    for s, c in enumerate(comp):
        spec = f"apm{c},a{comp[:s]}p{comp[s + 1:]}->a{comp}m"
        out = [o - x for o, x in zip(out, _packed_product(spec, factors, order))]
    return [_expand(P, k, T[1].shape[-1]) for k, P in enumerate(out)]


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
    ginv, _, Gamma = connection_jet(g)
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
    """Pointwise curvature data; arrays keep the leading node axis.  On a
    space form M = lam wedge^2 g, the 2x2 minors of g (:func:`bivector_product`)."""

    g: Array
    ginv: Array
    sqrt_det: Array  # (a,) sqrt(det g), the volume element
    Gamma: Array  # (a,k,i,j)
    M: Array  # (a,p,q) = R_{l_p i_p j_q k_q} on the sorted pairs l < i, j < k
    Rm4: Array  # (a,l,i,j,k) = R_lijk (first kind), the expansion of M
    Ric: Array  # (a,i,k)
    R: Array  # (a,)

    @property
    def dimension(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def wedge2_g(self) -> Array:
        """wedge^2 g, the 2x2 minors of g (:func:`bivector_product`)."""
        return bivector_product(self.g, self.g)

    @cached_property
    def wedge2_ginv(self) -> Array:
        """wedge^2 g^-1, which raises both pairs of a pair matrix."""
        return bivector_product(self.ginv, self.ginv)

    @cached_property
    def normRm2(self) -> Array:
        """|Rm|^2."""
        return _pair_norm2(self.M, self.wedge2_ginv)

    @cached_property
    def normRic2(self) -> Array:
        """|Ric|^2."""
        return norm2_02(self.Ric, self.ginv)

    @cached_property
    def W_pairs(self) -> Array | None:
        """Weyl's pair matrix (:func:`weyl_pairs`); None for n = 2."""
        return None if self.dimension < 3 else weyl_pairs(self.M, self.g, self.Ric, self.R, self.wedge2_g)

    @cached_property
    def normW2(self) -> Array | None:
        """|W|^2; exact zeros for n = 3, None for n = 2."""
        return None if self.W_pairs is None else _pair_norm2(self.W_pairs, self.wedge2_ginv)

    @cached_property
    def W(self) -> Array | None:
        """Weyl (0,4) tensor, ``W_pairs`` expanded; zeros for n = 3, None for n = 2."""
        return None if self.W_pairs is None else expand_pairs(self.W_pairs, self.dimension)

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


def weyl_pairs(M: Array, g: Array, Ric: Array, R: Array, wedge2_g: Array) -> Array:
    """Pair matrix of W in Rm = W + (Ric o g)/(n-2) - R (g o g)/(2 (n-1)(n-2)), from
    Rm's pair matrix M: M - (Ric wedge g + g wedge Ric)/(n-2) + R wedge^2 g/((n-1)(n-2)),
    the one totally trace-free W (checked by the unit tests); exact zeros for n = 3."""
    n = g.shape[-1]
    if n < 4:
        return np.zeros_like(M)
    W = M - (bivector_product(Ric, g) + bivector_product(g, Ric)) / (n - 2)
    W += (R / ((n - 1) * (n - 2)))[:, None, None] * wedge2_g
    return W


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple:
    """The sorted pairs p = (l < i) in np.triu_indices order, and two flat
    index tables over p and q = (j < k): the Eisenhart reads [[klij, jlik],
    [iklj, ijlk]] in an n^4 array, and each R_lijk's entry of [M, -M, 0]."""
    l, i = np.triu_indices(n, 1)
    m = len(l)
    L, I, J, K = l[:, None], i[:, None], l, i
    flat = lambda *idx: np.ravel_multi_index(idx, (n,) * 4)
    reads = np.array([[flat(K, L, I, J), flat(J, L, I, K)], [flat(I, K, L, J), flat(I, J, L, K)]])
    signed = np.zeros((n, n), int)  # p + 1 on the pair p = (l < i), -(p + 1) on (i, l)
    signed[l, i], signed[i, l] = np.arange(1, m + 1), -np.arange(1, m + 1)
    s, a = np.multiply.outer(signed, signed).ravel(), np.abs(signed) - 1
    expand = np.where(s == 0, 2 * m * m, np.add.outer(a * m, a).ravel() + m * m * (s < 0))
    return l, i, reads, expand


def bivector_product(A: Array, B: Array) -> Array:
    """(A wedge B)[a,p,q] = A_{l_p j_q} B_{i_p k_q} - A_{l_p k_q} B_{i_p j_q}
    on the sorted pairs, for batched (n, n) arrays: wedge^2 g = g wedge g,
    and A o B (:func:`kulkarni_nomizu`) is A wedge B + B wedge A there."""
    l, i = _pair_index(A.shape[-1])[:2]
    L, I = l[:, None], i[:, None]
    return A[:, L, l] * B[:, I, i] - A[:, L, i] * B[:, I, l]


def expand_pairs(M: Array, n: int) -> Array:
    """The (0,4) tensor of a pair matrix: M on the sorted pairs, -M on a swapped
    pair, 0 on a repeated index, so exactly antisymmetric in each pair of slots."""
    flat = np.concatenate([M, -M, np.zeros_like(M[:, :1])], 1).reshape(len(M), -1)
    return np.take(flat, _pair_index(n)[3], axis=1).reshape((len(M),) + (n,) * 4)


def _pair_norm2(M: Array, L: Array) -> Array:
    """4 tr(M^T L M L), L = wedge^2 g^-1: |T|^2 of a (0,4) tensor
    antisymmetric in slots (0,1) and in slots (2,3) from its pair matrix M."""
    return 4 * contract("apq,apq->a", M, np.matmul(np.matmul(L, M), L))


def norm2_04(T: Array, ginv: Array) -> Array:
    """|T|^2 for a batched (0,4) tensor antisymmetric in slots (0,1) and in
    slots (2,3), as Rm and W are: its pair matrix, then :func:`_pair_norm2`."""
    l, i = _pair_index(ginv.shape[-1])[:2]
    return _pair_norm2(T[:, l, i][:, :, l, i], bivector_product(ginv, ginv))


def inner_02(S: Array, T: Array, ginv: Array) -> Array:
    """S_ij T^ij for batched (0,2) tensors: the sum of (g^-1 S) o (T g^-1)."""
    return np.einsum("aij,aij->a", np.matmul(ginv, S), np.matmul(T, ginv))


def norm2_02(T: Array, ginv: Array) -> Array:
    """|T|^2 for a batched symmetric (0,2) tensor: the sum of X o X^T, X = g^-1 T."""
    X = np.matmul(ginv, T)
    return np.einsum("aij,aji->a", X, X)


def volume_element(g: Array) -> Array:
    """sqrt(det g) at every node, the one volume measure; raises naming the
    first node whose metric is not positive definite.

    The test reads the real part of det g, so complex-step metrics pass
    through.  A determinant that underflows to 0 (a valid metric with tiny
    entries) is rechecked by the sign slogdet gives at that node.
    """
    det = np.linalg.det(g)
    bad = np.flatnonzero(det.real <= 0)
    if bad.size:
        bad = bad[np.linalg.slogdet(g[bad])[0].real <= 0]
        if bad.size:
            a = int(bad[0])
            raise DegenerateMetricError(
                f"metric not positive definite (node {a}, det g = {det[a]:.3e})"
            )
    return np.sqrt(det)


def curvature_bundle(g: Array, dg: Array, d2g: Array) -> CurvatureBundle:
    return _bundle_from_connection(g, dg, d2g, *connection_arrays(g, dg))


def _bundle_from_connection(
    g: Array, dg: Array, d2g: Array, ginv: Array, S: Array, Gamma: Array
) -> CurvatureBundle:
    """The bundle of the metric jet [g, dg, d2g] from its connection (ginv,
    S, Gamma) as :func:`connection_arrays` gives it, or as the order-0 parts
    of :func:`connection_jet` (the same bits)."""
    sqrt_det = volume_element(g)
    N, n = g.shape[:2]
    reads = _pair_index(n)[2]
    # 2 R_lijk = P_klij - P_jlik (Eisenhart), P_klij = 2 T_lijk = S_qkl Gamma^q_ij
    # + g_lk,ij - g_ik,lj (g_lk,ij = d2g[a,k,l,i,j]), read on the sorted pairs
    # (l < i, j < k) only; products and second partials enter as one difference each
    Q = np.take(contract("aqkl,aqij->aklij", S, Gamma).reshape(N, -1), reads[0], axis=1)
    D = np.take(d2g.reshape(N, -1), reads, axis=1)
    M = 0.5 * ((Q[:, 0] - Q[:, 1]) + ((D[:, 0, 0] - D[:, 1, 0]) - (D[:, 0, 1] - D[:, 1, 1])))
    del Q, D  # freed before Rm4 is built, so they add nothing to its peak
    Rm4 = expand_pairs(M, n)
    # Ric_ik = g^{lj} R_lijk = -g^{lj} R_ljik: the contracted slots are
    # adjacent, so the product runs on Rm4's own layout
    Ric = -np.matmul(ginv.reshape(N, 1, 1, n * n), Rm4.reshape(N, n, n * n, n)).reshape(N, n, n)
    R = contract("aik,aik->a", ginv, Ric)
    return CurvatureBundle(g, ginv, sqrt_det, Gamma, M, Rm4, Ric, R)


def curvature_grid(field: MetricField, X: Array) -> CurvatureBundle:
    """Curvature bundle at a batch of points, in one pass; a reduction over a
    whole grid streams it through :func:`node_blocks` instead."""
    X, _ = _as_batch(X, field.dimension)
    return curvature_bundle(*field.jet(X, 2))


def curvature(field: MetricField, x) -> CurvatureBundle:
    """Curvature bundle at a single chart point (arrays keep a length-1 batch)."""
    X, _ = _as_batch(x, field.dimension)
    return curvature_grid(field, X)


def space_form_deviation(bundle: CurvatureBundle, lam: float) -> float:
    """max |Rm4 - lam (g o g)/2| = max |M - lam wedge^2 g|, the same bits: Rm4
    expands M, and the model is exactly antisymmetric too.  A NaN is kept."""
    return max_abs(bundle.M - lam * bundle.wedge2_g)


def space_form_scale(lam: float, g_max: float) -> float:
    """max(1, |lam| max|g|^2): the size of the model tensor lam (g o g)/2,
    which a space-form deviation is judged against, given max|g|."""
    # |lam| g g, not |lam| g**2: a float power raises OverflowError, a product does not
    return max(1.0, abs(lam) * g_max * g_max)


def is_space_form(bundle: CurvatureBundle, lam: float, tol: float) -> tuple[bool, float]:
    """(deviation <= tol * scale, deviation): the one space-form gate, the
    :func:`space_form_deviation` of the bundle judged relative to
    :func:`space_form_scale`, so that it holds at any radius.  A NaN
    deviation fails."""
    dev = space_form_deviation(bundle, lam)
    return dev <= tol * space_form_scale(lam, max_abs(bundle.g)), dev


def weyl(bundle: CurvatureBundle) -> Array:
    """Weyl tensor of an existing bundle (n >= 3)."""
    if bundle.dimension < 3:
        raise DimensionError("Weyl tensor requires n >= 3")
    return bundle.W


# ---------------------------------------------------------------------------
# Covariant derivatives of symmetric-tensor fields (analytic route)
# ---------------------------------------------------------------------------


def sym_tensor_cov_derivs(field: MetricField, h: SymTensorField, X: Array):
    """(h, Dh, D2h, g, ginv, S, Gamma) at the nodes: Dh[a,i,j,k] = h_ij,k,
    D2h[a,i,j,k,l] = h_ij,kl, g the metric jet [g, dg, d2g] it evaluated and
    (ginv, S, Gamma) its connection, from which
    ``_bundle_from_connection(*g, ginv, S, Gamma)`` builds the curvature of
    the same nodes without inverting g or combining dg again."""
    X, _ = _as_batch(X, field.dimension)
    g = field.jet(X, 2)
    ginv, S, Gamma = connection_jet(g)
    hj = h.jet(X, 2)
    Dh = covariant_jet(hj, Gamma)
    D2h = covariant_jet(Dh, Gamma)[0]
    return hj[0], Dh[0], D2h, g, ginv[0], S[0], Gamma[0]


def covariant_derivative(
    field: MetricField, h: SymTensorField, x, order: int = 1
) -> Array:
    """h_ij,k (order 1) or h_ij,kl (order 2) at a point or batch."""
    if order not in (1, 2):
        raise DimensionError("order must be 1 or 2")
    X, single = _as_batch(x, field.dimension)
    _, Dh, D2h, *_ = sym_tensor_cov_derivs(field, h, X)
    out = Dh if order == 1 else D2h
    return out[0] if single else out


def divergence(field: MetricField, h: SymTensorField, x) -> Array:
    """(delta h)_j = g^{pq} h_pj,q."""
    X, single = _as_batch(x, field.dimension)
    _, Dh, _, _, ginv, *_ = sym_tensor_cov_derivs(field, h, X)
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
    _, _, D2h, _, ginv, *_ = sym_tensor_cov_derivs(field, h, X)
    out = contract("akl,aijkl->aij", ginv, D2h)
    return out[0] if single else out


def einstein_parts(bundle: CurvatureBundle) -> tuple[Array, Array]:
    """Per node (|Ric - (R/n) g|_g^2, |R|/n): what :func:`require_einstein`
    judges, so that blocks of a grid can be judged once, together."""
    n = bundle.dimension
    E = bundle.Ric - (bundle.R / n)[:, None, None] * bundle.g
    return norm2_02(E, bundle.ginv), np.abs(bundle.R) / n


def require_einstein(defect2: Array, r_scale: Array) -> None:
    """Raise PreconditionError unless |Ric - (R/n) g|_g <= EINSTEIN_TOL *
    max(1, |R|/n) at every node, from the per-node :func:`einstein_parts`
    of all nodes: the one Einstein gate, relative to the size of Ric."""
    defect = float(np.sqrt(max(np.max(defect2), 0.0)))
    if not defect <= EINSTEIN_TOL * max(1.0, float(np.max(r_scale))):
        raise PreconditionError(f"base metric is not Einstein (defect {defect:.2e})")


def lichnerowicz(field: MetricField, h: SymTensorField, x) -> Array:
    """Lichnerowicz Laplacian Lap_L h = Lap h + 2 R_ikjl h^kl - (2/n) R h.

    Requires an Einstein base metric at the evaluation points.
    """
    X, single = _as_batch(x, field.dimension)
    hv, _, D2h, g, *connection = sym_tensor_cov_derivs(field, h, X)
    bundle = _bundle_from_connection(*g, *connection)
    require_einstein(*einstein_parts(bundle))
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

    def block(Y):
        Gamma, jets = inner_fn(Y)
        return tuple(covariant_jet(covariant_jet(T, Gamma), Gamma)[0] for T in jets)

    return list(node_blocks(block, X, size=HESSIAN_BLOCK))


def max_abs(T: Array) -> float:
    """Componentwise sup norm over nodes and indices."""
    return float(np.max(np.abs(T)))
