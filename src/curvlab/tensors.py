"""Pointwise Riemannian tensor algebra on coordinate charts.

All computations are batched over a leading node axis ``a``.  Index
conventions (frozen by the unit tests against the round-sphere
normalization Ric = (n-1) * lam * g):

* ``dg[a,i,j,k] = d g_ij / d x^k``; ``d2g[a,i,j,c]`` is the packed second
  partial, c the column of the sorted pair (k <= l) (:mod:`curvlab.fields`).
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
* Ricci ``Ric[a,i,k] = g^{lj} R_lijk``; scalar ``R = g^{ik} Ric_ik``.  Ric
  is read off M (:func:`pair_ricci`): R_lijk vanishes unless l != i and j !=
  k, so each Ric_ik, i <= k, sums (n - 1)^2 products of an entry of M and
  one of g^-1, and no n^4 array is built.
* A :class:`CurvatureBundle` is built holding g, g^-1, sqrt(det g) and M,
  not the connection that builds M; sqrt(det g) comes with the connection
  from :func:`volume_element`, the one positivity test and volume measure,
  run where g is inverted and shared with :func:`curvlab.charts.sqrt_det_grid`.
  The rest is computed on first read and cached on the bundle: Ric (read
  off M, :func:`pair_ricci`) and R, so a pass of F at s = tau = 0, which
  reads |Rm|^2 alone, never builds them; Rm4, the n^4 expansion of M; the
  norms ``normRm2``, ``normRic2`` and ``normW2`` (read by the functionals
  and the gradient, not by the curvature checks);
  wedge^2 g and wedge^2 g^-1; the Weyl tensor's pair matrix ``W_pairs`` and
  its expansion ``W``; ``Rm13`` = R^l_ijk; and the quadratic contractions
  of the gradient, ``A1_ij = R_i^{plk} R_jplk``, ``B_ij = R^{pl} R_ipjl``
  and ``ric2_ij = R_ip g^{pq} R_qj``, all with Rm4's slot order (A1 and B
  raise their factor themselves and keep no raised copy).  The curvature
  check reads M, Ric and R, and the functionals M and, where F weighs them,
  Ric and R, so neither builds Rm4; Rm13, A1, B and the Lichnerowicz
  Laplacian read it.
  :func:`space_form_deviation` is the one space-form deviation, max |M -
  lam wedge^2 g| = max |Rm4 - lam (g o g)/2| per node, taken beside max|g|
  (:func:`space_form_parts`), and :func:`space_form_gate` the one gate on
  those of every node: each caller passes its own tolerance, judged
  relative to max(1, |lam| max|g|^2), the size of the model.
* Covariant derivatives of a symmetric tensor follow the index order
  ``h_ij,kl = nabla_l nabla_k h_ij``: ``Dh[a,i,j,k]``, ``D2h[a,i,j,k,l]``.
* A jet ``[T, dT, ..., d^m T]`` is packed, as the fields hand it out
  (:mod:`curvlab.fields`): its order-k partial (k >= 2) stores each
  partial once, on one trailing axis over the C(n+k-1, k) sorted derivative
  multi-indices.  :func:`jet_einsum`, :func:`jet_scale`, :func:`jet_solve`,
  :func:`connection_jet`, :func:`covariant_jet`, :func:`ricci_arrays`,
  :func:`sym_tensor_cov_derivs` and :func:`covariant_hessian_blocks` take
  and return packed jets, so derivatives of computed curvature are exact and
  no jet is expanded on the way: Leibniz' rule runs one packed product per
  split of the order among the factors (one matmul per order for a scalar
  times a tensor, :func:`jet_scale`), and where a derivative index
  becomes a tensor slot (d_m T) one ``np.take`` splits it off a packed
  order.  Only a field's ``jet()`` expands a jet to full derivative axes.
* Quotients are solved, not multiplied by an inverse jet: Gamma from g Gamma
  = S/2 and R as the trace of X from g X = Ric, order by order
  (:func:`jet_solve`), so g^-1 is only ever built at order 0.  Above order
  0, S and Gamma live on the symmetric pairs i <= j: S is read off the
  packed partials of g by one take per order, and Gamma expanded to full
  (i, j) by another.

Products of two batched tensors go through :func:`contract`, which reads an
einsum spec and runs it as one batched ``np.matmul``: each index is a batch
index (in both operands and kept), a free index (in one operand and kept) or
a contracted index (in both, summed), and the operands are transposed and
reshaped to (batch, free, contracted) matrices.  numpy's own ``einsum``
cannot hand a product that keeps the node axis to BLAS, and its inner loops
here run only n = 3..5 long.  ``contract`` falls back to ``np.einsum`` for an
ellipsis, for an index summed inside one operand, for more than two
operands, for operands whose shared axes differ in size (broadcasting), and
for a batch smaller than :data:`MATMUL_MIN_BATCH` (single-point calls),
where the transposes cost more than they save.  Single-operand traces and
permutations stay plain ``np.einsum``.

Work over many nodes goes through one block helper, :func:`node_blocks`: it
splits the nodes into near-equal blocks, runs a function on each and hands
back each block's per-node outputs concatenated in node order.  It has two
block sizes.  :data:`HESSIAN_BLOCK` (96 nodes) serves
:func:`covariant_hessian_blocks`, where the packed order-4 jets of every
ingredient are live at once.  :data:`GRID_BLOCK` (1,024 nodes) serves the
whole-grid reductions of order-2 curvature and covariant jets (the
curvature check, the functionals, the Rayleigh quotient, the Einstein
defects, the rows of the first-variation jet pairing) and the identity
suites' pass, whose blocks of complex-step curvature are each cut again
into Hessian blocks, so no grid-sized rank-4 or rank-5 array is built.  No
block falls below :data:`MATMUL_MIN_BATCH` unless the whole batch does:
every node then takes the contraction path a whole-grid pass would give it,
the per-node values are the same bits, and callers that sum the
concatenated densities in node order report the same bytes whatever the
block size.

A whole-grid reduction runs once per distinct node: the fields it reads
say which chart coordinates their jets read (:mod:`curvlab.fields`), and
on a tensor-product grid a pointwise quantity of such fields repeats along
every other axis.  :func:`distinct_nodes` keeps the first node of each
distinct value of the coordinates read, in node order, and an index ``at``
from every node to its representative; :func:`distinct_blocks` runs
:func:`node_blocks` over the representatives alone and gathers every output
back to node order, so it hands back what the function gives on the whole
grid, bit for bit.  A whole-grid pass is thus one per-node function
followed by one sum (:meth:`curvlab.charts.QuadratureGrid.integrals`, over
every node in node order) or one maximum, the gradient's too, and no
caller sees ``at`` (:func:`curvlab.variations.gradient_ingredients` keeps
its own dedupe only for the benchmark's whole-grid call).  What is made
once and read per direction or mode, as the jet pairing's derivatives and
the conformal suite's seeded steps, stays at the representatives, read per
node block (:func:`representative_blocks`, whose ``kept`` contracts over
its own rows, 35 or more per representative, so it gets no padding).  The
representatives of :func:`distinct_blocks` are never fewer than
:data:`MATMUL_MIN_BATCH` (the first nodes pad them), so they take the
contraction path of the whole grid, and an error names its row of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetricError, DimensionError, PreconditionError
from .fields import (
    Array,
    CovectorField,
    MetricField,
    SymTensorField,
    _as_batch,
    _merge_index,
    _multi_indices,
    _split,
    _symmetric_index,
)

# Relative FD step (fraction of the smallest axis extent) of the
# finite-difference oracles the tests check computed tensor fields, such as
# the Ricci tensor, against; the package's own curvature derivatives are
# exact jets and never read it.  It keeps the stencils clear of chart
# singularities.
FIELD_FD_REL_STEP = 2e-3

EINSTEIN_TOL = 1e-6

# Nodes per block of covariant_hessian_blocks (packed order-4 jets of every
# ingredient are live at once): blocks keep peak memory flat in the grid.
# Both identity suites plus the generic S^3 gradient ingredients (1,536
# nodes; 2-core host, OMP_NUM_THREADS=1, median of 5 interleaved rounds)
# took 47.2 ms in 64-node blocks, 46.7 ms in 96 and 46.3 ms in 128 (their
# rows: 128 TT nodes, 280 seeded conformal rows, 16 generic nodes); three
# such passes with sympy loaded peaked at 77.3, 77.6 and 76.4 MB resident.
HESSIAN_BLOCK = 96

# Nodes per block of the whole-grid reductions (order-2 curvature and
# covariant jets, reduced to per-node densities and maxima): on the
# default 12,960-node S^5 grid one rank-5 array is 65 MB, one block's 5 MB.
GRID_BLOCK = 1024

# Smallest batch that contract runs as a matmul.  Pointwise calls carry one
# node and grids at least HESSIAN_BLOCK; below this size the transposes and
# reshapes cost more than np.einsum's own loop.
MATMUL_MIN_BATCH = 16


# ---------------------------------------------------------------------------
# Contraction kernel
# ---------------------------------------------------------------------------


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
    if not arrow or "." in spec or len(subs) != 2 or list(map(len, subs)) != list(ndims):
        return None  # an ellipsis, or not two operands named axis by axis
    a, b = subs
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

    ``fn`` returns a tuple of arrays led by the block's node axis.  Blocks
    hold at most ``size`` nodes (default :data:`GRID_BLOCK`) and, when there
    are that many, no fewer than :data:`MATMUL_MIN_BATCH`, a floor that wins
    over a smaller ``size``.
    """
    N = len(arrays[0])
    count = max(1, min(-(-N // (GRID_BLOCK if size is None else size)), N // MATMUL_MIN_BATCH))
    edges = [N * k // count for k in range(count + 1)]
    parts = [fn(*(A[a:b] for A in arrays)) for a, b in zip(edges, edges[1:])]
    return tuple(np.concatenate(p) for p in zip(*parts))


def distinct_nodes(X: Array, reads: Sequence[int]) -> tuple:
    """(rows, at): the rows of X that differ on the coordinates ``reads``,
    the first of each distinct value, in node order, and the index from
    every row of X to its representative in X[rows] (both ``slice(None)``
    when the rows are all of X).

    A per-node quantity of fields that read only those coordinates, made at
    X[rows] as ``out``, is ``out[at]`` at X, bit for bit: the two rows hold
    the same bits on every coordinate read.  Rows are never fewer than
    :data:`MATMUL_MIN_BATCH`, unless X is: the first rows of X pad them.
    """
    N, n = X.shape
    if N <= MATMUL_MIN_BATCH or len(reads) == n:
        return slice(None), slice(None)
    if reads:
        # one key per row: the bytes of its coordinates read, so that rows
        # share a representative only when they share those bits
        keys = np.ascontiguousarray(X[:, list(reads)])
        keys = keys.view(np.dtype((np.void, keys.itemsize * len(reads)))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        first, inverse = np.zeros(1, dtype=np.intp), np.zeros(N, dtype=np.intp)
    short = len(first) < MATMUL_MIN_BATCH
    rows = np.union1d(first, np.arange(MATMUL_MIN_BATCH if short else 0))  # sorted
    if len(rows) == N:
        return slice(None), slice(None)
    return rows, np.searchsorted(rows, first)[inverse]


def distinct_blocks(fn: Callable[[Array], tuple], X: Array, reads: Sequence[int]) -> tuple:
    """``fn(X)``, bit for bit, for an ``fn`` of per-node outputs of fields
    that read only the coordinates ``reads``: :func:`node_blocks` of ``fn``
    over the :func:`distinct_nodes` of X on those coordinates, each output
    gathered back to the rows of X.  An error that names a node names its
    row of X."""
    rows, at = distinct_nodes(X, reads)

    def block(Y, grid_rows):
        try:
            return fn(Y)
        except DegenerateMetricError as e:
            raise e.renumbered(grid_rows) from None

    return tuple(out[at] for out in node_blocks(block, X[rows], np.arange(len(X))[rows]))


def representative_blocks(kept: Callable[[Array], tuple], X: Array, reads: Sequence[int]):
    """``kept`` run once on the representatives the rows of X stand for
    (:func:`distinct_nodes` on ``reads``, not its padding), and ``read``:
    ``read(fn)`` is :func:`node_blocks` of ``fn(Y, L)`` over every row of X,
    ``L(i)`` the rows of kept's i-th output that stand for the rows Y.  The
    index is made per read, so neither it nor a kept array is held per row."""

    def representatives():
        rows, at = distinct_nodes(X, reads)
        return np.unique(np.arange(len(X))[rows][at], return_inverse=True)

    K = kept(X[representatives()[0]])

    def read(fn: Callable[[Array, Callable[[int], Array]], tuple]) -> tuple:
        return node_blocks(lambda Y, a: fn(Y, lambda i: K[i][a]), X, representatives()[1])

    return read


# ---------------------------------------------------------------------------
# Jet algebra
# ---------------------------------------------------------------------------
#
# Jets are packed (see the module docstring).  Products follow Leibniz' rule
# (Taylor propagation, Griewank & Walther, "Evaluating Derivatives", 2nd
# ed., ch. 13): the k-th partial of a product sums, over every way of
# handing each of the k derivative indices to one factor, the product of
# the factors' partials.  The ways group by split, the orders (r_1, ...,
# r_F) the factors receive, and each split is one packed product, in which
# every factor's packed axis is a free matmul dimension.  A constant
# multiplicity matrix then folds the tuples (beta_1, ..., beta_F) of the
# factors' multi-indices into the sorted output multi-index they make up,
# in one 2-D matmul (Griewank, Utke & Walther, Math. Comp. 69:1117, 2000).
# At n = 3, k = 4 a two-factor product is 5 packed products over 126
# (beta_1, beta_2) pairs into 15 columns; handing out the indices one by
# one would take 16 products at all n^4 = 81 columns each.  Where a
# derivative index becomes a tensor slot (d_m T, the Christoffel
# combination of dg, the traces of dGamma in Ricci), one np.take through
# the merge table of :func:`curvlab.fields._split` maps (slot m, packed
# beta) to the packed column of sort(beta + (m,)).
#
# A scalar factor f (the conformal direction f g, the Poincare chart's
# (1/u)^2) takes :func:`jet_scale` instead.  The split in which f is not
# differentiated scales T_k by f_0; in each other split f's order-r partial
# is folded alone, into a (P_(k-r), P_k) matrix per node (P_j the packed
# width of order j), and stacked over r these meet T's partials of orders
# 0 .. k - 1 side by side: one batched matmul per order, with no product
# intermediate, and the folds those of _leibniz_plan.  Tensor products keep
# the splits above: folding one factor first there, or stacking the splits
# of a solve, measured slower.
#
# Division is forward substitution (ibid.): the k-th partial of A X = B
# gives X_k = A_0^-1 (B_k - the splits in which A is differentiated), and
# those splits are the packed Leibniz products with X's jet one order
# short.  Only A_0 is inverted, and each order costs the k splits of one
# product; the inverse jet of A, whose product with B's jet then follows,
# costs that twice over.

_PACKED = "uvwxyz"  # packed-axis letters, less those the product spec uses
_SLOTS = "ijkl"


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


def _leibniz(spec: str, jets: list, k: int) -> Array:
    """Packed k-th partial (k >= 1) of an einsum product from the factors'
    jets; partials missing from a short jet count as zero."""
    n = jets[0][1].shape[-1]
    tops = tuple(min(len(j) - 1, k) for j in jets)
    total = None
    for orders, packed_spec, npacked, fold in _leibniz_plan(spec, k, n, tops):
        P = contract(packed_spec, *(j[r] for j, r in zip(jets, orders)))
        if fold is not None:
            lead = P.shape[: P.ndim - npacked]
            P = P.reshape(-1, fold.shape[0]) @ fold.astype(P.dtype, copy=False)
            P = P.reshape(lead + (-1,))
        total = P if total is None else total + P
    return total


@lru_cache(maxsize=None)
def _scale_folds(k: int, n: int, dtype: np.dtype) -> tuple:
    """The folds of the splits (r, k - r), r = k - 1 .. 1, of the k-th
    partial of a scalar times a tensor, as :func:`_leibniz_plan` makes them,
    one row per multi-index of the scalar's order-r partial: (P_r, P_(k-r)
    P_k) matrices, P_j = C(n+j-1, j), in ``dtype``."""
    folds = {o[0]: fold for o, _, _, fold in _leibniz_plan("a,aij->aij", k, n, (k, k))}
    return tuple(
        folds[r].reshape(comb(n + r - 1, r), -1).astype(dtype) for r in range(k - 1, 0, -1)
    )


def jet_scale(f: list, T: list) -> list:
    """Jet of f T for a scalar jet f and a tensor jet T, to the order of the
    shorter jet: Leibniz' rule with one factor a scalar.

    Order 0 and the split in which f is not differentiated scale T by f_0.
    The other splits of order k are one batched matmul: T's partials of
    orders 0 to k - 1 side by side on one contracted axis, times f's partials
    of orders k to 1 folded into the output multi-indices (:func:`_scale_folds`)
    and stacked on that axis, so no product of the two is formed before it is
    folded.
    """
    order = min(len(f), len(T)) - 1
    N, comp = len(T[0]), T[0].shape[1:]
    f0 = f[0].reshape((N,) + (1,) * len(comp))
    out = [f0 * T[0]]
    if order == 0:
        return out
    # T's partials of orders 0 .. order - 1 on one trailing axis, per node a
    # (components, sum of P_j) matrix whose prefixes are the orders below k
    lower = np.concatenate(
        [T[0].reshape(N, -1, 1)] + [t.reshape(N, -1, t.shape[-1]) for t in T[1:order]], axis=2
    )
    n, width = f[1].shape[-1], 1
    for k in range(1, order + 1):
        # f's partials of orders k .. 1 folded into the (P_j, P_k) blocks
        # that meet T's partials of orders j = 0 .. k - 1
        folded = np.empty((N, width, f[k].shape[-1]), dtype=f[k].dtype)
        folded[:, 0], row = f[k], 1
        for r, fold in zip(range(k - 1, 0, -1), _scale_folds(k, n, f[k].dtype)):
            rows = fold.shape[1] // f[k].shape[-1]
            np.matmul(f[r], fold, out=folded[:, row : row + rows].reshape(N, -1))
            row += rows
        P = np.matmul(lower[:, :, :width], folded)
        out.append(f0[..., None] * T[k] + P.reshape(T[k].shape))
        width += f[k].shape[-1]
    return out


def jet_einsum(spec: str, *jets: list, order: int | None = None) -> list:
    """Jet of the batched einsum ``spec`` of the factors' jets, to ``order``
    (default: the order of the shortest factor jet); order 0 is the plain
    product on the same spec."""
    shortest = min(len(j) for j in jets) - 1
    if order is None:
        order = shortest
    elif order > shortest:
        raise DimensionError(f"a factor jet of order {shortest} cannot give order {order}")
    jets = [j[: order + 1] for j in jets]
    return [contract(spec, *(j[0] for j in jets))] + [
        _leibniz(spec, jets, k) for k in range(1, order + 1)
    ]


@lru_cache(maxsize=None)
def _solve_spec(spec: str, packed: bool) -> str:
    """The spec applying A^-1 to B for the product spec A X = B: A's two
    component letters swapped, with B's packed axis, named by the first
    letter of :data:`_PACKED` not in the spec, riding along."""
    ins, out = spec.split("->")
    a, x = ins.split(",")
    tail = next(c for c in _PACKED if c not in spec) if packed else ""
    return f"{a[0]}{a[2]}{a[1]},{out}{tail}->{x}{tail}"


def _solve_step(A: list, X: list, B, spec: str, inv: Array) -> Array:
    """The packed order-k partial of X, k = len(X), from its lower ones:
    A_0^-1 (B_k - the Leibniz splits of A X in which A is differentiated),
    those splits being what :func:`_leibniz` gives with X one order short."""
    return contract(_solve_spec(spec, True), inv, B - _leibniz(spec, (A, X), len(X)))


def jet_solve(A: list, B: list, spec: str, inv: Array | None = None) -> list:
    """Jet of X = A^-1 B from A X = B, the batched product ``spec`` (A first,
    its two component letters the row and the one X shares), by forward
    substitution: X_0 = A_0^-1 B_0, then :func:`_solve_step` order by order
    to the order of A's jet; partials missing from a short B count as zero.
    Only A_0 is inverted, and not at all when its inverse comes as ``inv``."""
    if inv is None:
        inv = np.linalg.inv(A[0])
    X = [contract(_solve_spec(spec, False), inv, B[0])]
    for k in range(1, len(A)):
        X.append(_solve_step(A, X, B[k] if k < len(B) else 0.0, spec, inv))
    return X


@lru_cache(maxsize=None)
def _symmetric_pairs(n: int) -> tuple[Array, Array]:
    """(i, j) of the symmetric pairs i <= j, in packed column order."""
    return tuple(np.array(_multi_indices(n, 2)).T)


@lru_cache(maxsize=None)
def _christoffel_reads(n: int, k: int) -> Array:
    """Where S's order-(k - 1) partial reads the packed order-k partial of g
    (k >= 2), flattened per node: S_l(ij),b = g_il,jb + g_jl,ib - g_ij,lb on
    the symmetric pairs i <= j in packed column order and the packed
    multi-indices b, the three reads stacked in a (3, n, pairs, C(n+k-2,
    k-1)) table."""
    width, merge = comb(n + k - 1, k), _merge_index(n, k - 1)
    (i, j), l = _symmetric_pairs(n), np.arange(n)[:, None]
    flat = lambda x, y, m: ((x * n + y) * width)[..., None] + merge[m]
    return np.array([flat(i, l, j), flat(j, l, i), flat(i, j, l)])


def connection_jet(g: list) -> tuple[Array, Array, Array, list]:
    """(g^-1, sqrt(det g), S, Gamma's jet one order short) from a metric jet.

    Order 0 is :func:`connection_arrays`, the only inversion of g and the
    positivity test, so that bundles built from it keep the bits of
    :func:`curvature_bundle`.  Above it Gamma solves g Gamma = S/2 by forward
    substitution (:func:`_solve_step`) on the symmetric pairs i <= j only,
    S's partials read straight off the packed partials of g
    (:func:`_christoffel_reads`), and each order is expanded to full (i, j)
    by one take.
    """
    N, n = g[0].shape[:2]
    ginv, sqrt_det, S, Gamma0 = connection_arrays(g[0], g[1])
    i, j = _symmetric_pairs(n)
    X, column = [Gamma0[:, :, i, j]], _symmetric_index(n, 2)
    for k, d in enumerate(g[2:], 2):
        T = np.take(d.reshape(N, -1), _christoffel_reads(n, k), axis=1)
        X.append(_solve_step(g, X, 0.5 * ((T[:, 0] + T[:, 1]) - T[:, 2]), "alk,akp->alp", ginv))
    return ginv, sqrt_det, S, [Gamma0] + [np.take(x, column, axis=2) for x in X[1:]]


def christoffel_combination(D: Array) -> Array:
    """S[a,l,i,j,...] = D[a,j,l,i,...] + D[a,i,l,j,...] - D[a,i,j,l,...], any
    trailing packed derivative axis riding along: Gamma^k_ij = g^{kl} S_lij /
    2 for D = dg."""
    P = np.einsum("ailj...->alij...", D)
    return P + P.swapaxes(2, 3) - np.einsum("aijl...->alij...", D)


def covariant_jet(T: list, Gamma: list) -> list:
    """Jet of nabla T (new slot last), one order shorter than the jet of T.

    (nabla T)_{..m} = d_m T - sum over slots s of Gamma^p_{m i_s} T_{..p..};
    the jet of Gamma must reach the order of the result.  The order-k
    partial of d_m T is the order-(k + 1) partial of T with the index m split
    off.
    """
    comp = _SLOTS[: T[0].ndim - 1]
    order = len(T) - 2
    n = T[1].shape[-1]
    out = [_split(dT, k, n) for k, dT in enumerate(T[1:], 1)]
    for s, c in enumerate(comp):
        terms = jet_einsum(f"apm{c},a{comp[:s]}p{comp[s + 1:]}->a{comp}m", Gamma, T, order=order)
        out = [o - x for o, x in zip(out, terms)]
    return out


# ---------------------------------------------------------------------------
# Core pipeline
# ---------------------------------------------------------------------------


def connection_arrays(g: Array, dg: Array):
    """(ginv, sqrt(det g), S, Gamma) from the metric and its first partials:
    S[a,l,i,j] = 2 Gamma_{l,ij} (first kind), Gamma[a,k,i,j] = g^{kl} S_lij/2.
    g is tested where it is inverted: one that is not positive definite
    raises naming its node (:func:`volume_element`)."""
    sqrt_det = volume_element(g)
    ginv = np.linalg.inv(g)
    S = christoffel_combination(dg)
    return ginv, sqrt_det, S, 0.5 * contract("akl,alij->akij", ginv, S)


def christoffel_arrays(g: Array, dg: Array) -> Array:
    """Gamma[a,k,i,j] from the metric and its first partials."""
    return connection_arrays(g, dg)[3]


def ricci_arrays(field, X: Array, order: int = 0):
    """Lean pipeline: packed jets of (g, ginv, Gamma, Ric, R) at the points
    (or the seeded rows) X, from the metric jet ``field.packed_jet(X, order)``.

    Ric and R come to ``order``, Gamma to ``order + 1`` and g to ``order +
    2``; ginv is the one-element jet [g^-1], as no inverse jet is built:
    Gamma comes from :func:`connection_jet` and R is the trace of
    :func:`jet_solve` (g, Ric), forward substitution both, on the one
    inversion of g that :func:`connection_jet` makes.  Ricci is
    contracted straight from the connection data, so no rank-5 intermediate
    is materialized.
    """
    g = field.packed_jet(X, order + 2)
    ginv, _, _, Gamma = connection_jet(g)
    # Ric_ik = d_j Gamma^j_ik - d_k Gamma^j_ij + Gamma^p_ik Gamma^j_jp
    #          - Gamma^p_ij Gamma^j_kp, d_m Gamma split off dGamma as slot m
    c1 = [np.einsum("ajjp...->ap...", G) for G in Gamma]
    t3 = jet_einsum("apik,ap->aik", Gamma, c1, order=order)
    t4 = jet_einsum("apij,ajkp->aik", Gamma, Gamma, order=order)
    dGamma = [_split(G, k, g[0].shape[-1]) for k, G in enumerate(Gamma[1:], 1)]
    Ric = [
        np.einsum("ajikj...->aik...", dG) - np.einsum("ajijk...->aik...", dG) + p - q
        for dG, p, q in zip(dGamma, t3, t4)
    ]
    # R = g^{ik} Ric_ik, the trace of g^-1 Ric
    R = [
        np.einsum("aii...->a...", Y)
        for Y in jet_solve(g[: order + 1], Ric, "aij,ajk->aik", ginv)
    ]
    return g, [ginv], Gamma, Ric, R


@dataclass
class CurvatureBundle:
    """Pointwise curvature data; arrays keep the leading node axis.  On a
    space form M = lam wedge^2 g, the 2x2 minors of g (:func:`bivector_product`).

    A bundle is built holding g, g^-1, sqrt(det g) and the pair matrix M.
    Everything else is built on first read and cached: Ric (read off M,
    :func:`pair_ricci`) and R, the n^4 tensor Rm4 (the expansion of M, read
    by Rm13, A1, B and the Lichnerowicz Laplacian, not by the curvature check
    or the functionals), the norms, wedge^2 g and wedge^2 g^-1, and the Weyl
    tensor.  The connection that builds M is not kept."""

    g: Array
    ginv: Array
    sqrt_det: Array  # (a,) sqrt(det g), the volume element
    M: Array  # (a,p,q) = R_{l_p i_p j_q k_q} on the sorted pairs l < i, j < k

    @property
    def dimension(self) -> int:
        return self.g.shape[-1]

    @cached_property
    def Ric(self) -> Array:
        """(a,i,k) = g^{lj} R_lijk, read off M (:func:`pair_ricci`)."""
        return pair_ricci(self.M, self.ginv)

    @cached_property
    def R(self) -> Array:
        """(a,) = g^{ik} Ric_ik."""
        return contract("aik,aik->a", self.ginv, self.Ric)

    @cached_property
    def Rm4(self) -> Array:
        """(a,l,i,j,k) = R_lijk (first kind), the expansion of M."""
        return expand_pairs(self.M, self.dimension)

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
    def A1(self) -> Array:
        """A1_ij = R_i^{plk} R_jplk, its raised factor built here and not kept."""
        return contract("aiplk,ajplk->aij", self.Rm4, raise_all(self.Rm4, self.ginv, (1, 2, 3)))

    @cached_property
    def B(self) -> Array:
        """B_ij = R^{pl} R_ipjl, R^{pl} built here and not kept."""
        return contract("apl,aipjl->aij", raise_all(self.Ric, self.ginv, (0, 1)), self.Rm4)

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
    """The sorted pairs p = (l < i) in np.triu_indices order, and three
    flat index tables over p and q = (j < k): the Eisenhart reads [klij,
    jlik] in an n^4 array, the reads [[klij, jlik], [iklj, ijlk]] in a
    packed second partial d2[a, x, y, c] (its last two indices the sorted
    multi-index c), and each R_lijk's entry of [M, -M, 0]."""
    l, i = np.triu_indices(n, 1)
    m = len(l)
    L, I, J, K = l[:, None], i[:, None], l, i
    flat = lambda *idx: np.ravel_multi_index(idx, (n,) * 4)
    column, width = _symmetric_index(n, 2), n * (n + 1) // 2
    packed = lambda x, y, c, d: (x * n + y) * width + column[c, d]
    reads = np.array([flat(K, L, I, J), flat(J, L, I, K)])
    d2_reads = np.array([
        [packed(K, L, I, J), packed(J, L, I, K)], [packed(I, K, L, J), packed(I, J, L, K)]
    ])
    signed = np.zeros((n, n), int)  # p + 1 on the pair p = (l < i), -(p + 1) on (i, l)
    signed[l, i], signed[i, l] = np.arange(1, m + 1), -np.arange(1, m + 1)
    s, a = np.multiply.outer(signed, signed).ravel(), np.abs(signed) - 1
    expand = np.where(s == 0, 2 * m * m, np.add.outer(a * m, a).ravel() + m * m * (s < 0))
    return l, i, reads, d2_reads, expand


def bivector_product(A: Array, B: Array) -> Array:
    """(A wedge B)[a,p,q] = A_{l_p j_q} B_{i_p k_q} - A_{l_p k_q} B_{i_p j_q}
    on the sorted pairs, for batched (n, n) arrays: wedge^2 g = g wedge g,
    and the Kulkarni-Nomizu product A o B is A wedge B + B wedge A there."""
    l, i = _pair_index(A.shape[-1])[:2]
    L, I = l[:, None], i[:, None]
    return A[:, L, l] * B[:, I, i] - A[:, L, i] * B[:, I, l]


def expand_pairs(M: Array, n: int) -> Array:
    """The (0,4) tensor of a pair matrix: M on the sorted pairs, -M on a swapped
    pair, 0 on a repeated index, so exactly antisymmetric in each pair of slots."""
    flat = np.concatenate([M, -M, np.zeros_like(M[:, :1])], 1).reshape(len(M), -1)
    return np.take(flat, _pair_index(n)[4], axis=1).reshape((len(M),) + (n,) * 4)


@lru_cache(maxsize=None)
def _ricci_reads(n: int) -> tuple[Array, Array]:
    """Where Ric_ik = g^{lj} R_lijk reads M and g^-1, on the symmetric pairs i
    <= k in packed column order.  R_lijk = +-M[(l, i), (j, k)] for l != i and
    j != k, and 0 otherwise, so each Ric_ik sums (n - 1)^2 products: two flat
    tables of shape (pairs, (n - 1)^2), into M and into [g^-1, -g^-1], the
    sign of each term carried by its g^-1 read."""
    l, i = np.triu_indices(n, 1)
    pair = np.zeros((n, n), int)
    pair[l, i] = pair[i, l] = np.arange(len(l))
    sign = np.sign(np.subtract.outer(np.arange(n), np.arange(n)))  # -1 on a sorted pair
    others = np.array([[x for x in range(n) if x != y] for y in range(n)])
    I, K = _symmetric_pairs(n)
    L, J = others[I][:, :, None], others[K][:, None, :]  # (pairs, n - 1, 1), (pairs, 1, n - 1)
    I, K = I[:, None, None], K[:, None, None]
    m_read = pair[L, I] * len(l) + pair[J, K]
    g_read = L * n + J + n * n * (sign[L, I] * sign[J, K] < 0)
    return m_read.reshape(len(m_read), -1), g_read.reshape(len(g_read), -1)


def pair_ricci(M: Array, ginv: Array) -> Array:
    """Ric_ik = g^{lj} R_lijk from Rm's pair matrix M, with no n^4 expansion:
    (n - 1)^2 products per entry on the pairs i <= k (:func:`_ricci_reads`),
    expanded to the exactly symmetric (n, n) by one take."""
    N, n = ginv.shape[:2]
    m_read, g_read = _ricci_reads(n)
    G = ginv.reshape(N, -1)
    terms = np.take(M.reshape(N, -1), m_read, axis=1)
    signed = np.take(np.concatenate([G, -G], axis=1), g_read, axis=1)
    return np.take(np.einsum("apx,apx->ap", terms, signed), _symmetric_index(n, 2), axis=1)


def _pair_norm2(M: Array, L: Array) -> Array:
    """4 tr(M^T L M L), L = wedge^2 g^-1: |T|^2 of a (0,4) tensor
    antisymmetric in slots (0,1) and in slots (2,3) from its pair matrix M."""
    return 4 * contract("apq,apq->a", M, np.matmul(np.matmul(L, M), L))


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

    The test is one batched Cholesky factorisation of the real part of g,
    so complex-step metrics pass through, and so does a valid metric whose
    determinant underflows to 0 (tiny entries): its factor does not.  A
    positive determinant is no test: diag(-1, -1, 1) has det 1.  Only when
    the batch fails are its nodes factored one by one, to name the first.
    Non-finite entries are refused first: their factor is NaN, not an error.
    """
    if not np.isfinite(g).all():
        node = int(np.argmin(np.isfinite(g).all(axis=(1, 2))))
        with np.errstate(invalid="ignore"):
            raise DegenerateMetricError(node, np.linalg.det(g[node]))
    det = np.linalg.det(g)
    try:
        np.linalg.cholesky(g.real)
    except np.linalg.LinAlgError:
        for node, G in enumerate(g.real):
            try:
                np.linalg.cholesky(G)
            except np.linalg.LinAlgError:
                raise DegenerateMetricError(node, det[node]) from None
    return np.sqrt(det)


def curvature_bundle(g: Array, dg: Array, d2g: Array) -> CurvatureBundle:
    """The bundle of a packed metric jet [g, dg, d2g]."""
    return _bundle_from_connection(g, dg, d2g, *connection_arrays(g, dg))


def _bundle_from_connection(
    g: Array, dg: Array, d2g: Array, ginv: Array, sqrt_det: Array, S: Array, Gamma: Array
) -> CurvatureBundle:
    """The bundle of the packed metric jet [g, dg, d2g] from its tested
    connection (ginv, sqrt_det, S, Gamma) as :func:`connection_arrays` gives
    it, or as :func:`connection_jet` gives its order 0 (the same bits)."""
    N, n = g.shape[:2]
    reads, d2_reads = _pair_index(n)[2:4]
    # 2 R_lijk = P_klij - P_jlik (Eisenhart), P_klij = 2 T_lijk = S_qkl Gamma^q_ij
    # + g_lk,ij - g_ik,lj (g_lk,ij = d2g[a,k,l,ij]), read on the sorted pairs
    # (l < i, j < k) only; products and second partials enter as one difference each
    Q = np.take(contract("aqkl,aqij->aklij", S, Gamma).reshape(N, -1), reads, axis=1)
    D = np.take(d2g.reshape(N, -1), d2_reads, axis=1)
    M = 0.5 * ((Q[:, 0] - Q[:, 1]) + ((D[:, 0, 0] - D[:, 1, 0]) - (D[:, 0, 1] - D[:, 1, 1])))
    return CurvatureBundle(g, ginv, sqrt_det, M)


def curvature(field: MetricField, x) -> CurvatureBundle:
    """Curvature bundle at a chart point or a batch of points, in one pass
    (a point keeps a length-1 batch); a reduction over a whole grid streams
    its distinct nodes through :func:`distinct_blocks` into it."""
    return curvature_bundle(*field.packed_jet(x, 2))


def space_form_deviation(bundle: CurvatureBundle, lam: float) -> Array:
    """Per node, max |Rm4 - lam (g o g)/2| = max |M - lam wedge^2 g|, the same
    bits: Rm4 expands M, and the model is exactly antisymmetric too.  A NaN
    is kept."""
    return np.abs(bundle.M - lam * bundle.wedge2_g).max(axis=(1, 2))


def space_form_parts(bundle: CurvatureBundle, lam: float) -> tuple[Array, Array]:
    """Per node (deviation, max|g|): its :func:`space_form_deviation` and the
    size :func:`space_form_gate` judges it against, so that the nodes of a
    grid are judged once, together."""
    return space_form_deviation(bundle, lam), np.abs(bundle.g).max(axis=(1, 2))


def space_form_gate(dev: Array, g_max: Array, lam: float, tol: float) -> tuple[bool, float]:
    """(deviation <= tol * scale, deviation) from the :func:`space_form_parts`
    of every node: the one space-form gate.  The largest deviation is
    judged against scale = max(1, |lam| max|g|^2), the size of the model
    tensor lam (g o g)/2, so that the gate holds at any radius.  A NaN
    deviation fails."""
    worst, g = float(np.max(dev)), float(np.max(g_max))
    # |lam| g g, not |lam| g**2: a float power raises OverflowError, a product does not
    return worst <= tol * max(1.0, abs(lam) * g * g), worst


# ---------------------------------------------------------------------------
# Covariant derivatives of symmetric-tensor fields (analytic route)
# ---------------------------------------------------------------------------


def sym_tensor_cov_derivs(field: MetricField, h: SymTensorField, X: Array):
    """(h, Dh, D2h, bundle) at the nodes: Dh[a,i,j,k] = h_ij,k, D2h[a,i,j,k,l]
    = h_ij,kl and the base's :class:`CurvatureBundle` on the same metric jet
    and connection, from which callers read g, g^-1 and sqrt(det g)."""
    X, _ = _as_batch(X, field.dimension)
    g = field.packed_jet(X, 2)
    ginv, sqrt_det, S, Gamma = connection_jet(g)
    hj = h.packed_jet(X, 2)
    Dh = covariant_jet(hj, Gamma)
    D2h = covariant_jet(Dh, Gamma)[0]
    return hj[0], Dh[0], D2h, _bundle_from_connection(*g, ginv, sqrt_det, S, Gamma[0])


def covariant_derivative(field: MetricField, h: SymTensorField, x, order: int = 1) -> Array:
    """h_ij,k (order 1) or h_ij,kl (order 2) at a point or batch."""
    if order not in (1, 2):
        raise DimensionError("order must be 1 or 2")
    X, single = _as_batch(x, field.dimension)
    _, Dh, D2h, _ = sym_tensor_cov_derivs(field, h, X)
    out = Dh if order == 1 else D2h
    return out[0] if single else out


def divergence(field: MetricField, h: SymTensorField, x) -> Array:
    """(delta h)_j = g^{pq} h_pj,q."""
    X, single = _as_batch(x, field.dimension)
    _, Dh, _, bundle = sym_tensor_cov_derivs(field, h, X)
    out = contract("apq,apjq->aj", bundle.ginv, Dh)
    return out[0] if single else out


def delta_star(field: MetricField, omega: CovectorField, x) -> Array:
    """(delta* w)_ij = -(w_i,j + w_j,i)/2, the L^2 adjoint of the divergence."""
    X, single = _as_batch(x, field.dimension)
    Gamma = christoffel_arrays(*field.packed_jet(X, 1))
    Dw = covariant_jet(omega.packed_jet(X, 1), [Gamma])[0]  # Dw[a,i,j] = w_i,j
    out = -0.5 * (Dw + np.einsum("aij->aji", Dw))
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
    hv, _, D2h, bundle = sym_tensor_cov_derivs(field, h, X)
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

    ``inner_fn(Y)`` returns the packed jet of Gamma it built at the points
    ``Y`` (to order 1 at least) and, for each computed covariant tensor
    field, its exact packed jet [T, dT, d2T] there; the connection
    corrections turn each into
    nabla nabla T.  Nodes go in blocks of ``HESSIAN_BLOCK``.  Each output
    has shape (N, n^valence, n, n) with the trailing axes ordered (k, l) for
    nabla_l nabla_k.
    """

    def block(Y):
        Gamma, jets = inner_fn(Y)
        return tuple(covariant_jet(covariant_jet(T, Gamma), Gamma)[0] for T in jets)

    return list(node_blocks(block, X, size=HESSIAN_BLOCK))
