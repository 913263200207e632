"""Coordinate charts and differentiable field containers.

Every geometric object in this package is a field over a single coordinate
chart: a callable mapping a batch of chart points (shape ``(N, n)``) to
component arrays with a leading batch axis.  A field hands out its jet, the
components together with their coordinate partials up to a requested order
(:meth:`_TensorValuedField.packed_jet`).  Partials are exact at every order and in
closed form, with no symbolic step: the torus fields are plane waves, the
built-in curved fields are :class:`Separable` sums of products of
one-coordinate waves (the sphere and Euler-chart metrics, the sphere
embedding, the S^3 coframe, its invariant modes and harmonics), and fields
combined from others follow Leibniz' rule or linearity.  No finite
difference enters a jet; :func:`fd_partials` is kept only as the independent
oracle the tests check the exact jets against (sympy, in the tests, is the
other).

Index conventions for jet arrays (leading axis is always the batch, the
derivative index trails the component axes):

* metric            ``g[a, i, j]``
* first partials    ``d1[a, i, j, k] = d g_ij / d x^k``
* order m >= 2      packed: one trailing axis over the C(n+m-1, m) sorted
                    derivative multi-indices in
                    ``combinations_with_replacement`` order, so each partial
                    is stored once (``d2[a, i, j, c]``, c the column of k <= l)

The built-in fields hand out every order C-contiguous, with the packed axis
last in memory as well, so that sums and scalings of jets (g + t h along a
direction, :func:`linear_combination_metric`) run on contiguous memory.

The whole pipeline of :mod:`curvlab.tensors` takes and returns packed jets.
:meth:`_TensorValuedField.jet` is the one place a jet is expanded to full
derivative axes, ``d2[a, i, j, k, l] = d^2 g_ij / (d x^k d x^l)`` and m
symmetric trailing axes at order m, for the tests and pointwise readers.
:func:`_merge_index` splits one derivative index off a packed order: slot m
and packed beta of order k - 1 go to the packed column of sort(beta + (m,)).

A field knows the chart coordinates its jet reads (:attr:`_TensorValuedField.reads`),
a tag its builder puts on the jet: a :class:`Separable` field reads the
coordinates of its waves, a plane-wave field the nonzero columns of its wave
vectors, and a field combined from others (a sum, a product, a constant
multiple) the union of what its parts read.  An untagged jet, such as one
swapped in by ``dataclasses.replace``, reads every coordinate.  Along the
axes a field does not read, its jet, and so every pointwise quantity built
from it, is constant: the whole-grid reductions compute it once per
distinct node (:func:`curvlab.tensors.distinct_nodes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, groupby
from math import comb
from operator import itemgetter, mul
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, InvalidModeError

Array = np.ndarray

# Chart kinds
TORUS_BOX = "TorusBox"
SPHERE_ANGULAR = "SphereAngular"
POINCARE_BALL = "PoincareBall"
EULER_SU2 = "EulerAnglesSU2"

_CHART_KINDS = (TORUS_BOX, SPHERE_ANGULAR, POINCARE_BALL, EULER_SU2)

# Relative step of the finite-difference oracle (:func:`fd_partials`) that
# the tests check exact jets against, as a fraction of the smallest axis
# extent.  No jet of the package uses it.
DEFAULT_FD_REL_STEP = 1e-3


@dataclass(frozen=True)
class ChartDomain:
    """A box in chart coordinates together with periodicity flags."""

    dimension: int
    bounds: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...]
    kind: str

    def __post_init__(self):
        n = self.dimension
        if n < 2:
            raise ConfigurationError(f"chart dimension must be >= 2, got {n}")
        if self.kind not in _CHART_KINDS:
            raise ConfigurationError(f"unknown chart kind {self.kind!r}")
        if len(self.bounds) != n or len(self.periodic) != n:
            raise ConfigurationError("bounds/periodic length must equal dimension")
        for lo, hi in self.bounds:
            if not (lo < hi):
                raise ConfigurationError(f"degenerate interval [{lo}, {hi}]")
        if self.kind == POINCARE_BALL:
            # every box corner must stay strictly inside the unit ball
            corner = np.sqrt(sum(max(lo * lo, hi * hi) for lo, hi in self.bounds))
            if corner >= 1.0:
                raise ConfigurationError(
                    f"Poincare box reaches radius {corner:.3f} >= 1"
                )

    @property
    def extents(self) -> Array:
        b = np.asarray(self.bounds, dtype=float)
        return b[:, 1] - b[:, 0]


def torus_domain(n: int) -> ChartDomain:
    """The unit box torus [0, 1)^n."""
    return ChartDomain(n, ((0.0, 1.0),) * n, (True,) * n, TORUS_BOX)


def sphere_domain(n: int) -> ChartDomain:
    """Angular chart on S^n: n-1 polar angles in (0, pi), one azimuth."""
    bounds = tuple([(0.0, np.pi)] * (n - 1) + [(0.0, 2 * np.pi)])
    periodic = tuple([False] * (n - 1) + [True])
    return ChartDomain(n, bounds, periodic, SPHERE_ANGULAR)


def poincare_domain(n: int) -> ChartDomain:
    """The cube inscribed in the ball of radius 0.45 of the Poincare chart."""
    half = 0.45 / np.sqrt(n)
    return ChartDomain(n, ((-half, half),) * n, (False,) * n, POINCARE_BALL)


def euler_su2_domain() -> ChartDomain:
    bounds = ((0.0, np.pi), (0.0, 2 * np.pi), (0.0, 4 * np.pi))
    return ChartDomain(3, bounds, (False, True, True), EULER_SU2)


def _as_batch(x: Array | Sequence[float], n: int) -> tuple[Array, bool]:
    X = np.asarray(x, dtype=float)
    if X.ndim == 1:
        if X.shape[0] != n:
            raise DimensionError(f"point has {X.shape[0]} coords, chart has {n}")
        return X[None, :], True
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionError(f"expected (N, {n}) batch of points, got {X.shape}")
    return X, False


def fd_partials(fn: Callable[[Array], Array], X: Array, steps: Array) -> Array:
    """4th-order central partials of a batched map: the finite-difference
    oracle for exact jets, used by the tests only.

    ``fn`` maps ``(M, n)`` points to ``(M, *comp)`` arrays; the result has
    shape ``(N, *comp, n)`` with the derivative axis appended last.
    """
    N, n = X.shape
    out = None
    for k in range(n):
        h = steps[k]
        e = np.zeros(n)
        e[k] = h
        f1 = fn(X + e)
        f_1 = fn(X - e)
        f2 = fn(X + 2 * e)
        f_2 = fn(X - 2 * e)
        dk = (f_2 - 8 * f_1 + 8 * f1 - f2) / (12 * h)
        if out is None:
            out = np.empty(np.shape(dk) + (n,), dtype=dk.dtype)
        out[..., k] = dk
    return out


# ---------------------------------------------------------------------------
# Packed derivative multi-indices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _multi_indices(n: int, k: int) -> tuple:
    """The sorted derivative multi-indices of order k, in packed column order."""
    return tuple(combinations_with_replacement(range(n), k))


@lru_cache(maxsize=None)
def _symmetric_index(n: int, k: int) -> Array:
    """The packed column of every full derivative index of order k, an
    (n,) * k table."""
    column = {alpha: c for c, alpha in enumerate(_multi_indices(n, k))}
    return np.array([column[tuple(sorted(i))] for i in np.ndindex((n,) * k)]).reshape((n,) * k)


@lru_cache(maxsize=None)
def _merge_index(n: int, k: int) -> Array:
    """The packed column of order k + 1 of sort(beta + (m,)) for a slot m and
    a packed multi-index beta of order k >= 1: an (n, C(n+k-1, k)) table."""
    full = _symmetric_index(n, k + 1)
    return np.stack([full[(slice(None),) + beta] for beta in _multi_indices(n, k)], axis=-1)


def _packed_axes(n: int, k: int) -> tuple:
    """The trailing shape of a packed order-k partial."""
    return (comb(n + k - 1, k),) if k else ()


@lru_cache(maxsize=None)
def _prefix_index(n: int, k: int) -> tuple[Array, Array]:
    """(the packed column of alpha[:-1] in order k - 1, alpha[-1]) for every
    sorted multi-index alpha of order k >= 1."""
    column = {beta: c for c, beta in enumerate(_multi_indices(n, k - 1))}
    alphas = _multi_indices(n, k)
    return np.array([column[a[:-1]] for a in alphas]), np.array([a[-1] for a in alphas])


def _split(P: Array, k: int, n: int) -> Array:
    """The packed order-k partial P (k >= 1) with one derivative index split
    off as a slot: component axes, then m, then packed order k - 1."""
    return P if k == 1 else np.take(P, _merge_index(n, k - 1), axis=-1)


def _expand(P: Array, k: int, n: int) -> Array:
    """The packed order-k partial P on its full, exactly symmetric derivative axes."""
    return P if k < 2 else np.take(P, _symmetric_index(n, k), axis=-1)


def _reading(reads, jet):
    """``jet``, tagged with the chart coordinates it reads, given sorted."""
    jet.reads = tuple(int(m) for m in reads)
    return jet


def reads_of(*fields) -> tuple[int, ...]:
    """The chart coordinates that any of the fields reads, sorted."""
    return tuple(sorted({m for f in fields for m in f.reads}))


def _scaled_jet(field, c: float):
    jet = field._jet
    return _reading(field.reads, lambda X, order: [c * t for t in jet(X, order)])


@dataclass(frozen=True)
class _TensorValuedField:
    """Shared plumbing for metric / symmetric-tensor / covector / scalar fields.

    ``_jet(X, order)`` returns the exact partials of orders 0..order, at any
    order, packed (see the module docstring).  Fields are frozen, so one
    model or direction can be handed to every caller, from any thread;
    derive a new field with ``dataclasses.replace`` or the combinators below.
    """

    domain: ChartDomain
    _jet: Callable[[Array, int], list[Array]]
    name: str = "field"

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def reads(self) -> tuple[int, ...]:
        """The chart coordinates the jet reads, as its builder tagged it
        (see the module docstring); every coordinate for an untagged jet."""
        reads = getattr(self._jet, "reads", None)
        return tuple(range(self.dimension)) if reads is None else reads

    def packed_jet(self, X: Array, order: int) -> list[Array]:
        """[T, dT, ..., d^order T] at the points, each order packed."""
        return self._jet(_as_batch(X, self.dimension)[0], order)

    def jet(self, X: Array, order: int) -> list[Array]:
        """[T, dT, ..., d^order T] at the points on full derivative axes,
        trailing and exactly symmetric: the one expansion of a packed jet."""
        n = self.dimension
        return [_expand(P, k, n) for k, P in enumerate(self.packed_jet(X, order))]

    def eval_grid(self, X: Array) -> Array:
        return self.packed_jet(X, 0)[0]

    def d1_grid(self, X: Array) -> Array:
        return self.packed_jet(X, 1)[1]

    def d2_grid(self, X: Array) -> Array:
        return self.jet(X, 2)[2]


@dataclass(frozen=True)
class MetricField(_TensorValuedField):
    """A Riemannian metric on a chart, with derivative access.

    ``eval_grid`` returns symmetric positive-definite component matrices.
    ``lam`` records the sectional curvature when the field is a built-in
    space form (None for generic fields).  Whether integrals are defined is
    a property of the chart: every integral operation refuses a field on the
    Poincare ball chart, which covers a non-compact model.
    """

    lam: float | None = None

    def metric(self, x) -> Array:
        X, single = _as_batch(x, self.dimension)
        g = self.eval_grid(X)
        return g[0] if single else g

    def rescaled(self, c: float) -> "MetricField":
        """The metric c*g (c a positive constant)."""
        if c <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            _jet=_scaled_jet(self, c),
            lam=None if self.lam is None else self.lam / c,
            name=f"{self.name}*{c:g}",
        )


@dataclass(frozen=True)
class SymTensorField(_TensorValuedField):
    """A symmetric (0,2) tensor field (metric perturbation direction)."""

    def components(self, x) -> Array:
        X, single = _as_batch(x, self.dimension)
        h = self.eval_grid(X)
        return h[0] if single else h

    def scaled(self, c: float) -> "SymTensorField":
        return replace(self, _jet=_scaled_jet(self, c), name=f"{self.name}*{c:g}")


@dataclass(frozen=True)
class CovectorField(_TensorValuedField):
    """A 1-form field; eval shape (N, n)."""


@dataclass(frozen=True)
class ScalarField(_TensorValuedField):
    """A scalar field; eval shape (N,)."""


def linear_combination_metric(base: MetricField, h: SymTensorField, t: float) -> MetricField:
    """The metric base + t*h; derivatives combine linearly, each order of
    the jet one new array: t*h, with the base's partial added in place (the
    bits of b + t*d)."""
    if h.dimension != base.dimension:
        raise DimensionError("perturbation dimension mismatch")
    bj, hj = base._jet, h._jet

    def jet(X, order):
        return [_add_into(t * d, b) for b, d in zip(bj(X, order), hj(X, order))]

    return MetricField(
        domain=base.domain,
        _jet=_reading(reads_of(base, h), jet),
        lam=None,
        name=f"{base.name}+{t:g}*{h.name}",
    )


def _add_into(P: Array, b: Array) -> Array:
    """b + P, written into P, a new array, where it holds the sum's shape and
    dtype."""
    if P.shape != b.shape or not np.can_cast(b.dtype, P.dtype):
        return b + P
    P += b
    return P


# ---------------------------------------------------------------------------
# Separable fields: sums of products of one-coordinate waves (closed form)
# ---------------------------------------------------------------------------
#
# Every built-in curved field is a sum of terms c prod_m f_m(x^m), each
# factor one wave cos(w x^m + q pi/2) or the product of two waves of one
# frequency.  The partial of a term on a sorted multi-index alpha is c times
# the product over m of f_m's derivative of order count(m in alpha), with no
# Leibniz sum (Taylor arithmetic, Griewank & Walther, "Evaluating
# Derivatives", 2nd ed., ch. 13).  A factor's value is the product of its
# waves (sin t sin t, accurate near the poles), its derivatives those of the
# one wave it differs from a constant by (sin^2 t = 1/2 - cos(2t)/2).
#
# A _SeparableJet's table holds ones, the waves cos, -sin, -cos and sin of
# each distinct (coordinate, frequency), and the product factors' values.
# Each order's plan is made once (orders 0-2 at construction): the table
# columns and scale of every (term, multi-index) pair that is not
# identically zero, sorted by the unique partial it sums into, and one index
# from every component and packed multi-index to that sum.  A call then
# takes a fixed handful of numpy operations per order, none a loop over
# multi-indices.  Fields with the same entries share one jet, and so its
# plans (:func:`_separable_jet`).


@dataclass(frozen=True)
class Separable:
    """A scalar: coefficients times products of waves.  ``terms`` pairs each
    coefficient with a sorted tuple of waves (m, w, q), the function cos(w x^m
    + q pi/2); sums and products collect like terms and drop cancelled ones."""

    terms: tuple = ()

    def __add__(self, other) -> "Separable":
        return _collect(self.terms + _separable(other).terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Separable":
        return self + -1.0 * _separable(other)

    def __mul__(self, other) -> "Separable":
        other = _separable(other)
        return _collect(
            (a * b, tuple(sorted(u + v))) for a, u in self.terms for b, v in other.terms
        )

    __rmul__ = __mul__


def _separable(x) -> Separable:
    return x if isinstance(x, Separable) else Separable(((float(x), ()),))


def _collect(terms) -> Separable:
    merged: dict = {}
    for c, waves in terms:
        merged[waves] = merged.get(waves, 0.0) + c
    return Separable(tuple((c, w) for w, c in merged.items() if c != 0.0))


def wave(m: int, w: float = 1.0, q: int = 0) -> Separable:
    """cos(w x^m + q pi/2): cos for q = 0, sin for q = 3."""
    return Separable(((1.0, ((m, float(w), q % 4),)),))


def _single_wave(waves) -> tuple[float, float, int]:
    """(a, w, q) of the wave a cos(w t + q pi/2) that a factor differs from a
    constant by: cos A cos B = (cos(A + B) + cos(A - B)) / 2."""
    if len(waves) == 1:
        return (1.0, *waves[0])
    if len(waves) != 2 or waves[0][0] != waves[1][0]:
        raise ConfigurationError(f"a factor is one wave or two of one frequency, got {waves}")
    return 0.5, 2 * waves[0][0], (waves[0][1] + waves[1][1]) % 4


@lru_cache(maxsize=None)
def _multi_index_counts(n: int, k: int) -> Array:
    """How often each coordinate occurs in each sorted multi-index of order
    k, in packed column order."""
    alphas = _multi_indices(n, k)
    return np.array([[alpha.count(m) for m in range(n)] for alpha in alphas], dtype=np.intp)


class _SeparableJet:
    """Closed-form jet of a tensor whose unique components are
    :class:`Separable` sums (absent components are zero)."""

    def __init__(self, n: int, entries: dict, shape: tuple, symmetric: bool):
        self.n = n
        comps = sorted(c for c, e in entries.items() if _separable(e).terms)
        if symmetric and any(list(c) != sorted(c) for c in comps):
            raise DimensionError("symmetric components are keyed by sorted indices")
        where = {c: u for u, c in enumerate(comps)}
        key = (lambda i: tuple(sorted(i))) if symmetric else (lambda i: i)
        self._comp = np.array([where.get(key(i), -1) for i in np.ndindex(shape)]).reshape(shape)
        # (unique component, coefficient, factors (m, the waves (w, q) of x^m))
        self._terms = [
            (u, coef, [(m, tuple(x[1:] for x in g)) for m, g in groupby(waves, itemgetter(0))])
            for u, c in enumerate(comps)
            for coef, waves in _separable(entries[c]).terms
        ]
        factors = sorted({f for *_, fs in self._terms for f in fs})
        self._single = {f: _single_wave(f[1]) for f in factors}
        freqs = {(m, w) for m, ws in factors for w, _ in ws}
        freqs = sorted(freqs | {(f[0], s[1]) for f, s in self._single.items()})
        self._col = {mw: 1 + c for c, mw in enumerate(freqs)}
        self._m = np.array([m for m, _ in freqs], dtype=np.intp)
        self.reads = tuple(sorted(set(self._m.tolist())))
        self._w = np.array([w for _, w in freqs])
        # a factor's value: its wave's column, or its product's after the waves
        products = [f for f in factors if len(f[1]) == 2]
        self._pairs = np.array([[self._wave_col(m, *wq) for wq in ws] for m, ws in products])
        self._value = {f: self._wave_col(f[0], *f[1][0]) for f in factors}
        self._value.update((f, 1 + 4 * len(freqs) + i) for i, f in enumerate(products))
        self._plans: list = []
        self._plans_to(2)

    def _wave_col(self, m, w, q):
        """Table column of the wave cos(w x^m + q pi/2)."""
        return self._col[(m, w)] + q * len(self._w)

    def _plans_to(self, order: int) -> list:
        """The plans of orders 0 to ``order``.  Missing ones are made in a new
        list, published with one assignment: a call on another thread keeps
        the list it read, and never sees one half made."""
        plans = self._plans
        if len(plans) <= order:
            plans = plans + [self._plan(k) for k in range(len(plans), order + 1)]
            self._plans = plans
        return plans

    def _plan(self, k: int) -> tuple:
        """The plan of order k: (table columns, scales, reduceat starts or
        None, index of each component and packed multi-index)."""
        depth = max([1] + [len(fs) for *_, fs in self._terms])
        counts = _multi_index_counts(self.n, k)
        A = len(counts)
        # the first pair, of scale 0, gives the zero partials
        rows, scales, targets = [np.zeros((depth, 1), dtype=np.intp)], [[0.0]], [[-1]]
        for u, coef, fs in self._terms:
            ms = [m for m, _ in fs]
            ok = np.flatnonzero(counts[:, ms].sum(axis=1) == k)  # alpha within ms
            R, s = np.zeros((depth, len(ok)), dtype=np.intp), np.full(len(ok), coef)
            for level, (f, c) in enumerate(zip(fs, counts[ok][:, ms].T)):
                a, w, q = self._single[f]
                # d^c/dt^c a cos(w t + q pi/2) = a w^c cos(w t + (q + c) pi/2)
                R[level] = np.where(c > 0, self._wave_col(f[0], w, (q + c) % 4), self._value[f])
                s = s * np.where(c > 0, a * w**c, 1.0)
            rows.append(R)
            scales.append(s)
            targets.append(u * A + ok)
        target = np.concatenate(targets)
        comp = self._comp[..., None] if k else self._comp
        index = np.where(comp < 0, -1, comp * A + (np.arange(A) if k else 0))
        index[~np.isin(index, target)] = -1
        by_target = np.argsort(target, kind="stable")
        unique, starts = np.unique(target[by_target], return_index=True)
        return (
            np.concatenate(rows, axis=1)[:, by_target],
            np.concatenate(scales)[by_target],
            starts if len(starts) < len(target) else None,
            np.searchsorted(unique, index),
        )

    def __call__(self, X: Array, order: int) -> list[Array]:
        plans = self._plans_to(order)
        phase = X[:, self._m] * self._w
        c, s = np.cos(phase), np.sin(phase)
        table = np.concatenate([np.ones((len(X), 1)), c, -s, -c, s], axis=1)
        if len(self._pairs):
            products = table[:, self._pairs[:, 0]] * table[:, self._pairs[:, 1]]
            table = np.concatenate([table, products], axis=1)
        out = []
        for R, scale, starts, index in plans[: order + 1]:
            vals = table[:, R[0]]
            for r in R[1:]:
                vals *= table[:, r]
            vals *= scale
            if starts is not None:
                vals = np.add.reduceat(vals, starts, axis=1)
            out.append(np.take(vals, index, axis=1))
        return out


# Making the 10 plans of an identity case's fields took 2-3 ms of its 130-150.
@lru_cache(maxsize=64)
def _shared_separable_jet(n: int, entries: tuple, shape: tuple, symmetric: bool) -> _SeparableJet:
    return _SeparableJet(n, dict(entries), shape, symmetric)


def _separable_jet(n: int, entries: dict, shape: tuple, symmetric: bool) -> _SeparableJet:
    """The :class:`_SeparableJet` of the entries, one per (n, entries, shape,
    symmetric): :class:`Separable` is frozen and hashable, and a jet's plans
    are published with one assignment, so fields may share it."""
    key = tuple(sorted((c, _separable(e)) for c, e in entries.items()))
    return _shared_separable_jet(n, key, tuple(shape), symmetric)


def analytic_metric_field(domain: ChartDomain, entries: dict, **meta) -> MetricField:
    """Metric from its upper-triangle components, {(i, j): Separable} with
    i <= j (absent ones zero), with closed-form jets."""
    jet = _separable_jet(domain.dimension, entries, (domain.dimension,) * 2, symmetric=True)
    return MetricField(domain=domain, _jet=jet, **meta)


def analytic_sym_tensor_field(domain: ChartDomain, entries: dict, name="h") -> SymTensorField:
    """Symmetric 2-tensor from its components as analytic_metric_field reads them."""
    jet = _separable_jet(domain.dimension, entries, (domain.dimension,) * 2, symmetric=True)
    return SymTensorField(domain=domain, _jet=jet, name=name)


def analytic_scalar_field(domain: ChartDomain, f: Separable, name="f") -> ScalarField:
    return ScalarField(domain, _separable_jet(domain.dimension, {(): f}, (), False), name)


# ---------------------------------------------------------------------------
# Trigonometric fields on the torus (plane waves)
# ---------------------------------------------------------------------------


def _wave_vector(domain: ChartDomain, k) -> Array:
    """k of a plane wave cos(2 pi k.x) on ``domain`` as float64; InvalidModeError
    unless finite and, on the unit torus, integers of size <= 2^53 (float64
    holds them exactly): only those waves are periodic there."""
    given = np.asarray(k, dtype=object)  # compared as given: a large int rounds in float64
    if given.shape != (domain.dimension,):
        raise DimensionError("wave vector length must match the chart dimension")
    given = given.tolist()
    whole = all(abs(v) <= 2**53 and float(v).is_integer() for v in given)
    # Python refuses to print an int of over 4,300 digits: name one by its size
    shown = [f"<{v.bit_length()}-bit int>" if isinstance(v, int) and v.bit_length() > 1024 else v
             for v in given]
    if domain.kind == TORUS_BOX and not whole:
        raise InvalidModeError(f"wave vector k = {shown} must hold integers of size <= 2^53")
    try:
        k = np.asarray(given, dtype=float)
    except OverflowError:  # an int beyond the float range
        k = np.array([np.inf])
    if not np.isfinite(k).all():
        raise InvalidModeError(f"wave vector k = {shown} must be finite")
    return k


def _plane_wave_jet(X: Array, W: Array, A: Array, shape: tuple, order: int) -> list[Array]:
    """Packed jet of sum_m A_2m cos(x.w_m) + A_2m+1 sin(x.w_m), the wave
    vectors w_m the rows of W and the amplitudes A_r, arrays of ``shape``,
    flattened as the rows of A.

    d^k cos = cycle[k % 4] w^k and d^k sin = cycle[(k + 3) % 4] w^k, with the
    powers w^alpha = w_alpha1 ... w_alphak on the packed multi-indices,
    multiplied left to right.  Order k is one matrix product: the (cos, sin)
    terms of every wave, one row per node and multi-index, times A, copied
    once to C order with the packed axis trailing, so that sums and scalings
    of the jet run on contiguous memory.
    """
    N, waves = len(X), len(W)
    phase = X @ W.T
    c, s = np.cos(phase), np.sin(phase)
    cycle = (c, -s, -c, s)
    out, wk = [], np.ones((waves, 1))
    for k in range(order + 1):
        terms = np.stack([cycle[k % 4], cycle[(k + 3) % 4]], axis=2)[:, None] * wk.T[:, :, None]
        cols = terms.shape[1]
        T = (terms.reshape(N * cols, 2 * waves) @ A).reshape(N, cols, -1)
        if k:  # one transposing copy of (node, multi-index, component) rows
            T = np.ascontiguousarray(T.swapaxes(1, 2))
        out.append(T.reshape((N,) + shape + _packed_axes(X.shape[1], k)))
        prefix, last = _prefix_index(X.shape[1], k + 1)
        wk = wk[:, prefix] * W[:, last]
    return out


def trig_sym_tensor_field(
    domain: ChartDomain,
    waves: Sequence[tuple[Array, Array, Array]],
    name: str = "trig",
) -> SymTensorField:
    """h(x) = sum_m C_m cos(2 pi k_m.x) + S_m sin(2 pi k_m.x).

    Each wave is a triple (k, C, S), k integer on the torus (:func:`_wave_vector`),
    C and S constant symmetric matrices.  Exact derivatives of all orders,
    each order one matrix product over every wave (:func:`_plane_wave_jet`).
    """
    n = domain.dimension
    vectors, amplitudes = [], []
    for k, C, S in waves:
        k = _wave_vector(domain, k)
        C = np.asarray(C, dtype=float)
        S = np.asarray(S, dtype=float)
        if C.shape != (n, n) or S.shape != (n, n):
            raise DimensionError("wave component shapes do not match dimension")
        if not (np.array_equal(C, C.T) and np.array_equal(S, S.T)):
            raise DimensionError("wave amplitude matrices must be symmetric")
        vectors.append(2 * np.pi * k)
        amplitudes += [C, S]
    W = np.array(vectors).reshape(-1, n)
    A = np.array(amplitudes).reshape(-1, n * n)

    def jet(X, order):
        return _plane_wave_jet(X, W, A, (n, n), order)

    reads = np.flatnonzero(W.any(axis=0))
    return SymTensorField(domain=domain, _jet=_reading(reads, jet), name=name)


def random_torus_sym_tensor(
    n: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SymTensorField:
    """Random smooth symmetric tensor field on the unit torus: two plane
    waves with random wave vectors in {-2, ..., 2}^n."""
    waves = []
    for _ in range(2):
        k = np.zeros(n)
        while not k.any():
            k = rng.integers(-2, 3, size=n).astype(float)
        C = rng.standard_normal((n, n))
        S = rng.standard_normal((n, n))
        waves.append((k, amplitude * (C + C.T) / 2, amplitude * (S + S.T) / 2))
    return trig_sym_tensor_field(torus_domain(n), waves, name="random torus tensor")


def random_torus_metric(
    n: int, rng: np.random.Generator, amplitude: float = 0.05
) -> MetricField:
    """Identity metric plus a small random trigonometric perturbation."""
    pert = random_torus_sym_tensor(n, rng, amplitude=amplitude)

    def jet(X, order):
        out = pert._jet(X, order)
        return [np.eye(n) + out[0]] + out[1:]

    return MetricField(domain=pert.domain, _jet=_reading(pert.reads, jet), name="perturbed torus")


def cosine_scalar_field(domain: ChartDomain, k: Sequence[float]) -> ScalarField:
    """f(x) = cos(2 pi k.x) with closed-form derivatives (k: :func:`_wave_vector`)."""
    w = 2 * np.pi * _wave_vector(domain, k)
    A = np.array([[1.0], [0.0]])  # cos, no sin: the product adds exact zeros

    def jet(X, order):
        return _plane_wave_jet(X, w[None], A, (), order)

    name = f"cos(2pi {list(k)}.x)"
    return ScalarField(domain=domain, _jet=_reading(np.flatnonzero(w), jet), name=name)


def _sphere_embedding_jet(n: int, radius: float) -> _SeparableJet:
    """Jet of the round embedding Y of the chart into R^{n+1}, Y_A = r
    sin t_0 ... sin t_(A-1) cos t_A (no cosine for A = n); its first partials
    J[a, A, i] = dY_A/dx^i pull tensors back."""
    sines = [wave(m, q=3) for m in range(n)]
    Y = {(A,): reduce(mul, sines[:A], wave(A) if A < n else 1.0) * radius for A in range(n + 1)}
    return _separable_jet(n, Y, (n + 1,), symmetric=False)


def sphere_pullback_sym_tensor(
    n: int,
    P0: Array,
    P1: Array | None = None,
    radius: float = 1.0,
    name: str = "sphere pullback tensor",
) -> SymTensorField:
    """Pull back the ambient tensor P_AB(y) = P0_AB + P1_ABc y_c to S^n.

    The result is a globally smooth symmetric tensor field on the sphere
    (not merely chart-smooth), which is what the integration-by-parts
    identities require.  Its jet is Leibniz' rule on J^T P J, J the first
    partials of the embedding Y; each order of P is one matrix product of
    P1, its rows the pairs (A, B), with that order of Y.
    """
    from .tensors import jet_einsum

    m = n + 1
    P0 = np.asarray(P0, dtype=float)
    if P0.shape != (m, m) or not np.allclose(P0, P0.T):
        raise DimensionError(f"P0 must be symmetric {m}x{m}")
    if P1 is None:
        P1 = np.zeros((m, m, m))
    P1 = np.asarray(P1, dtype=float)
    if P1.shape != (m, m, m):
        raise DimensionError(f"P1 must have shape {(m, m, m)}")
    P1 = P1.reshape(m * m, m)
    Yjet = _sphere_embedding_jet(n, radius)

    def jet(X, order):
        Y = Yjet(X, order + 1)
        J = [_split(y, k, n) for k, y in enumerate(Y[1:], 1)]
        P = [P0 + (Y[0] @ P1.T).reshape(-1, m, m)]
        P += [np.matmul(P1, y).reshape((len(X), m, m, -1)) for y in Y[1:-1]]
        return jet_einsum("aAi,aAj->aij", J, jet_einsum("aAB,aBj->aAj", P, J))

    return SymTensorField(domain=sphere_domain(n), _jet=jet, name=name)


def random_sphere_sym_tensor(
    n: int,
    rng: np.random.Generator,
    radius: float = 1.0,
    amplitude: float = 1.0,
) -> SymTensorField:
    """Random globally smooth symmetric tensor on the round sphere."""
    m = n + 1
    A0 = rng.standard_normal((m, m))
    A1 = rng.standard_normal((m, m, m))
    P0 = amplitude * (A0 + A0.T) / 2
    P1 = amplitude * (A1 + A1.transpose(1, 0, 2)) / 2
    return sphere_pullback_sym_tensor(
        n, P0, P1, radius=radius, name="random sphere tensor"
    )
