"""Coordinate charts and differentiable field containers.

Every geometric object in this package is a field over a single coordinate
chart: a callable mapping a batch of chart points (shape ``(N, n)``) to
component arrays with a leading batch axis.  A field hands out its jet, the
components together with their coordinate partials up to a requested order
(:meth:`_TensorValuedField.jet`).  Partials are exact at every order: closed
forms for trigonometric fields, sympy derivatives for analytic fields (each
order above 2 differentiated and lambdified on first request), and Leibniz'
rule or linearity for fields combined from others.  No finite difference
enters a jet; :func:`fd_partials` is kept only as the independent oracle the
tests check the exact jets against.

Index conventions for jet arrays (leading axis is always the batch, the
derivative axes trail the component axes and are symmetric among
themselves):

* metric            ``g[a, i, j]``
* first partials    ``d1[a, i, j, k] = d g_ij / d x^k``
* second partials   ``d2[a, i, j, k, l] = d^2 g_ij / (d x^k d x^l)``
* order m           m trailing derivative axes
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from .errors import ConfigurationError, DimensionError

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


def torus_domain(n: int, lengths: Sequence[float] | None = None) -> ChartDomain:
    lengths = [1.0] * n if lengths is None else list(lengths)
    if len(lengths) != n:
        raise ConfigurationError("need one length per axis")
    return ChartDomain(
        dimension=n,
        bounds=tuple((0.0, float(L)) for L in lengths),
        periodic=(True,) * n,
        kind=TORUS_BOX,
    )


def sphere_domain(n: int) -> ChartDomain:
    """Angular chart on S^n: n-1 polar angles in (0, pi), one azimuth."""
    bounds = tuple([(0.0, np.pi)] * (n - 1) + [(0.0, 2 * np.pi)])
    periodic = tuple([False] * (n - 1) + [True])
    return ChartDomain(n, bounds, periodic, SPHERE_ANGULAR)


def poincare_domain(n: int, r_max: float = 0.45) -> ChartDomain:
    half = r_max / np.sqrt(n)
    return ChartDomain(
        n, tuple(((-half, half),) * n), (False,) * n, POINCARE_BALL
    )


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


def _scaled_jet(jet, c: float):
    return lambda X, order: [c * t for t in jet(X, order)]


@dataclass(frozen=True)
class _TensorValuedField:
    """Shared plumbing for metric / symmetric-tensor / covector / scalar fields.

    ``_jet(X, order)`` returns the exact partials of orders 0..order, at any
    order.  Fields are frozen, so cached models and directions can be handed
    to every caller; derive a new field with ``dataclasses.replace`` or the
    combinators below.
    """

    domain: ChartDomain
    _jet: Callable[[Array, int], list[Array]]
    name: str = "field"

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def jet(self, X: Array, order: int) -> list[Array]:
        """[T, dT, ..., d^order T] at the points, derivative axes trailing."""
        return self._jet(_as_batch(X, self.dimension)[0], order)

    def eval_grid(self, X: Array) -> Array:
        return self.jet(X, 0)[0]

    def d1_grid(self, X: Array) -> Array:
        return self.jet(X, 1)[1]

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

    def metric_grid(self, X: Array) -> Array:
        return self.eval_grid(X)

    def rescaled(self, c: float) -> "MetricField":
        """The metric c*g (c a positive constant)."""
        if c <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            _jet=_scaled_jet(self._jet, c),
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
        return replace(self, _jet=_scaled_jet(self._jet, c), name=f"{self.name}*{c:g}")


@dataclass(frozen=True)
class CovectorField(_TensorValuedField):
    """A 1-form field; eval shape (N, n)."""


@dataclass(frozen=True)
class ScalarField(_TensorValuedField):
    """A scalar field; eval shape (N,)."""


def metric_as_sym_tensor(g: MetricField) -> SymTensorField:
    """View a metric as a symmetric 2-tensor field (e.g. the direction h = g)."""
    return SymTensorField(
        domain=g.domain,
        _jet=g._jet,
        name=f"{g.name} (as tensor)",
    )


def linear_combination_metric(
    base: MetricField, h: SymTensorField, t: float, scale: float = 1.0
) -> MetricField:
    """The metric scale*(base + t*h); derivatives combine linearly."""
    if h.dimension != base.dimension:
        raise DimensionError("perturbation dimension mismatch")
    bj, hj = base._jet, h._jet

    def jet(X, order):
        return [scale * (b + t * d) for b, d in zip(bj(X, order), hj(X, order))]

    return MetricField(
        domain=base.domain,
        _jet=jet,
        lam=None,
        name=f"{base.name}+{t:g}*{h.name}",
    )


# ---------------------------------------------------------------------------
# sympy-backed analytic fields
# ---------------------------------------------------------------------------


class _SympyJet:
    """Partials of a sympy tensor expression, differentiated and lambdified
    order by order on first request (orders up to ``eager`` at once).

    Only unique components are kept: derivative indices are sorted, and so
    are the two component indices of a symmetric 2-tensor.  A call fills the
    unique columns of each order into one ``(N, ncols)`` float64 array (a
    column sympy folded to a constant arrives as a scalar and broadcasts)
    and gathers the full index set from it with ``np.take``, so every order
    comes back C-contiguous.
    """

    def __init__(self, coords, exprs: np.ndarray, symmetric: bool, eager: int = 2):
        self.coords = tuple(coords)
        self.shape = exprs.shape
        self.symmetric = symmetric
        self._exprs = [
            {
                idx: sp.sympify(exprs[idx])
                for idx in np.ndindex(self.shape)
                if self._key(idx) == idx
            }
        ]
        self._fns: list = []
        self._fn(eager)

    def _key(self, idx: tuple) -> tuple:
        comp, deriv = idx[: len(self.shape)], idx[len(self.shape) :]
        return (tuple(sorted(comp)) if self.symmetric else comp) + tuple(sorted(deriv))

    def _fn(self, k: int):
        """(lambdified unique components, full-index gather map) of order k."""
        nc = len(self.shape)
        while len(self._fns) <= k:
            m = len(self._fns)
            if m == len(self._exprs):
                # differentiate the stored top order, keeping indices sorted
                self._exprs.append(
                    {
                        key + (q,): sp.diff(e, self.coords[q])
                        for key, e in self._exprs[-1].items()
                        for q in range(key[-1] if len(key) > nc else 0, len(self.coords))
                    }
                )
            keys = list(self._exprs[m])
            col = {key: c for c, key in enumerate(keys)}
            full = self.shape + (len(self.coords),) * m
            index = np.empty(full, dtype=np.intp)
            for idx in np.ndindex(full):
                index[idx] = col[self._key(idx)]
            exprs = [self._exprs[m][key] for key in keys]
            self._fns.append((sp.lambdify(self.coords, exprs, modules="numpy"), index))
        return self._fns[k]

    def __call__(self, X: Array, order: int) -> list[Array]:
        N = X.shape[0]
        args = [X[:, k] for k in range(X.shape[1])]
        out = []
        for k in range(order + 1):
            fn, index = self._fn(k)
            vals = fn(*args)
            cols = np.empty((N, len(vals)))
            for c, v in enumerate(vals):
                cols[:, c] = v  # a constant column is a scalar and broadcasts
            # take keeps each node's components contiguous, unlike [:, index]
            out.append(np.take(cols, index, axis=1))
        return out


def analytic_metric_field(
    domain: ChartDomain, coords, g_expr: sp.Matrix, **meta
) -> MetricField:
    """Metric from a symmetric sympy matrix (its upper triangle is read)."""
    n = domain.dimension
    exprs = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            exprs[i, j] = exprs[j, i] = g_expr[i, j]
    jet = _SympyJet(coords, exprs, symmetric=True)
    return MetricField(domain=domain, _jet=jet, **meta)


def analytic_sym_tensor_field(
    domain: ChartDomain, coords, h_expr: sp.Matrix, name: str = "h"
) -> SymTensorField:
    n = domain.dimension
    exprs = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if i < j and sp.simplify(h_expr[i, j] - h_expr[j, i]) != 0:
                raise DimensionError("symmetric tensor expression is not symmetric")
            exprs[i, j] = h_expr[i, j]
    jet = _SympyJet(coords, exprs, symmetric=True)
    return SymTensorField(domain=domain, _jet=jet, name=name)


def analytic_scalar_field(
    domain: ChartDomain, coords, f_expr, name: str = "f"
) -> ScalarField:
    exprs = np.empty((), dtype=object)
    exprs[()] = sp.sympify(f_expr)
    jet = _SympyJet(coords, exprs, symmetric=False)
    return ScalarField(domain=domain, _jet=jet, name=name)


# ---------------------------------------------------------------------------
# Trigonometric fields on the torus (closed-form derivatives, no sympy)
# ---------------------------------------------------------------------------


def _wave_jet(X: Array, w: Array, order: int) -> tuple[list, list]:
    """Jets of cos(x.w) and sin(x.w), each a list of (N, n^k) arrays."""
    phase = X @ w
    c, s = np.cos(phase), np.sin(phase)
    # d^k cos = cycle[k % 4] w^k and d^k sin = cycle[(k + 3) % 4] w^k
    cycle = (c, -s, -c, s)
    cos_jet, sin_jet, wk = [], [], np.ones(())
    for k in range(order + 1):
        cos_jet.append(np.multiply.outer(cycle[k % 4], wk))
        sin_jet.append(np.multiply.outer(cycle[(k + 3) % 4], wk))
        wk = np.multiply.outer(wk, w)
    return cos_jet, sin_jet


def trig_sym_tensor_field(
    domain: ChartDomain,
    waves: Sequence[tuple[Array, Array, Array]],
    name: str = "trig",
) -> SymTensorField:
    """h(x) = sum_m C_m cos(2 pi k_m.x) + S_m sin(2 pi k_m.x).

    Each wave is a triple (k, C, S) with integer wave vector k and constant
    symmetric matrices C, S.  Exact derivatives of all orders.
    """
    n = domain.dimension
    packed = []
    for k, C, S in waves:
        k = np.asarray(k, dtype=float)
        C = np.asarray(C, dtype=float)
        S = np.asarray(S, dtype=float)
        if C.shape != (n, n) or S.shape != (n, n) or k.shape != (n,):
            raise DimensionError("wave component shapes do not match dimension")
        if not (np.array_equal(C, C.T) and np.array_equal(S, S.T)):
            raise DimensionError("wave amplitude matrices must be symmetric")
        packed.append((2 * np.pi * k, C, S))

    def jet(X, order):
        out = [np.zeros((X.shape[0],) + (n,) * (2 + k)) for k in range(order + 1)]
        for w, C, S in packed:
            cos_jet, sin_jet = _wave_jet(X, w, order)
            for k in range(order + 1):
                out[k] += np.einsum("a...,ij->aij...", cos_jet[k], C)
                out[k] += np.einsum("a...,ij->aij...", sin_jet[k], S)
        return out

    return SymTensorField(domain=domain, _jet=jet, name=name)


def random_torus_sym_tensor(
    n: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    modes: int = 2,
    lengths: Sequence[float] | None = None,
) -> SymTensorField:
    """Random smooth symmetric tensor field on the unit torus."""
    dom = torus_domain(n, lengths)
    waves = []
    for _ in range(modes):
        k = np.zeros(n)
        while not k.any():
            k = rng.integers(-2, 3, size=n).astype(float)
        C = rng.standard_normal((n, n))
        S = rng.standard_normal((n, n))
        waves.append((k, amplitude * (C + C.T) / 2, amplitude * (S + S.T) / 2))
    return trig_sym_tensor_field(dom, waves, name="random torus tensor")


def random_torus_metric(
    n: int,
    rng: np.random.Generator,
    amplitude: float = 0.05,
    modes: int = 2,
) -> MetricField:
    """Identity metric plus a small random trigonometric perturbation."""
    pert = random_torus_sym_tensor(n, rng, amplitude=amplitude, modes=modes)
    pert_jet = pert._jet
    eye = np.eye(n)

    def jet(X, order):
        out = pert_jet(X, order)
        out[0] = eye[None, :, :] + out[0]
        return out

    return MetricField(
        domain=pert.domain,
        _jet=jet,
        lam=None,
        name="perturbed torus",
    )


def cosine_scalar_field(domain: ChartDomain, k: Sequence[float]) -> ScalarField:
    """f(x) = cos(2 pi k.x) with closed-form derivatives."""
    w = 2 * np.pi * np.asarray(k, dtype=float)
    if w.shape != (domain.dimension,):
        raise DimensionError("wave vector length must match the chart dimension")

    def jet(X, order):
        return _wave_jet(X, w, order)[0]

    return ScalarField(domain=domain, _jet=jet, name=f"cos(2pi {list(k)}.x)")


_SPHERE_JET_CACHE: dict = {}


def _sphere_embedding_jet(n: int, radius: float) -> _SympyJet:
    """Jet of the round embedding Y of the chart into R^{n+1}, cached per
    (n, radius); its first partials J[a, A, i] = dY_A/dx^i pull tensors back."""
    key = (n, float(radius))
    if key not in _SPHERE_JET_CACHE:
        coords = sp.symbols(f"t0:{n}")
        Y = np.empty(n + 1, dtype=object)
        for A in range(n + 1):
            expr = sp.Float(radius)
            for m in range(min(A, n)):
                expr = expr * sp.sin(coords[m])
            if A < n:
                expr = expr * sp.cos(coords[A])
            Y[A] = expr
        _SPHERE_JET_CACHE[key] = _SympyJet(coords, Y, symmetric=False, eager=3)
    return _SPHERE_JET_CACHE[key]


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
    identities require.
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
    Yjet = _sphere_embedding_jet(n, radius)

    def jet(X, order):
        Y = Yjet(X, order + 1)
        J = Y[1:]
        P = [np.einsum("ABc,ac...->aAB...", P1, y) for y in Y[:-1]]
        P[0] = P0 + P[0]
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
