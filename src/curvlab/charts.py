"""Model metrics, quadrature grids and volume integration.

Built-in models
---------------
``torus``     flat box torus, g = identity, curvature 0.
``sphere``    round S^n of radius r in angular coordinates
              (n-1 polar angles, one azimuth); sectional curvature 1/r^2.
``poincare``  Poincare ball chart g = 4 delta / (1-|x|^2)^2, curvature -1.
              Pointwise use only: the chart covers a non-compact model, so
              :meth:`QuadratureGrid.integrals` refuses its grids.
``s3-euler``  round S^3 as SU(2) in z-y-z Euler angles (theta, phi, psi)
              with psi running over [0, 4 pi).  The bi-invariant frame is
              exposed through :func:`milnor_frame` / :func:`milnor_coframe`
              so left-invariant tensors can be written in chart components.

Every model's jet is closed form: the sphere and Euler-chart metrics are
:class:`~curvlab.fields.Separable` sums of products of one-coordinate
waves, the Poincare metric 4 delta (1/u)^2 with u = 1 - |x|^2.  Models are
cheap to build, so :func:`make_model` builds a fresh one on every call.

Sphere-type integrals use the angular chart (product-of-sines volume
element): one chart covers everything but a measure-zero set, and the polar
axes carry Gauss-Legendre nodes, which never touch the coordinate
singularities at theta in {0, pi}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import mul
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    GlobalIntegralUnsupportedError,
    UnsupportedModelError,
)
from .fields import (
    POINCARE_BALL,
    Array,
    ChartDomain,
    MetricField,
    Separable,
    _multi_index_counts,
    _packed_axes,
    _separable,
    _separable_jet,
    analytic_metric_field,
    euler_su2_domain,
    poincare_domain,
    sphere_domain,
    torus_domain,
    wave,
)
from .tensors import jet_scale, jet_solve, volume_element

MIN_RESOLUTION = 4
# The largest grid build_grid makes, refused before anything is allocated:
# 2^22 nodes (their coordinates alone take 168 MB at n = 5), and 1,024
# Gauss-Legendre nodes on one axis (numpy's leggauss solves a dense m x m
# eigenproblem, 8 MB at m = 1,024).
MAX_GRID_NODES = 2**22
MAX_GAUSS_NODES = 1024


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature nodes with coordinate-measure weights.

    Weights carry only the coordinate measure; sqrt(det g) is applied by
    :meth:`integrals`, every integral of the package and the only reader of
    the weights.  Periodic axes use uniform open grids (trapezoidal
    weights), non-periodic axes use Gauss-Legendre nodes, so no node ever
    lands on a pole.
    """

    domain: ChartDomain
    nodes: Array  # (N, n)
    weights: Array  # (N,)
    resolution: tuple[int, ...]

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ConfigurationError("quadrature weights must be positive")

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def integrals(self, sqrt_det: Array, *densities: Array) -> tuple:
        """(volume, int d_1 dV, ...): each one node-order sum over every node
        of weight * sqrt(det g) * density, bit-stable across runs, in the
        arrays' dtype.  A Poincare ball grid is refused: its chart covers a
        non-compact model, where a sum against the weights is no integral."""
        if self.domain.kind == POINCARE_BALL:
            raise GlobalIntegralUnsupportedError(
                "the Poincare ball chart covers a non-compact model: no global integrals"
            )
        measure = self.weights * sqrt_det
        return (np.sum(measure),) + tuple(np.sum(measure * d) for d in densities)


def _axis_rule(lo: float, hi: float, m: int, periodic: bool):
    if periodic:
        step = (hi - lo) / m
        x = lo + step * np.arange(m)
        w = np.full(m, step)
    else:
        x01, w01 = np.polynomial.legendre.leggauss(m)
        x = lo + (x01 + 1.0) * (hi - lo) / 2.0
        w = w01 * (hi - lo) / 2.0
    return x, w


def build_grid(domain: ChartDomain, resolution: Sequence[int] | int) -> QuadratureGrid:
    n = domain.dimension
    if isinstance(resolution, (int, np.integer)):
        resolution = (int(resolution),) * n
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != n:
        raise ConfigurationError("need one resolution entry per axis")
    if min(resolution) < MIN_RESOLUTION:
        raise ConfigurationError(
            f"resolution must be >= {MIN_RESOLUTION} per axis, got {resolution}"
        )
    gauss = max((m for m, per in zip(resolution, domain.periodic) if not per), default=0)
    if prod(resolution) > MAX_GRID_NODES or gauss > MAX_GAUSS_NODES:
        raise ConfigurationError(
            f"grid {resolution} is too large: at most {MAX_GRID_NODES} nodes and "
            f"{MAX_GAUSS_NODES} Gauss-Legendre nodes on a non-periodic axis"
        )
    axes, wts = [], []
    for (lo, hi), m, per in zip(domain.bounds, resolution, domain.periodic):
        x, w = _axis_rule(lo, hi, m, per)
        axes.append(x)
        wts.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*wts, indexing="ij")
    weights = np.ones(nodes.shape[0])
    for w in wmesh:
        weights = weights * w.ravel()
    return QuadratureGrid(domain, nodes, weights, resolution)


def sqrt_det_grid(field: MetricField, grid: QuadratureGrid) -> Array:
    """sqrt(det g) at every node (:func:`curvlab.tensors.volume_element`)."""
    return volume_element(field.eval_grid(grid.nodes))


def volume(field: MetricField, grid: QuadratureGrid) -> float:
    """Quadrature volume (:meth:`QuadratureGrid.integrals`)."""
    return float(grid.integrals(sqrt_det_grid(field, grid))[0])


def to_unit_volume(field: MetricField, grid: QuadratureGrid) -> MetricField:
    """Rescale by a constant so the quadrature volume is exactly 1."""
    v = volume(field, grid)
    return field.rescaled(v ** (-2.0 / field.dimension))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def positive_normal_power(x: float, p: int) -> bool:
    """True when x > 0 and x**p is a finite, normal float64: the range of a
    length (a radius, a step) whose p-th power a computation divides by."""
    with np.errstate(over="ignore", under="ignore"):
        y = np.float64(x) ** p
    return bool(x > 0 and np.isfinite(y) and y >= np.finfo(float).tiny)


def _finite_power(x: float, p: int) -> bool:
    """True when x**p is a finite float64 (it may underflow)."""
    with np.errstate(over="ignore", under="ignore"):
        return bool(np.isfinite(np.float64(x) ** p))


# built-in model kind -> sign of its sectional curvature
MODEL_CURVATURE_SIGN = {"torus": 0, "sphere": 1, "poincare": -1, "s3-euler": 1}


def _torus_model(n: int) -> MetricField:
    g = {(i, i): 1.0 for i in range(n)}
    return analytic_metric_field(torus_domain(n), g, lam=0.0, name=f"flat torus T^{n}")


def _sphere_model(n: int, radius: float) -> MetricField:
    # g_ii = r^2 sin^2 t_0 ... sin^2 t_(i-1)
    sin2 = [wave(m, q=3) * wave(m, q=3) for m in range(n)]
    g = {(i, i): reduce(mul, sin2[:i], _separable(radius**2)) for i in range(n)}
    return analytic_metric_field(
        sphere_domain(n), g, lam=1.0 / radius**2, name=f"round S^{n} r={radius:g}"
    )


def _poincare_model(n: int) -> MetricField:
    """g = 4 delta (1/u)^2, u = 1 - |x|^2: w = 1/u solves u w = 1 on the 1x1
    jet of u, written out, and w^2 is w's scalar jet times w
    (:func:`curvlab.tensors.jet_scale`)."""
    # d^2 u = -2 delta, packed: 1 on the multi-indices (i, i), 0 elsewhere
    diagonal = (_multi_index_counts(n, 2).max(axis=1) == 2).astype(float)

    def jet(X, order):
        N = X.shape[0]
        u = [1.0 - np.einsum("ai,ai->a", X, X), -2.0 * X, np.tile(-2.0 * diagonal, (N, 1))]
        u += [np.zeros((N,) + _packed_axes(n, k)) for k in range(3, order + 1)]
        u = [t.reshape((N, 1, 1) + t.shape[1:]) for t in u[: order + 1]]
        w = jet_solve(u, [np.ones((N, 1, 1))], "aij,ajk->aik")
        w2 = jet_scale([t[:, 0, 0] for t in w], w)
        g = [np.zeros((N, n * n) + t.shape[3:]) for t in w2]
        for out, t in zip(g, w2):
            out[:, :: n + 1] = 4.0 * t[:, 0]  # the diagonal, g_ii = 4 (1/u)^2
        return [out.reshape((N, n, n) + out.shape[2:]) for out in g]

    return MetricField(
        domain=poincare_domain(n), _jet=jet, lam=-1.0, name=f"Poincare ball chart n={n}"
    )


def _s3_euler_model(radius: float) -> MetricField:
    # g = (r^2 / 4) [[1, 0, 0], [0, 1, cos theta], [0, cos theta, 1]]
    c = radius**2 / 4
    g = {(0, 0): c, (1, 1): c, (2, 2): c, (1, 2): c * wave(0)}
    return analytic_metric_field(
        euler_su2_domain(), g, lam=1.0 / radius**2, name=f"round S^3 (Euler chart) r={radius:g}"
    )


def make_model(kind: str, n: int, radius: float = 1.0) -> MetricField:
    """Construct a built-in constant-curvature model metric: one of
    :data:`MODEL_CURVATURE_SIGN` (the unit torus, the Poincare ball chart,
    and spheres of radius r, whose sectional curvature 1/r^2 is stored on
    the returned field as ``lam``)."""
    if n < 2:
        raise UnsupportedModelError(f"models need dimension >= 2, got {n}")
    if kind not in MODEL_CURVATURE_SIGN:
        raise UnsupportedModelError(f"unknown model kind {kind!r}")
    if kind == "s3-euler" and n != 3:
        raise UnsupportedModelError("the SU(2) Euler chart requires n = 3")
    if kind in ("torus", "poincare"):
        if radius != 1.0:
            raise UnsupportedModelError(f"model {kind!r} takes no radius, got {radius}")
    elif not (positive_normal_power(radius, 2) and _finite_power(radius, 2 * n)):
        raise UnsupportedModelError(
            f"radius must be positive with radius**2 a finite normal float and "
            f"radius**{2 * n} (the size of det g) finite, got {radius}"
        )

    if kind == "torus":
        return _torus_model(n)
    if kind == "sphere":
        return _sphere_model(n, radius)
    if kind == "poincare":
        return _poincare_model(n)
    return _s3_euler_model(radius)


# ---------------------------------------------------------------------------
# Bi-invariant frame on the Euler S^3 chart
# ---------------------------------------------------------------------------


def milnor_coframe_exprs(radius: float = 1.0) -> list[list[Separable]]:
    """The bi-invariant orthonormal coframe in closed form: ``w[i][mu]`` is
    the :class:`~curvlab.fields.Separable` component of the i-th 1-form in
    (theta, phi, psi), from which invariant tensors get closed-form jets."""
    sin, cos = (lambda m: wave(m, q=3)), wave
    rows = (
        (sin(2), -1.0 * sin(0) * cos(2), 0.0),
        (cos(2), sin(0) * sin(2), 0.0),
        (0.0, cos(0), 1.0),
    )
    return [[radius / 2 * _separable(c) for c in row] for row in rows]


def milnor_coframe(points: Array, radius: float = 1.0) -> Array:
    """``W[a, i, mu]``: the components of the i-th coframe 1-form of
    :func:`milnor_coframe_exprs` at the points."""
    w = milnor_coframe_exprs(radius)
    jet = _separable_jet(3, {(i, mu): w[i][mu] for i in range(3) for mu in range(3)}, (3, 3), False)
    return jet(np.atleast_2d(np.asarray(points, dtype=float)), 0)[0]


def milnor_frame(points: Array, radius: float = 1.0) -> Array:
    """Left-invariant orthonormal frame on the Euler S^3 chart, dual to
    :func:`milnor_coframe`.

    Returns ``F[a, i, mu]``: chart components of the i-th frame vector field.
    The frame satisfies [X_1, X_2] = (2/r) X_3 (cyclically) and is orthonormal
    for the radius-r bi-invariant metric.
    """
    return np.linalg.inv(milnor_coframe(points, radius)).transpose(0, 2, 1)
