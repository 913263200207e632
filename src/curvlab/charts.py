"""Model metrics, quadrature grids and volume integration.

Built-in models
---------------
``torus``     flat box torus, g = identity, curvature 0.
``sphere``    round S^n of radius r in angular coordinates
              (n-1 polar angles, one azimuth); sectional curvature 1/r^2.
``poincare``  Poincare ball chart g = 4 delta / (1-|x|^2)^2, curvature -1.
              Pointwise use only: the chart covers a non-compact model, so
              every integral operation refuses it.
``s3-euler``  round S^3 as SU(2) in z-y-z Euler angles (theta, phi, psi)
              with psi running over [0, 4 pi).  The bi-invariant frame is
              exposed through :func:`milnor_frame` / :func:`milnor_coframe`
              so left-invariant tensors can be written in chart components.

Sphere-type integrals use the angular chart (product-of-sines volume
element): one chart covers everything but a measure-zero set, and the polar
axes carry Gauss-Legendre nodes, which never touch the coordinate
singularities at theta in {0, pi}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import sympy as sp

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
    analytic_metric_field,
    euler_su2_domain,
    poincare_domain,
    sphere_domain,
    torus_domain,
)
from .tensors import volume_element

MIN_RESOLUTION = 4

_SPHERE_VOLUMES = {2: 4 * np.pi, 3: 2 * np.pi**2, 4: 8 * np.pi**2 / 3, 5: np.pi**3}


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature nodes with coordinate-measure weights.

    Weights carry only the coordinate measure; sqrt(det g) is applied by the
    integral operations.  Periodic axes use uniform open grids (trapezoidal
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
    return volume_element(field.metric_grid(grid.nodes))


def _require_quadrature(field: MetricField):
    # the Poincare chart covers a non-compact model; every other chart a closed one
    if field.domain.kind == POINCARE_BALL:
        raise GlobalIntegralUnsupportedError(
            f"{field.name}: chart covers a non-compact model; "
            "global integrals are not defined"
        )


def integrate_density(field: MetricField, grid: QuadratureGrid, density: Array) -> float:
    """Integral of a pointwise density against the Riemannian volume element.

    Uses numpy's pairwise summation over the fixed node ordering, so results
    are bit-stable across runs.
    """
    _require_quadrature(field)
    return float(np.sum(grid.weights * sqrt_det_grid(field, grid) * density))


def volume(field: MetricField, grid: QuadratureGrid) -> float:
    return integrate_density(field, grid, np.ones(grid.node_count))


def to_unit_volume(field: MetricField, grid: QuadratureGrid) -> MetricField:
    """Rescale by a constant so the quadrature volume is exactly 1."""
    v = volume(field, grid)
    return field.rescaled(v ** (-2.0 / field.dimension))


def exact_sphere_volume(n: int, radius: float = 1.0) -> float:
    if n not in _SPHERE_VOLUMES:
        from math import gamma

        return float(2 * np.pi ** ((n + 1) / 2) / gamma((n + 1) / 2) * radius**n)
    return float(_SPHERE_VOLUMES[n] * radius**n)


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


_MODEL_CACHE: dict[tuple, MetricField] = {}

# built-in model kind -> sign of its sectional curvature
MODEL_CURVATURE_SIGN = {"torus": 0, "sphere": 1, "poincare": -1, "s3-euler": 1}


def _torus_model(n: int, lengths: Sequence[float] | None) -> MetricField:
    dom = torus_domain(n, lengths)
    eye = np.eye(n)

    def jet(X, order):
        N = X.shape[0]
        flat = [np.zeros((N,) + (n,) * (2 + k)) for k in range(1, order + 1)]
        return [np.broadcast_to(eye, (N, n, n)).copy()] + flat

    return MetricField(
        domain=dom,
        _jet=jet,
        lam=0.0,
        name=f"flat torus T^{n}",
    )


def _sphere_model(n: int, radius: float) -> MetricField:
    dom = sphere_domain(n)
    coords = sp.symbols(f"t0:{n}")
    g = sp.zeros(n, n)
    prefactor = sp.Float(radius) ** 2
    for i in range(n):
        gi = prefactor
        for m in range(i):
            gi = gi * sp.sin(coords[m]) ** 2
        g[i, i] = gi
    return analytic_metric_field(
        dom,
        coords,
        g,
        lam=1.0 / radius**2,
        name=f"round S^{n} r={radius:g}",
    )


def _poincare_model(n: int) -> MetricField:
    dom = poincare_domain(n)
    coords = sp.symbols(f"x0:{n}")
    conf = 4 / (1 - sum(c**2 for c in coords)) ** 2
    g = sp.eye(n) * conf
    return analytic_metric_field(
        dom,
        coords,
        g,
        lam=-1.0,
        name=f"Poincare ball chart n={n}",
    )


def _euler_su2_exprs(radius: float):
    theta, phi, psi = sp.symbols("theta phi psi")
    r2 = sp.Float(radius) ** 2
    g = (r2 / 4) * sp.Matrix(
        [
            [1, 0, 0],
            [0, 1, sp.cos(theta)],
            [0, sp.cos(theta), 1],
        ]
    )
    return (theta, phi, psi), g


def _s3_euler_model(radius: float) -> MetricField:
    dom = euler_su2_domain()
    coords, g = _euler_su2_exprs(radius)
    return analytic_metric_field(
        dom,
        coords,
        g,
        lam=1.0 / radius**2,
        name=f"round S^3 (Euler chart) r={radius:g}",
    )


def make_model(
    kind: str,
    n: int,
    curvature: int | None = None,
    radius: float = 1.0,
    lengths: Sequence[float] | None = None,
) -> MetricField:
    """Construct a built-in constant-curvature model metric.

    ``curvature`` is an optional consistency check against the model family
    (0 torus, +1 spheres, -1 Poincare).  The actual sectional curvature of a
    radius-r sphere is 1/r^2 and is stored on the returned field.
    """
    if n < 2:
        raise UnsupportedModelError(f"models need dimension >= 2, got {n}")
    if kind not in MODEL_CURVATURE_SIGN:
        raise UnsupportedModelError(f"unknown model kind {kind!r}")
    sign = MODEL_CURVATURE_SIGN[kind]
    if curvature is not None and curvature != sign:
        raise UnsupportedModelError(
            f"model {kind!r} has curvature sign {sign}, not {curvature}"
        )
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

    key = (kind, n, radius, None if lengths is None else tuple(lengths))
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    if kind == "torus":
        field = _torus_model(n, lengths)
    elif kind == "sphere":
        field = _sphere_model(n, radius)
    elif kind == "poincare":
        field = _poincare_model(n)
    else:
        field = _s3_euler_model(radius)
    _MODEL_CACHE[key] = field
    return field


# ---------------------------------------------------------------------------
# Bi-invariant frame on the Euler S^3 chart
# ---------------------------------------------------------------------------


def milnor_frame(points: Array, radius: float = 1.0) -> Array:
    """Left-invariant orthonormal frame on the Euler S^3 chart.

    Returns ``F[a, i, mu]``: chart components of the i-th frame vector field.
    The frame satisfies [X_1, X_2] = (2/r) X_3 (cyclically) and is orthonormal
    for the radius-r bi-invariant metric.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    th, ps = X[:, 0], X[:, 2]
    sth, cth = np.sin(th), np.cos(th)
    sps, cps = np.sin(ps), np.cos(ps)
    F = np.zeros((X.shape[0], 3, 3))
    F[:, 0, 0] = sps
    F[:, 0, 1] = -cps / sth
    F[:, 0, 2] = cps * cth / sth
    F[:, 1, 0] = cps
    F[:, 1, 1] = sps / sth
    F[:, 1, 2] = -sps * cth / sth
    F[:, 2, 2] = 1.0
    return (2.0 / radius) * F


def milnor_coframe(points: Array, radius: float = 1.0) -> Array:
    """Dual coframe to :func:`milnor_frame`; ``W[a, i, mu]`` are the
    components of the i-th coframe 1-form."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    th, ps = X[:, 0], X[:, 2]
    sth, cth = np.sin(th), np.cos(th)
    sps, cps = np.sin(ps), np.cos(ps)
    W = np.zeros((X.shape[0], 3, 3))
    W[:, 0, 0] = sps
    W[:, 0, 1] = -sth * cps
    W[:, 1, 0] = cps
    W[:, 1, 1] = sth * sps
    W[:, 2, 1] = cth
    W[:, 2, 2] = 1.0
    return (radius / 2.0) * W


def milnor_coframe_exprs(radius: float = 1.0):
    """Sympy expressions for the coframe, used to build invariant tensors."""
    theta, phi, psi = sp.symbols("theta phi psi")
    r = sp.Float(radius)
    e1 = [sp.sin(psi), -sp.sin(theta) * sp.cos(psi), sp.Integer(0)]
    e2 = [sp.cos(psi), sp.sin(theta) * sp.sin(psi), sp.Integer(0)]
    e3 = [sp.Integer(0), sp.cos(theta), sp.Integer(1)]
    scaled = [[(r / 2) * c for c in row] for row in (e1, e2, e3)]
    return (theta, phi, psi), scaled
