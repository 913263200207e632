"""Quadrature evaluation of the quadratic curvature energies.

The total functional is  F = int |Rm|^2 + s int |Ric|^2 + tau int R^2,
reported together with the Weyl energy and the volume.  The curvature is
streamed over the grid in node blocks (:func:`curvlab.tensors.node_blocks`),
which hand back per-node densities; every sum runs once over the
concatenated densities, never over partial sums per block, with numpy's
pairwise summation in a fixed node order.  Reports are therefore bit-stable
and do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import QuadratureGrid, _require_quadrature, volume
from .errors import DimensionError
from .fields import MetricField
from .tensors import curvature_grid, node_blocks


@dataclass(frozen=True)
class Coefficients:
    """The weights (s, tau) of the Ricci and scalar-curvature terms."""

    s: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.s) and np.isfinite(self.tau)):
            raise DimensionError("coefficients must be finite")


@dataclass(frozen=True)
class FunctionalReport:
    W: float  # int |Weyl|^2
    rho: float  # int |Ric|^2
    S: float  # int R^2
    Rquad: float  # int |Rm|^2
    F: float
    volume: float


def _integrals(
    field: MetricField, grid: QuadratureGrid, coeff: Coefficients, weyl: bool = False
) -> dict:
    """The quadrature sums of F, its parts and the volume (with ``weyl``,
    also int |W|^2), in the field's dtype: complex along a complex-step
    direction."""
    _require_quadrature(field)

    def densities(Y):
        b = curvature_grid(field, Y)
        out = (b.sqrt_det, b.normRm2, b.normRic2, b.R**2)
        return out + (b.normW2,) if weyl else out

    sqrt_det, *parts = node_blocks(densities, grid.nodes)
    measure = grid.weights * sqrt_det
    sums = {k: np.sum(measure * d) for k, d in zip(("Rquad", "rho", "S", "W"), parts)}
    sums["F"] = sums["Rquad"] + coeff.s * sums["rho"] + coeff.tau * sums["S"]
    sums["volume"] = np.sum(measure)
    return sums


def evaluate(
    field: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> FunctionalReport:
    """Integrate the curvature invariants of the field over the grid."""
    # the Weyl tensor vanishes identically for n <= 3
    sums = {"W": 0.0} | _integrals(field, grid, coeff, weyl=field.dimension >= 4)
    return FunctionalReport(**{k: float(v) for k, v in sums.items()})


def decomposition_residual(field: MetricField, grid: QuadratureGrid) -> float:
    """Residual of int |Rm|^2 = int |W|^2 + 4/(n-2) int |Ric|^2
    - 2/((n-1)(n-2)) int R^2, relative to max(1, int |Rm|^2).

    n = 3 uses the W = 0 variant of the identity.
    """
    n = field.dimension
    if n < 3:
        raise DimensionError("decomposition identity requires n >= 3")
    rep = evaluate(field, grid, Coefficients())
    rhs = rep.W + 4.0 / (n - 2) * rep.rho - 2.0 / ((n - 1) * (n - 2)) * rep.S
    return abs(rep.Rquad - rhs) / max(1.0, rep.Rquad)


def scaling_check(
    field: MetricField,
    grid: QuadratureGrid,
    coeff: Coefficients,
    c: float,
) -> tuple[float, float, float]:
    """Compare F(c*g) with c^{(n-4)/2} F(g); returns (lhs, rhs, rel_err)."""
    if c <= 0:
        raise DimensionError("scale factor must be positive")
    n = field.dimension
    lhs = evaluate(field.rescaled(c), grid, coeff).F
    rhs = c ** ((n - 4) / 2.0) * evaluate(field, grid, coeff).F
    rel = abs(lhs - rhs) / max(1.0, abs(rhs))
    return lhs, rhs, rel


__all__ = [
    "Coefficients",
    "FunctionalReport",
    "evaluate",
    "decomposition_residual",
    "scaling_check",
    "volume",
]
