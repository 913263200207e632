"""Quadrature evaluation of the quadratic curvature energies.

The total functional is  F = int |Rm|^2 + s int |Ric|^2 + tau int R^2,
reported together with the Weyl energy and the volume.  Reductions use
numpy's pairwise summation over a fixed node order, so reports are
bit-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .charts import QuadratureGrid, volume
from .errors import DimensionError, GlobalIntegralUnsupportedError
from .fields import Array, MetricField
from .tensors import CurvatureBundle, curvature_grid, norm2_04


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

    def to_json_dict(self, n=None, model=None, s=None, tau=None) -> dict:
        return {
            "n": n,
            "model": model,
            "s": s,
            "tau": tau,
            "W": self.W,
            "rho": self.rho,
            "S": self.S,
            "Rquad": self.Rquad,
            "F": self.F,
            "volume": self.volume,
        }

    def to_json(self, **meta) -> str:
        return json.dumps(self.to_json_dict(**meta), sort_keys=True)


def _integrals(
    field: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> tuple[dict, CurvatureBundle, Array]:
    """The quadrature sums of F and its parts, in the field's dtype (complex
    along a complex-step direction), with the bundle and the measure."""
    if not field.supports_global_quadrature:
        raise GlobalIntegralUnsupportedError(
            f"{field.name}: global integrals are not defined on this chart"
        )
    bundle = curvature_grid(field, grid.nodes)
    measure = grid.weights * bundle.sqrt_det
    densities = (bundle.normRm2, bundle.normRic2, bundle.R**2)
    rquad, rho, s_int = (np.sum(measure * d) for d in densities)
    total = rquad + coeff.s * rho + coeff.tau * s_int
    return dict(Rquad=rquad, rho=rho, S=s_int, F=total, volume=np.sum(measure)), bundle, measure


def evaluate(
    field: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> FunctionalReport:
    """Integrate the curvature invariants of the field over the grid."""
    sums, bundle, measure = _integrals(field, grid, coeff)
    # the Weyl tensor vanishes identically for n <= 3
    w_int = 0.0
    if field.dimension >= 4:
        w_int = float(np.sum(measure * norm2_04(bundle.W, bundle.ginv)))
    return FunctionalReport(W=w_int, **{k: float(v) for k, v in sums.items()})


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
