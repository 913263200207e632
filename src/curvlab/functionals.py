"""Quadrature evaluation of the quadratic curvature energies.

The total functional is  F = int |Rm|^2 + s int |Ric|^2 + tau int R^2,
reported together with the Weyl energy and the volume.  The curvature is
computed once per distinct node of the coordinates the metric reads, in
node blocks (:func:`curvlab.tensors.distinct_blocks`), which hand back
the per-node densities at every node; these are summed in one call of
:meth:`curvlab.charts.QuadratureGrid.integrals`, once over every node in
node order, never over partial sums per block.  Reports are
therefore bit-stable and depend neither on the block size nor on the
coordinates the metric reads.

A pass of F reads only the energies F weighs: int |Rm|^2 always, int
|Ric|^2 when s != 0 and int R^2 when tau != 0, so the complex-step
variations at s = tau = 0 never build Ric or R; :func:`evaluate` reports
every part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import QuadratureGrid
from .errors import DimensionError
from .fields import MetricField
from .tensors import curvature, distinct_blocks


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


# the per-node density of each energy, by its FunctionalReport name, in F's
# summation order
_DENSITIES = {
    "Rquad": lambda b: b.normRm2,
    "rho": lambda b: b.normRic2,
    "S": lambda b: b.R**2,
    "W": lambda b: b.normW2,
}


def _integrals(
    field: MetricField, grid: QuadratureGrid, coeff: Coefficients, every: bool = False
) -> dict:
    """The quadrature sums of F, the parts of F it reads and the volume, in
    the field's dtype: complex along a complex-step direction.

    F reads int |Rm|^2, int |Ric|^2 only when s != 0 and int R^2 only when
    tau != 0, so a complex-step pass at s = tau = 0 never builds Ric or R; a
    density nobody reads is never built.  With ``every``, all three parts
    are read and summed into F (in that order, added to int |Rm|^2), as
    :func:`evaluate` reports them, and int |W|^2 too for n >= 4."""
    reads = {"Rquad": True, "rho": every or coeff.s != 0, "S": every or coeff.tau != 0,
             "W": every and field.dimension >= 4}
    names = [k for k in _DENSITIES if reads[k]]

    def densities(Y):
        b = curvature(field, Y)
        return (b.sqrt_det, *(_DENSITIES[k](b) for k in names))

    volume, *parts = grid.integrals(*distinct_blocks(densities, grid.nodes, field.reads))
    sums = dict(zip(names, parts))
    F = sums["Rquad"]
    if "rho" in sums:
        F = F + coeff.s * sums["rho"]
    if "S" in sums:
        F = F + coeff.tau * sums["S"]
    return sums | {"F": F, "volume": volume}


def evaluate(
    field: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> FunctionalReport:
    """Integrate the curvature invariants of the field over the grid."""
    # the Weyl tensor vanishes identically for n <= 3
    sums = {"W": 0.0} | _integrals(field, grid, coeff, every=True)
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
