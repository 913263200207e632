"""Quadrature evaluation of the quadratic curvature energies.

The total functional is  F = int |Rm|^2 + s int |Ric|^2 + tau int R^2,
reported together with the Weyl energy and the volume.  The curvature is
computed once per distinct node of the coordinates the metric reads, in
node blocks (:func:`curvlab.tensors.distinct_blocks`), which hand back
per-node densities; these are gathered back to every node and summed in
one call of :meth:`curvlab.charts.QuadratureGrid.integrals`, once over
every node in node order, never over partial sums per block.  Reports are
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
from .tensors import CurvatureBundle, curvature, distinct_blocks


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
    field: MetricField,
    grid: QuadratureGrid,
    coeff: Coefficients,
    weyl: bool = False,
    every: bool = False,
) -> dict:
    """The quadrature sums of F, the parts of F it reads and the volume, in
    the field's dtype: complex along a complex-step direction.

    F reads int |Rm|^2, int |Ric|^2 only when s != 0 and int R^2 only when
    tau != 0 (:func:`_parts`), so a complex-step pass at s = tau = 0 never
    builds Ric or R; with ``every``, all three parts are read and summed
    into F (in that order, added to int |Rm|^2), as :func:`evaluate`
    reports them, and with ``weyl`` int |W|^2 too."""
    names = _parts(coeff, weyl, every)
    densities, at = distinct_blocks(
        lambda Y: _densities(curvature(field, Y), names), grid.nodes, field.reads
    )
    volume, *parts = grid.integrals(*(d[at] for d in densities))
    sums = dict(zip(names, parts))
    F = sums["Rquad"]
    if "rho" in sums:
        F = F + coeff.s * sums["rho"]
    if "S" in sums:
        F = F + coeff.tau * sums["S"]
    return sums | {"F": F, "volume": volume}


# the per-node density of each energy, by its FunctionalReport name
_DENSITIES = {
    "Rquad": lambda b: b.normRm2,
    "rho": lambda b: b.normRic2,
    "S": lambda b: b.R**2,
    "W": lambda b: b.normW2,
}


def _parts(coeff: Coefficients, weyl: bool = False, every: bool = False) -> tuple:
    """The energies a pass reads, in F's summation order: int |Rm|^2, then
    int |Ric|^2 and int R^2 when ``every`` or when F weighs them by a
    nonzero s or tau, then, with ``weyl``, int |W|^2."""
    reads = {"Rquad": True, "rho": every or coeff.s != 0, "S": every or coeff.tau != 0, "W": weyl}
    return tuple(k for k, read in reads.items() if read)


def _densities(b: CurvatureBundle, names: tuple) -> tuple:
    """Per node: sqrt(det g), then the density of each energy ``names``
    lists; a density nobody reads is never built."""
    return (b.sqrt_det,) + tuple(_DENSITIES[k](b) for k in names)


def evaluate(
    field: MetricField, grid: QuadratureGrid, coeff: Coefficients
) -> FunctionalReport:
    """Integrate the curvature invariants of the field over the grid."""
    # the Weyl tensor vanishes identically for n <= 3
    sums = {"W": 0.0} | _integrals(field, grid, coeff, weyl=field.dimension >= 4, every=True)
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
