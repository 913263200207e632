"""The sympy oracle for the package's closed-form jets.

:class:`_SympyJet` differentiates and lambdifies a sympy tensor expression
order by order; the builders below give the sympy expressions of every
built-in closed-form field, so the tests can compare each jet with an
independent symbolic route.  Nothing in ``src/curvlab`` imports sympy.
"""

from __future__ import annotations

import itertools

import numpy as np
import sympy as sp

from curvlab.errors import DimensionError
from curvlab.fields import MetricField, ScalarField, SymTensorField


class _SympyJet:
    """Partials of a sympy tensor expression, differentiated and lambdified
    order by order on first request (orders up to ``eager`` at once).

    Only unique components are kept: derivative indices are sorted, and so
    are the two component indices of a symmetric 2-tensor.  A call fills the
    unique columns of each order into one ``(N, ncols)`` float64 array (a
    column sympy folded to a constant arrives as a scalar and broadcasts)
    and gathers the full index set from it with ``np.take``, so every order
    comes back C-contiguous.  A packed call (``packed``, by default the one
    given at construction) gathers the derivative indices on their sorted
    multi-indices instead, one trailing axis per order, as a field's
    ``_jet`` hands them out.
    """

    def __init__(self, coords, exprs: np.ndarray, symmetric: bool, eager: int = 2, packed=False):
        self.coords = tuple(coords)
        self.shape = exprs.shape
        self.symmetric = symmetric
        self.packed = packed
        self._exprs = [
            {
                idx: sp.sympify(exprs[idx])
                for idx in np.ndindex(self.shape)
                if self._key(idx) == idx
            }
        ]
        self._fns: list = []
        self._index: dict = {}
        self._fn(eager)

    def _key(self, idx: tuple) -> tuple:
        comp, deriv = idx[: len(self.shape)], idx[len(self.shape) :]
        return (tuple(sorted(comp)) if self.symmetric else comp) + tuple(sorted(deriv))

    def _fn(self, k: int):
        """(lambdified unique components, their keys) of order k."""
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
            exprs = [self._exprs[m][key] for key in keys]
            self._fns.append((sp.lambdify(self.coords, exprs, modules="numpy"), keys))
        return self._fns[k]

    def _gather(self, k: int, packed: bool) -> np.ndarray:
        """The unique column of every full (or packed) index of order k."""
        if (k, packed) not in self._index:
            col = {key: c for c, key in enumerate(self._fn(k)[1])}
            n = len(self.coords)
            derivs = (
                list(itertools.combinations_with_replacement(range(n), k))
                if packed
                else list(np.ndindex((n,) * k))
            )
            index = np.array(
                [[col[self._key(comp + d)] for d in derivs] for comp in np.ndindex(self.shape)]
            )
            trailing = ((len(derivs),) if k else ()) if packed else (n,) * k
            self._index[k, packed] = index.reshape(self.shape + trailing)
        return self._index[k, packed]

    def __call__(self, X, order: int, packed: bool | None = None) -> list:
        packed = self.packed if packed is None else packed
        N = X.shape[0]
        args = [X[:, k] for k in range(X.shape[1])]
        out = []
        for k in range(order + 1):
            vals = self._fn(k)[0](*args)
            cols = np.empty((N, len(vals)))
            for c, v in enumerate(vals):
                cols[:, c] = v  # a constant column is a scalar and broadcasts
            # take keeps each node's components contiguous, unlike [:, index]
            out.append(np.take(cols, self._gather(k, packed), axis=1))
        return out


def _matrix_exprs(n: int, m: sp.Matrix) -> np.ndarray:
    exprs = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if i < j and sp.simplify(m[i, j] - m[j, i]) != 0:
                raise DimensionError("symmetric tensor expression is not symmetric")
            exprs[i, j] = m[i, j]
    return exprs


def sympy_metric_field(domain, coords, g_expr: sp.Matrix, **meta) -> MetricField:
    jet = _SympyJet(coords, _matrix_exprs(domain.dimension, g_expr), symmetric=True, packed=True)
    return MetricField(domain=domain, _jet=jet, **meta)


def sympy_sym_tensor_field(domain, coords, h_expr: sp.Matrix, name: str = "h") -> SymTensorField:
    jet = _SympyJet(coords, _matrix_exprs(domain.dimension, h_expr), symmetric=True, packed=True)
    return SymTensorField(domain=domain, _jet=jet, name=name)


def sympy_scalar_field(domain, coords, f_expr, name: str = "f") -> ScalarField:
    exprs = np.empty((), dtype=object)
    exprs[()] = sp.sympify(f_expr)
    jet = _SympyJet(coords, exprs, symmetric=False, packed=True)
    return ScalarField(domain=domain, _jet=jet, name=name)


# ---------------------------------------------------------------------------
# sympy expressions of the built-in closed-form fields
# ---------------------------------------------------------------------------

EULER = sp.symbols("theta phi psi")


def sphere_metric(n: int, radius: float):
    coords = sp.symbols(f"t0:{n}")
    g = sp.zeros(n, n)
    for i in range(n):
        g[i, i] = sp.Float(radius) ** 2 * sp.Mul(*(sp.sin(coords[m]) ** 2 for m in range(i)))
    return coords, g


def poincare_metric(n: int):
    coords = sp.symbols(f"x0:{n}")
    return coords, sp.eye(n) * 4 / (1 - sum(c**2 for c in coords)) ** 2


def euler_su2_metric(radius: float):
    theta = EULER[0]
    g = (sp.Float(radius) ** 2 / 4) * sp.Matrix(
        [[1, 0, 0], [0, 1, sp.cos(theta)], [0, sp.cos(theta), 1]]
    )
    return EULER, g


def milnor_coframe(radius: float):
    theta, _, psi = EULER
    rows = (
        [sp.sin(psi), -sp.sin(theta) * sp.cos(psi), sp.Integer(0)],
        [sp.cos(psi), sp.sin(theta) * sp.sin(psi), sp.Integer(0)],
        [sp.Integer(0), sp.cos(theta), sp.Integer(1)],
    )
    return EULER, [[sp.Float(radius) / 2 * c for c in row] for row in rows]


def s3_invariant_tt(d, radius: float):
    _, w = milnor_coframe(radius)
    h = sp.zeros(3, 3)
    for i in range(3):
        for mu in range(3):
            for nu in range(3):
                h[mu, nu] += sp.Float(d[i]) * w[i][mu] * w[i][nu]
    return EULER, h


def s3_harmonic(l: int):
    theta, phi, psi = EULER
    x1 = sp.cos(theta / 2) * sp.cos((phi + psi) / 2)
    return EULER, x1 if l == 1 else x1**2 - sp.Rational(1, 4)


def sphere_embedding(n: int, radius: float):
    coords = sp.symbols(f"t0:{n}")
    Y = np.empty(n + 1, dtype=object)
    for A in range(n + 1):
        expr = sp.Float(radius) * sp.Mul(*(sp.sin(coords[m]) for m in range(A)))
        Y[A] = expr * sp.cos(coords[A]) if A < n else expr
    return coords, Y
