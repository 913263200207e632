"""Full-axis jets: the oracles the packed jet algebra is checked against.

A full-axis jet [T, dT, ..., d^m T] carries k trailing, symmetric derivative
axes at order k, as :meth:`curvlab.fields._TensorValuedField.jet` hands it
out.  :func:`jet_einsum`, :func:`jet_inverse`, :func:`connection_jet` and
:func:`covariant_jet` here take and return such jets the way the package
did before its pipeline ran on packed jets: every input is packed on its
sorted derivative multi-indices, the packed Leibniz rule runs once, and
every output is expanded to full axes again.  The tests compare the packed
pipeline with them bit for bit.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from curvlab.tensors import _SLOTS, _leibniz, christoffel_combination, contract


def symmetric_index(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(the packed column of each full derivative index of order k, the flat
    position of each sorted multi-index, the first of its permutations)."""
    column = {alpha: c for c, alpha in enumerate(combinations_with_replacement(range(n), k))}
    expand = np.array([column[tuple(sorted(i))] for i in np.ndindex((n,) * k)]).reshape((n,) * k)
    return expand, np.unique(expand, return_index=True)[1]


def pack(T: np.ndarray, r: int) -> np.ndarray:
    """An order-r full-axis partial on its sorted derivative multi-indices."""
    if r < 2:
        return T
    flat = T.reshape(T.shape[: T.ndim - r] + (-1,))
    return np.take(flat, symmetric_index(T.shape[-1], r)[1], axis=-1)


def pack_jet(J: list) -> list:
    return [pack(T, r) for r, T in enumerate(J)]


def expand(P: np.ndarray, k: int, n: int) -> np.ndarray:
    """A packed order-k partial on its full symmetric derivative axes."""
    return P if k < 2 else np.take(P, symmetric_index(n, k)[0], axis=-1)


def expand_jet(J: list, n: int) -> list:
    return [expand(P, k, n) for k, P in enumerate(J)]


def _packed_product(spec: str, packed: list, order: int) -> list:
    return [contract(spec, *(j[0] for j in packed))] + [
        _leibniz(spec, packed, k) for k in range(1, order + 1)
    ]


def jet_einsum(spec: str, *jets: list, order: int | None = None) -> list:
    if order is None:
        order = min(len(j) for j in jets) - 1
    packed = [pack_jet(j[: order + 1]) for j in jets]
    n = jets[0][1].shape[-1] if order else 0
    return [expand(P, k, n) for k, P in enumerate(_packed_product(spec, packed, order))]


def jet_inverse(A: list) -> list:
    inv = [np.linalg.inv(A[0])]
    packed_A, packed_inv = pack_jet(A), inv[:]
    for k in range(1, len(A)):
        rest = _leibniz("aij,ajk->aik", (packed_A, packed_inv), k)
        packed_inv.append(-contract("aij,ajk...->aik...", inv[0], rest))
        inv.append(expand(packed_inv[-1], k, A[1].shape[-1]))
    return inv


def connection_jet(g: list) -> tuple[list, list, list]:
    ginv = jet_inverse(g[:-1])
    S = [christoffel_combination(d) for d in g[1:]]
    return ginv, S, [0.5 * G for G in jet_einsum("akl,alij->akij", ginv, S)]


def covariant_jet(T: list, Gamma: list) -> list:
    comp = _SLOTS[: T[0].ndim - 1]
    order = len(T) - 2
    factors = [pack_jet(J[: order + 1]) for J in (Gamma, T)]
    out = [pack(dT, k) for k, dT in enumerate(T[1:])]
    for s, c in enumerate(comp):
        spec = f"apm{c},a{comp[:s]}p{comp[s + 1:]}->a{comp}m"
        out = [o - x for o, x in zip(out, _packed_product(spec, factors, order))]
    return [expand(P, k, T[1].shape[-1]) for k, P in enumerate(out)]


def ricci_arrays(field, X: np.ndarray, order: int = 0):
    """Full-axis jets of (g, ginv, Gamma, Ric, R), as the package's
    ``ricci_arrays`` gave them before it ran on packed jets."""
    g = field.jet(X, order + 2)
    ginv, _, Gamma = connection_jet(g)
    c1 = [np.einsum("ajjp...->ap...", G) for G in Gamma]
    t3 = jet_einsum("apik,ap->aik", Gamma, c1, order=order)
    t4 = jet_einsum("apij,ajkp->aik", Gamma, Gamma, order=order)
    Ric = [
        np.einsum("ajikj...->aik...", dG) - np.einsum("ajijk...->aik...", dG) + p - q
        for dG, p, q in zip(Gamma[1:], t3, t4)
    ]
    R = jet_einsum("aik,aik->a", ginv, Ric)
    return g, ginv, Gamma, Ric, R
