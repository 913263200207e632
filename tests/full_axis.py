"""Full-axis jets: the oracles the packed jet algebra is checked against.

A full-axis jet [T, dT, ..., d^m T] carries k trailing, symmetric derivative
axes at order k, as :meth:`curvlab.fields._TensorValuedField.jet` hands it
out.  :func:`jet_einsum`, :func:`jet_scale`, :func:`jet_solve`,
:func:`connection_jet` and :func:`covariant_jet` here take and return such
jets the way the package did before its pipeline ran on packed jets: every
input is packed on its sorted derivative multi-indices, the packed Leibniz
rule (or, for a scalar factor, the packed scalar product) runs once, and
every output is expanded to full axes again.  The forward substitution of
``jet_solve`` and ``connection_jet`` is mirrored step by step, S combined
on full axes and cut to the symmetric pairs i <= j here rather than read
through the package's index table.  :func:`jet_inverse`, the inverse jet
the package no longer builds, differentiates A A^-1 = 1 order by order.
The tests compare the packed pipeline with them bit for bit.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from curvlab.tensors import (
    _SLOTS,
    _leibniz,
    christoffel_combination,
    connection_arrays,
    contract,
    jet_scale as _packed_scale,
)


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


def jet_scale(f: list, T: list) -> list:
    n = T[1].shape[-1] if min(len(f), len(T)) > 1 else 0
    return expand_jet(_packed_scale(pack_jet(f), pack_jet(T)), n)


def jet_inverse(A: list) -> list:
    inv = [np.linalg.inv(A[0])]
    packed_A, packed_inv = pack_jet(A), inv[:]
    for k in range(1, len(A)):
        rest = _leibniz("aij,ajk->aik", (packed_A, packed_inv), k)
        packed_inv.append(-contract("aij,ajku->aiku", inv[0], rest))
        inv.append(expand(packed_inv[-1], k, A[1].shape[-1]))
    return inv


def _solve_spec(spec: str, tail: str) -> str:
    ins, out = spec.split("->")
    a, x = ins.split(",")
    return f"{a[0]}{a[2]}{a[1]},{out}{tail}->{x}{tail}"


def _substitute(A: list, B: list, X: list, spec: str, inv: np.ndarray) -> list:
    """Extend the packed jet X of A^-1 B to the order of the packed jet A."""
    for k in range(len(X), len(A)):
        rest = _leibniz(spec, (A, X), k)
        X.append(contract(_solve_spec(spec, "u"), inv, (B[k] if k < len(B) else 0.0) - rest))
    return X


def jet_solve(A: list, B: list, spec: str) -> list:
    inv = np.linalg.inv(A[0])
    X = _substitute(pack_jet(A), pack_jet(B), [contract(_solve_spec(spec, ""), inv, B[0])], spec, inv)
    return expand_jet(X, A[1].shape[-1])


def connection_jet(g: list) -> tuple[np.ndarray, np.ndarray, list]:
    n = g[0].shape[-1]
    i, j = np.triu_indices(n)  # the symmetric pairs in packed column order
    ginv, _, S, Gamma0 = connection_arrays(g[0], g[1])
    half = [pack(0.5 * christoffel_combination(d)[:, :, i, j], k) for k, d in enumerate(g[1:])]
    X = _substitute(pack_jet(g[:-1]), half, [Gamma0[:, :, i, j]], "alk,akp->alp", ginv)
    pairs = symmetric_index(n, 2)[0]
    return ginv, S, [Gamma0] + [expand(np.take(x, pairs, axis=2), k, n) for k, x in enumerate(X) if k]


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
    ``ricci_arrays`` gives them packed."""
    g = field.jet(X, order + 2)
    ginv, _, Gamma = connection_jet(g)
    c1 = [np.einsum("ajjp...->ap...", G) for G in Gamma]
    t3 = jet_einsum("apik,ap->aik", Gamma, c1, order=order)
    t4 = jet_einsum("apij,ajkp->aik", Gamma, Gamma, order=order)
    Ric = [
        np.einsum("ajikj...->aik...", dG) - np.einsum("ajijk...->aik...", dG) + p - q
        for dG, p, q in zip(Gamma[1:], t3, t4)
    ]
    R = [np.einsum("aii...->a...", Y) for Y in jet_solve(g[: order + 1], Ric, "aij,ajk->aik")]
    return g, [ginv], Gamma, Ric, R
