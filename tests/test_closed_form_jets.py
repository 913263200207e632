"""Every closed-form jet of the package against the sympy oracle.

The built-in fields' jets are sums of products of one-coordinate waves
(:class:`curvlab.fields.Separable`) or, for the Poincare ball, the jet
inverse of a quadratic; here each is compared with the partials sympy
differentiates and lambdifies from the same field's expression, at orders 0
to 5 and batches 1, 17 and 64, within 1e-14 of the size of each order: the
packed jet the field hands out, and its full-axis expansion by
:meth:`curvlab.fields._TensorValuedField.jet`.
"""

import functools

import numpy as np
import pytest
import sympy as sp

import sympy_oracle as oracle
from conftest import random_probes, s3_second_harmonic
from curvlab.charts import make_model, milnor_coframe_exprs
from curvlab.fields import (
    _SeparableJet,
    _sphere_embedding_jet,
    _TensorValuedField,
    euler_su2_domain,
    sphere_domain,
    torus_domain,
)
from curvlab.spectral import s3_invariant_tt
from curvlab.verify import s3_first_harmonic

RADIUS = 1.7
TOP = 5
BATCHES = (1, 17, 64)
TT_MODES = ((2.0, -1.0, -1.0), (0.5, 1.25, -1.75))


def _matrix(n, m):
    out = np.empty((n, n), dtype=object)
    for idx in np.ndindex(n, n):
        out[idx] = m[idx]
    return out


def _vector(rows):
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = rows[idx[0]][idx[1]]
    return out


# case -> (the closed-form jet, a thunk building the sympy oracle jet, domain)
CASES = {
    **{
        f"sphere-{n}": (
            lambda n=n: make_model("sphere", n, radius=RADIUS)._jet,
            lambda n=n: oracle._SympyJet(*_sym(oracle.sphere_metric(n, RADIUS), n), True),
            sphere_domain(n),
        )
        for n in (2, 3, 4, 5)
    },
    **{
        f"poincare-{n}": (
            lambda n=n: make_model("poincare", n)._jet,
            lambda n=n: oracle._SympyJet(*_sym(oracle.poincare_metric(n), n), True),
            make_model("poincare", n).domain,
        )
        for n in (3, 4)
    },
    "torus-3": (
        lambda: make_model("torus", 3)._jet,
        lambda: oracle._SympyJet(sp.symbols("x0:3"), _matrix(3, sp.eye(3)), True),
        torus_domain(3),
    ),
    "s3-euler": (
        lambda: make_model("s3-euler", 3, radius=RADIUS)._jet,
        lambda: oracle._SympyJet(*_sym(oracle.euler_su2_metric(RADIUS), 3), True),
        euler_su2_domain(),
    ),
    "coframe": (
        lambda: _SeparableJet(3, _coframe_entries(), (3, 3), symmetric=False),
        lambda: oracle._SympyJet(oracle.EULER, _vector(oracle.milnor_coframe(RADIUS)[1]), False),
        euler_su2_domain(),
    ),
    **{
        f"tt-{d}": (
            lambda d=d: s3_invariant_tt(d, radius=RADIUS)._jet,
            lambda d=d: oracle._SympyJet(*_sym(oracle.s3_invariant_tt(d, RADIUS), 3), True),
            euler_su2_domain(),
        )
        for d in TT_MODES
    },
    **{
        f"harmonic-{l}": (
            lambda l=l: (s3_first_harmonic, s3_second_harmonic)[l - 1]()._jet,
            lambda l=l: oracle._SympyJet(oracle.EULER, _scalar(oracle.s3_harmonic(l)[1]), False),
            euler_su2_domain(),
        )
        for l in (1, 2)
    },
    **{
        f"embedding-{n}": (
            lambda n=n: _sphere_embedding_jet(n, RADIUS),
            lambda n=n: oracle._SympyJet(*oracle.sphere_embedding(n, RADIUS), False),
            sphere_domain(n),
        )
        for n in (2, 3, 5)
    },
}


def _sym(coords_and_matrix, n):
    coords, m = coords_and_matrix
    return coords, _matrix(n, m)


def _scalar(expr):
    out = np.empty((), dtype=object)
    out[()] = expr
    return out


def _coframe_entries():
    w = milnor_coframe_exprs(RADIUS)
    return {(i, mu): w[i][mu] for i in range(3) for mu in range(3)}


@functools.lru_cache(maxsize=None)
def _oracle(case):
    return CASES[case][1]()


@pytest.mark.parametrize("case", list(CASES))
def test_closed_form_jet_matches_the_sympy_oracle(case):
    closed, _, domain = CASES[case]
    field = _TensorValuedField(domain, closed())
    # the size of each order: its largest entry over the largest batch, so
    # that a single node near a zero of the field does not set it
    scales = None
    for N in sorted(BATCHES, reverse=True):
        X = random_probes(domain, np.random.default_rng(N), count=N)
        for packed in (True, False):
            got = (field.packed_jet if packed else field.jet)(X, TOP)
            want = _oracle(case)(X, TOP, packed=packed)
            scales = scales or [float(np.max(np.abs(w))) for w in want]
            for k, (g, w) in enumerate(zip(got, want)):
                assert g.shape == w.shape and g.dtype == np.float64 and g.flags.c_contiguous
                assert np.max(np.abs(g - w)) <= 1e-14 * scales[k], (case, N, k, packed)


def test_jets_of_lower_orders_are_the_leading_orders():
    # a call's plan per order is fixed at construction: asking for fewer
    # orders returns the same bits
    jet = s3_invariant_tt(TT_MODES[1])._jet
    X = random_probes(euler_su2_domain(), np.random.default_rng(4), count=9)
    full = jet(X, 4)
    for order in range(4):
        assert all(np.array_equal(a, b) for a, b in zip(jet(X, order), full))
