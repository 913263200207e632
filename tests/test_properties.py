"""Identities that hold for every metric, checked on seeded random torus
metrics of dimension 3 to 5, each gated relative to the size of the terms it
compares."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.charts import build_grid
from curvlab.fields import random_torus_metric
from curvlab.functionals import Coefficients, evaluate
from curvlab.tensors import covariant_jet, curvature, ricci_arrays

dims = st.integers(3, 5)
seeds = st.integers(0, 2**32 - 1)


def _metric_and_nodes(n, seed, count=8):
    rng = np.random.default_rng(seed)
    return random_torus_metric(n, rng), rng.uniform(0.0, 1.0, (count, n))


@settings(max_examples=30, deadline=None)
@given(n=dims, seed=seeds)
def test_weyl_is_totally_trace_free(n, seed):
    field, X = _metric_and_nodes(n, seed)
    b = curvature(field, X)
    # W = Rm - (Ric o g)/(n-2) + R (g o g)/(2(n-1)(n-2)): roundoff of each
    # trace is relative to the terms of Rm and of its trace
    scale = n * np.abs(b.Rm4).max() * np.abs(b.ginv).max()
    assert scale > 1e-3
    for p, q in combinations(range(4), 2):
        slots = list("lijk")
        slots[p], slots[q] = "m", "r"
        out = "".join(c for c in slots if c not in "mr")
        trace = np.einsum(f"a{''.join(slots)},amr->a{out}", b.W, b.ginv)
        assert np.abs(trace).max() <= 1e-13 * scale, (p, q)


@settings(max_examples=30, deadline=None)
@given(n=dims, seed=seeds)
def test_contracted_second_bianchi_identity(n, seed):
    # nabla^i Ric_ij = d_j R / 2, from the exact order-1 jets of Ric and R
    field, X = _metric_and_nodes(n, seed)
    _, ginv, Gamma, Ric, R = ricci_arrays(field, X, order=1)
    DRic = covariant_jet(Ric, Gamma)[0]  # DRic[a,i,j,m] = nabla_m Ric_ij
    div = np.einsum("aim,aijm->aj", ginv[0], DRic)
    scale = np.einsum("aim,aijm->aj", np.abs(ginv[0]), np.abs(DRic)).max()
    assert scale > 1e-3
    assert np.abs(div - 0.5 * R[1]).max() <= 1e-13 * scale


@settings(max_examples=15, deadline=None)
@given(
    n=dims,
    seed=seeds,
    c=st.floats(0.05, 20.0),
    s=st.floats(-4.0, 4.0),
    tau=st.floats(-4.0, 4.0),
)
def test_functional_scaling_law(n, seed, c, s, tau):
    # F(c g) = c^((n-4)/2) F(g), term by term; the volume scales by c^(n/2)
    field = random_torus_metric(n, np.random.default_rng(seed))
    grid = build_grid(field.domain, 4)
    coeff = Coefficients(s, tau)
    scaled, base = evaluate(field.rescaled(c), grid, coeff), evaluate(field, grid, coeff)
    power = c ** ((n - 4) / 2)
    for name in ("Rquad", "rho", "S", "W"):
        want = power * getattr(base, name)
        assert abs(getattr(scaled, name) - want) <= 1e-12 * abs(want), name
    # F may cancel between its parts: gate it on their size
    size = power * (abs(base.Rquad) + abs(s * base.rho) + abs(tau * base.S))
    assert abs(scaled.F - power * base.F) <= 1e-12 * size
    assert abs(scaled.volume - c ** (n / 2) * base.volume) <= 1e-13 * c ** (n / 2) * base.volume
