"""Whole-grid reductions streamed in node blocks: the results must not depend
on the block size, bit for bit, and no grid-sized curvature array may be
built on the way."""

import tracemalloc

import numpy as np
import pytest

from curvlab import tensors
from curvlab.charts import build_grid, make_model
from curvlab.fields import linear_combination_metric, random_torus_metric, random_torus_sym_tensor
from curvlab.functionals import Coefficients, _integrals, evaluate
from curvlab.spectral import rayleigh_lichnerowicz, s3_invariant_tt
from curvlab.variations import (
    COMPLEX_STEP,
    conformal_identity_suite,
    einstein_criticality_defect,
    gradient_ingredients,
    tt_identity_suite,
)
from curvlab.verify import curvature_case, identity_case, rayleigh_case, s3_first_harmonic
from oracles import symmetrization_energies

SMALL_BLOCK = 40  # near-equal blocks of 40 or fewer, none below MATMUL_MIN_BATCH


def _whole_and_small(monkeypatch, fn, N):
    """fn() with every grid in one block of N nodes, then in small blocks."""
    out = []
    for size in (N, SMALL_BLOCK):
        monkeypatch.setattr(tensors, "GRID_BLOCK", size)
        out.append(fn())
    return out


@pytest.mark.parametrize("N", [0, 1, 15, 16, 17, 40, 41, 100, 1536])
@pytest.mark.parametrize("size", [16, 40, 64, 1024])
def test_node_blocks_cover_every_node_once_in_near_equal_blocks(N, size):
    X = np.arange(N, dtype=float)[:, None]
    sizes = []

    def fn(Y):
        sizes.append(len(Y))
        return Y[:, 0], [len(Y)]

    nodes, per_block = tensors.node_blocks(fn, X, size=size)
    assert np.array_equal(nodes, X[:, 0])
    assert per_block.tolist() == sizes and sum(sizes) == N
    # the MATMUL_MIN_BATCH floor wins over a smaller size
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= max(size, 2 * tensors.MATMUL_MIN_BATCH - 1)
    if N >= tensors.MATMUL_MIN_BATCH:
        assert min(sizes) >= tensors.MATMUL_MIN_BATCH
    else:
        assert sizes == [N]


def test_curvature_case_is_block_invariant(monkeypatch):
    res = (4, 4, 4, 6)
    whole, small = _whole_and_small(
        monkeypatch, lambda: curvature_case("sphere", 4, res=res), int(np.prod(res))
    )
    assert whole == small
    assert whole["max_ric_dev"] > 0  # roundoff, so the comparison has bits to lose


def test_rayleigh_is_block_invariant(monkeypatch, euler3):
    grid = build_grid(euler3.domain, (6, 6, 8))
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    whole, small = _whole_and_small(
        monkeypatch, lambda: rayleigh_lichnerowicz(euler3, h, grid), grid.node_count
    )
    assert (whole.energy, whole.norm2) == (small.energy, small.norm2)
    assert whole == small
    energies = _whole_and_small(
        monkeypatch, lambda: symmetrization_energies(euler3, h, grid), grid.node_count
    )
    assert energies[0] == energies[1]


def test_integrals_are_block_invariant_on_a_complex_step_metric(monkeypatch, sphere3):
    grid = build_grid(sphere3.domain, (5, 5, 8))
    h = random_torus_sym_tensor(3, np.random.default_rng(3))
    field = linear_combination_metric(sphere3, h, 1j * COMPLEX_STEP)
    coeff = Coefficients(0.7, -0.4)
    whole, small = _whole_and_small(
        monkeypatch, lambda: _integrals(field, grid, coeff), grid.node_count
    )
    assert whole.keys() == small.keys()
    for k in whole:
        assert whole[k] == small[k], k
    assert whole["F"].imag != 0


def test_weyl_energy_and_criticality_defect_are_block_invariant(monkeypatch):
    field = random_torus_metric(4, np.random.default_rng(8))
    grid = build_grid(field.domain, 5)
    whole, small = _whole_and_small(
        monkeypatch, lambda: evaluate(field, grid, Coefficients()), grid.node_count
    )
    assert whole == small and whole.W > 1e-3
    s4 = make_model("sphere", 4)
    grid = build_grid(s4.domain, (4, 4, 4, 6))
    defects = _whole_and_small(
        monkeypatch, lambda: einstein_criticality_defect(s4, grid), grid.node_count
    )
    assert defects[0] == defects[1]


def test_identity_suites_are_block_invariant(monkeypatch, euler3):
    # 48 distinct nodes of the TT pass (h reads two coordinates) and 288 of
    # the conformal one: two and eight blocks of at most 40
    grid = build_grid(euler3.domain, (6, 6, 8))
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    for suite in (
        lambda: tt_identity_suite(euler3, h, grid),
        lambda: conformal_identity_suite(euler3, s3_first_harmonic(), grid),
    ):
        whole, small = _whole_and_small(monkeypatch, suite, grid.node_count)
        assert whole == small
        assert sum(c.rel_err > 0 for c in whole) >= 9  # roundoff: bits to lose


def _traced_peak_mib(fn) -> float:
    fn()  # warms numpy and the jet plans' index tables, outside the measure
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Peaks measured on the default grids (numpy 2.4, one thread): 197.0 MiB and
# 91.6 MiB with one whole-grid curvature pass, 9.3 MiB and 4.2 MiB in node
# blocks of distinct nodes.  The identity suites stream their 1,536 distinct
# nodes in two blocks of 768, each cut into 96-node Hessian blocks of packed
# jets: TT 2.6 MiB, conformal 5.9 MiB (10.6 MiB with the complex-step
# curvature of all 1,536 nodes held at once).
@pytest.mark.parametrize(
    "case, gate_mib",
    [
        (lambda: curvature_case("sphere", 5), 12.0),
        (lambda: rayleigh_case("s3-invariant"), 5.5),
        (lambda: identity_case("tt"), 3.5),
        (lambda: identity_case("conformal"), 8.0),
    ],
    ids=["curvature-sphere-5", "rayleigh-s3-invariant", "identity-tt", "identity-conformal"],
)
def test_whole_grid_reductions_stay_below_their_memory_gate(case, gate_mib):
    assert _traced_peak_mib(case) <= gate_mib


def _ingredient_bits(field, X, sizes, monkeypatch):
    """gradient_ingredients' Lap Ric, Hess R and Lap R on its generic path
    with covariant_hessian_blocks in blocks of each size."""
    out = []
    for size in sizes:
        monkeypatch.setattr(tensors, "HESSIAN_BLOCK", size)
        ing = gradient_ingredients(field, X, use_structure=False)
        out.append([ing[k] for k in ("lap_ric", "hess_R", "lap_R")])
    return out


@pytest.mark.parametrize("complex_step", [False, True], ids=["s3-euler", "complex-step"])
def test_gradient_ingredients_are_hessian_block_invariant(monkeypatch, euler3, complex_step):
    # the S^3 Euler grid of the identity suites, real and along the suites'
    # complex step: the same bits at every block size, the whole grid included
    grid = build_grid(euler3.domain, (8, 12, 16))
    field = euler3
    if complex_step:
        h = s3_invariant_tt((2.0, -1.0, -1.0))
        field = linear_combination_metric(euler3, h, 1j * COMPLEX_STEP)
    sizes = (16, 64, tensors.HESSIAN_BLOCK, grid.node_count)
    results = _ingredient_bits(field, grid.nodes, sizes, monkeypatch)
    for size, result in zip(sizes[1:], results[1:]):
        for a, b in zip(results[0], result):
            assert a.dtype == b.dtype and np.array_equal(a, b), size
    lap_ric = results[0][0]
    # roundoff (real) or the complex step's imaginary part: bits to lose
    assert np.abs(lap_ric.imag if complex_step else lap_ric).max() > 0
