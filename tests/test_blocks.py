"""Whole-grid reductions streamed in node blocks: the results must not depend
on the block size, bit for bit, and no grid-sized curvature array may be
built on the way."""

import tracemalloc

import numpy as np
import pytest

from curvlab import fields, tensors, variations
from curvlab.charts import build_grid, make_model, to_unit_volume
from curvlab.fields import (
    analytic_metric_field,
    linear_combination_metric,
    random_torus_metric,
    random_torus_sym_tensor,
    torus_domain,
    wave,
)
from curvlab.functionals import Coefficients, _integrals, evaluate
from curvlab.spectral import rayleigh_lichnerowicz, s3_invariant_tt
from curvlab.variations import (
    COMPLEX_STEP,
    _gradient_pass,
    conformal_identity_suite,
    einstein_criticality_defect,
    el_residual,
    gradient_ingredients,
    tt_identity_suite,
)
from curvlab.verify import (
    curvature_case,
    gradient_case,
    hessian_case,
    identity_case,
    rayleigh_case,
    s3_first_harmonic,
)
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
        return Y[:, 0], np.full(len(Y), len(Y))

    nodes, block_size = tensors.node_blocks(fn, X, size=size)
    assert np.array_equal(nodes, X[:, 0])
    assert block_size.tolist() == [s for s in sizes for _ in range(s)] and sum(sizes) == N
    # the MATMUL_MIN_BATCH floor wins over a smaller size
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= max(size, 2 * tensors.MATMUL_MIN_BATCH - 1)
    if N >= tensors.MATMUL_MIN_BATCH:
        assert min(sizes) >= tensors.MATMUL_MIN_BATCH
    else:
        assert sizes == [N]


def _field_reading(count):
    """A metric on the 3-torus that reads its first ``count`` coordinates."""
    g11 = sum((wave(m, 2 * np.pi) for m in range(count)), 2.5)
    return analytic_metric_field(torus_domain(3), {(0, 0): 1.0, (1, 1): g11, (2, 2): 2.0})


@pytest.mark.parametrize("size", [tensors.GRID_BLOCK, SMALL_BLOCK])
@pytest.mark.parametrize("count", [0, 1, 2])  # of n = 3 coordinates
def test_distinct_blocks_hand_back_fn_of_every_node(count, size, monkeypatch):
    field = _field_reading(count)
    assert field.reads == tuple(range(count))
    X = build_grid(field.domain, (16, 8, 8)).nodes
    monkeypatch.setattr(tensors, "GRID_BLOCK", size)
    sizes = []

    def fn(Y):
        sizes.append(len(Y))
        b = tensors.curvature(field, Y)
        nan_at = np.where(b.R > 0, np.nan, b.normRm2)  # at the nodes where R > 0
        return (b.sqrt_det, b.M, b.Ric, *tensors.space_form_parts(b, 0.0), nan_at)

    want = fn(X)
    sizes.clear()
    got = tensors.distinct_blocks(fn, X, field.reads)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    assert count == 0 or np.isnan(got[-1]).any()
    # fn ran once per distinct node only, in blocks of at most size
    rows = tensors.distinct_nodes(X, field.reads)[0]
    assert sum(sizes) == len(X[rows]) < len(X) and max(sizes) <= size
    # self-check: a function reading a coordinate outside reads is not fn(X)
    leak = lambda Y: (Y[:, 2] + tensors.curvature(field, Y).sqrt_det,)
    assert not np.array_equal(tensors.distinct_blocks(leak, X, field.reads)[0], leak(X)[0])


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
    # 48 distinct nodes of the TT pass (h reads two coordinates): two blocks
    # of at most 40; the conformal suite's 210 seeded rows (6 values of the
    # one coordinate the base reads, 35 jet entries each) and 288 nodes
    # paired: six and eight blocks
    grid = build_grid(euler3.domain, (6, 6, 8))
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    for suite in (
        lambda: tt_identity_suite(euler3, h, grid),
        lambda: conformal_identity_suite(euler3, s3_first_harmonic(), grid),
    ):
        whole, small = _whole_and_small(monkeypatch, suite, grid.node_count)
        assert whole == small
        assert sum(c.rel_err > 0 for c in whole) >= 9  # roundoff: bits to lose


def test_the_gradient_pass_is_block_invariant(monkeypatch):
    # a generic torus metric reads every coordinate: its 512 distinct nodes
    # in one block, then in thirteen of at most 40
    base = random_torus_metric(3, np.random.default_rng(5), amplitude=0.08)
    grid = build_grid(base.domain, 8)
    unit = to_unit_volume(base, grid)
    coeff = Coefficients(0.5, -0.3)
    blocks, real = [], variations.gradient_ingredients

    def spy(field, Y, **kw):
        blocks.append(len(Y))
        return real(field, Y, **kw)

    monkeypatch.setattr(variations, "gradient_ingredients", spy)
    whole, small = _whole_and_small(
        monkeypatch, lambda: _gradient_pass(unit, grid, coeff), grid.node_count
    )
    assert blocks[0] == sum(blocks[1:]) == 512 and len(blocks) == 14
    assert whole.keys() == small.keys()
    for key in whole:
        assert np.array_equal(whole[key], small[key]), key
    assert whole["el_max"].min() > 0 and whole["c"] != 0  # not a critical metric: bits to lose
    residuals = _whole_and_small(
        monkeypatch, lambda: el_residual(unit, grid, coeff), grid.node_count
    )
    assert residuals[0] == residuals[1]
    # the torus-conformal case on fields reading every coordinate: its
    # 1,024 nodes in one block, then in 26
    every = property(lambda self: tuple(range(self.dimension)))
    monkeypatch.setattr(fields._TensorValuedField, "reads", every)
    blocks.clear()
    reports = _whole_and_small(
        monkeypatch, lambda: hessian_case("torus-conformal", coeff), 16 * 8 * 8
    )
    assert reports[0] == reports[1]
    assert blocks[0] == sum(blocks[1:]) == 1024 and len(blocks) == 27


def test_only_the_representatives_are_kept(monkeypatch):
    # what is kept per representative is made on the representatives that
    # nodes stand for, without distinct_nodes' padding to MATMUL_MIN_BATCH
    # rows: the flat torus reads no coordinate, the Euler S^3 its 8 values
    # of theta on the identity grid (16 and 23 rows with the padding)
    seen, real = [], tensors.representative_blocks

    def spy(kept, X, reads):
        def counted(Y):
            seen.append(len(Y))
            assert len(np.unique(Y[:, list(reads)], axis=0)) == len(Y), "a repeated row"
            return kept(Y)

        return real(counted, X, reads)

    monkeypatch.setattr(variations, "representative_blocks", spy)
    gradient_case("torus", 3, Coefficients(), count=1)
    identity_case("conformal")
    assert seen == [1, 8]


@pytest.mark.parametrize("model", ["torus", "s3"])
def test_gradient_case_is_block_invariant(model, monkeypatch):
    # the jet pairing runs its seeded (representative, jet entry) rows and
    # the grid's nodes in blocks of GRID_BLOCK: 60 and 1,000 of them on the
    # torus, 6,000 and 1,200 on S^3, in one to six blocks, then in 2 to 150
    coeff = Coefficients(-0.7, 0.4)
    whole, small = _whole_and_small(
        monkeypatch, lambda: gradient_case(model, 3, coeff, count=3, seed=4), tensors.GRID_BLOCK
    )
    assert whole == small
    assert model == "torus" or all(r["d1_numeric"] != 0 for r in whole)


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
# blocks of distinct nodes.  The TT suite streams its 128 distinct nodes in
# 96-node Hessian blocks of packed jets: 2.6 MiB.  The conformal suite runs
# its 280 seeded rows (8 representatives, 35 jet entries each) the same way
# and pairs them with f's jet over the 1,536 nodes in two blocks of 768:
# 5.2 MiB (5.6 MiB with one complex step per node, in blocks; 10.6 MiB with
# the complex-step curvature of all 1,536 nodes held at once).  The gradient
# checks' jet pairing runs its seeded rows in blocks and reads what it keeps
# per representative per node block: 8.3 MiB on the 4-torus (one
# representative; 12.3 MiB with the 16 rows of distinct_nodes' padding) and
# 4.4 MiB on S^3 (one complex step of F per direction peaked at 14.3 and 4.2
# MiB).  All seeded rows in one block took 30.9 and 24.5 MiB, and what is
# kept per representative gathered to every node 18.6 MiB on the 4-torus.
@pytest.mark.parametrize(
    "case, gate_mib",
    [
        (lambda: curvature_case("sphere", 5), 12.0),
        (lambda: rayleigh_case("s3-invariant"), 5.5),
        (lambda: identity_case("tt"), 3.5),
        (lambda: identity_case("conformal"), 8.0),
        (lambda: gradient_case("torus", 4, Coefficients(), count=2), 14.5),
        (lambda: gradient_case("s3", 3, Coefficients(), count=10), 5.0),
    ],
    ids=["curvature-sphere-5", "rayleigh-s3-invariant", "identity-tt", "identity-conformal",
         "gradient-torus-4", "gradient-s3"],
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
