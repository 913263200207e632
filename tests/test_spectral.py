import dataclasses

import numpy as np
import pytest

from curvlab import spectral
from curvlab.charts import build_grid, make_model, sqrt_det_grid
from curvlab.errors import (
    GlobalIntegralUnsupportedError,
    InvalidModeError,
    PreconditionError,
)
from curvlab.fields import (
    euler_su2_domain,
    poincare_domain,
    reads_of,
    random_torus_metric,
    random_torus_sym_tensor,
    torus_domain,
    trig_sym_tensor_field,
)
from curvlab.spectral import (
    rayleigh_lichnerowicz,
    s3_invariant_tt,
    torus_tt_mode,
    tt_defect,
)
from curvlab.tensors import covariant_derivative, distinct_nodes, lichnerowicz
from curvlab.variations import conformal_tensor
from curvlab.fields import cosine_scalar_field

import oracles
from conftest import metric_as_sym_tensor, random_probes
from oracles import rough_laplacian, symmetrization_energies

TWO_PI_SQ = 2 * np.pi**2


def test_torus_mode_constraints():
    with pytest.raises(InvalidModeError, match="transversality"):
        torus_tt_mode(3, (1, 0, 0), np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(InvalidModeError, match="trace"):
        torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, 1.0]))
    with pytest.raises(InvalidModeError, match="nonzero"):
        torus_tt_mode(3, (0, 0, 0), np.diag([0.0, 1.0, -1.0]))
    with pytest.raises(InvalidModeError, match="symmetric"):
        torus_tt_mode(3, (1, 0, 0), np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


def test_invariant_mode_constraints():
    with pytest.raises(InvalidModeError):
        s3_invariant_tt((1.0, 1.0, 1.0))
    with pytest.raises(InvalidModeError):
        s3_invariant_tt((0.0, 0.0, 0.0))


def test_invariant_mode_depends_only_on_coefficients_and_radius():
    # each call builds the mode afresh: equal coefficients give the same name
    # and the same jet bits, whatever sequence type carries them
    X = random_probes(euler_su2_domain(), np.random.default_rng(12), count=5)
    h = s3_invariant_tt((1.0, -2.0, 1.0))
    jet = h.jet(X, 3)
    for same in (s3_invariant_tt([1, -2, 1]), s3_invariant_tt(np.array([1.0, -2.0, 1.0]), radius=1.0)):
        assert same.name == h.name
        assert all(np.array_equal(a, b) for a, b in zip(same.jet(X, 3), jet))
    # h = sum d_i w^i w^i scales with r^2 (a power of 2 here, so exactly)
    wide = s3_invariant_tt((1.0, -2.0, 1.0), radius=2.0)
    assert all(np.array_equal(a, 4 * b) for a, b in zip(wide.jet(X, 3), jet))
    # -0.0 names the mode differently from 0.0; the field is the same
    plus, minus = s3_invariant_tt((1.0, 0.0, -1.0)), s3_invariant_tt((1.0, -0.0, -1.0))
    assert plus.name != minus.name
    assert all(np.array_equal(a, b) for a, b in zip(plus.jet(X, 2), minus.jet(X, 2)))
    # an invalid d is refused on every call
    for _ in range(2):
        with pytest.raises(InvalidModeError, match="trace"):
            s3_invariant_tt((1.0, -2.0, 2.0))
        with pytest.raises(InvalidModeError, match="three"):
            s3_invariant_tt((1.0, -1.0))


def test_torus_mode_is_tt(torus3, torus3_grid):
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    dd, dt = tt_defect(torus3, mode, torus3_grid)
    assert dd <= 1e-12 and dt == 0.0


def test_tt_defect_of_conformal_direction(torus3, torus3_grid):
    f = cosine_scalar_field(torus3.domain, (1, 0, 0))
    h = conformal_tensor(torus3, f)
    dd, dt = tt_defect(torus3, h, torus3_grid)
    assert dt == pytest.approx(3.0, abs=1e-12)  # n * max|f|


def test_invariant_mode_is_tt(euler3, euler3_grid):
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    dd, dt = tt_defect(euler3, h, euler3_grid)
    assert dd <= 1e-8 and dt <= 1e-12


def test_torus_rayleigh_quotient(torus3, torus3_grid):
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    rep = rayleigh_lichnerowicz(torus3, mode, torus3_grid)
    assert rep.quotient == pytest.approx((2 * np.pi) ** 2, abs=1e-6)
    assert rep.norm2 == pytest.approx(0.5 * 2, abs=1e-12)  # |A|^2 / 2


def test_torus_rayleigh_multimode():
    t4 = make_model("torus", 4)
    A = np.zeros((4, 4))
    A[2, 2], A[3, 3] = 1.0, -1.0
    mode = torus_tt_mode(4, (1, 1, 0, 0), A)
    grid = build_grid(t4.domain, 6)
    rep = rayleigh_lichnerowicz(t4, mode, grid)
    assert rep.quotient == pytest.approx(2 * (2 * np.pi) ** 2, rel=1e-10)


def test_s3_invariant_rayleigh(euler3):
    grid = build_grid(euler3.domain, 24)
    rep = rayleigh_lichnerowicz(euler3, s3_invariant_tt((2.0, -1.0, -1.0)), grid)
    assert abs(rep.quotient - 12.0) < 1e-3
    assert rep.norm2 == pytest.approx(6 * TWO_PI_SQ, rel=1e-10)
    rep2 = rayleigh_lichnerowicz(euler3, s3_invariant_tt((0.0, 1.0, -1.0)), grid)
    assert abs(rep2.quotient - 12.0) < 1e-3
    # Rayleigh quotient is scale invariant, energy is quadratic
    rep3 = rayleigh_lichnerowicz(
        euler3, s3_invariant_tt((3.0, 3.0, -6.0)), grid
    )
    rep1 = rayleigh_lichnerowicz(euler3, s3_invariant_tt((1.0, 1.0, -2.0)), grid)
    assert rep3.quotient == pytest.approx(rep1.quotient, abs=1e-10)
    assert rep3.energy == pytest.approx(9 * rep1.energy, rel=1e-10)


def test_rayleigh_refuses_non_tt(torus3, torus3_grid):
    h = random_torus_sym_tensor(3, np.random.default_rng(31))
    with pytest.raises(PreconditionError):
        rayleigh_lichnerowicz(torus3, h, torus3_grid)


def test_rayleigh_refuses_a_non_einstein_base(torus3_grid):
    base = random_torus_metric(3, np.random.default_rng(35), amplitude=0.05)
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    with pytest.raises(PreconditionError, match="not Einstein"):
        rayleigh_lichnerowicz(base, mode, torus3_grid)


def test_rayleigh_refuses_hyperbolic(poincare3):
    grid = build_grid(poincare3.domain, 4)
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    with pytest.raises(GlobalIntegralUnsupportedError):
        rayleigh_lichnerowicz(poincare3, mode, grid)


def test_flat_energy_via_rough_laplacian(torus3, torus3_grid):
    # with zero curvature the Lichnerowicz energy reduces to the rough one
    from curvlab.charts import sqrt_det_grid

    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    rep = rayleigh_lichnerowicz(torus3, mode, torus3_grid)
    X = torus3_grid.nodes
    meas = torus3_grid.weights * sqrt_det_grid(torus3, torus3_grid)
    lap = rough_laplacian(torus3, mode, X)
    hv = mode.eval_grid(X)
    energy = np.sum(meas * -np.einsum("aij,aij->a", lap, hv))
    assert abs(rep.energy - energy) < 1e-10


def test_symmetrization_energies(torus3, torus3_grid, euler3, euler3_grid):
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    cyc, anti = symmetrization_energies(torus3, mode, torus3_grid)
    assert cyc >= -1e-12 and anti >= -1e-12
    assert cyc == pytest.approx(3 * (2 * np.pi) ** 2, rel=1e-12)
    inv = s3_invariant_tt((2.0, -1.0, -1.0))
    cyc_s, anti_s = symmetrization_energies(euler3, inv, euler3_grid)
    assert abs(cyc_s) <= 1e-6  # equality case of the sphere bound
    assert anti_s >= -1e-12


def _distinct_count(grid, *fields) -> int:
    return len(grid.nodes[distinct_nodes(grid.nodes, reads_of(*fields))[0]])


def test_symmetrization_energies_take_one_cov_derivs_pass(
    monkeypatch, torus3, torus3_grid, euler3, euler3_grid
):
    inv = s3_invariant_tt((2.0, -1.0, -1.0))
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    cases = ((euler3, inv, euler3_grid), (torus3, mode, torus3_grid))
    # reference: the energies of the module formula from a separate pass
    want = []
    for base, h, grid in cases:
        Dh = covariant_derivative(base, h, grid.nodes, order=1)
        ginv = np.linalg.inv(base.eval_grid(grid.nodes))
        measure = grid.weights * sqrt_det_grid(base, grid)
        cyc = Dh + np.einsum("ajki->aijk", Dh) + np.einsum("akij->aijk", Dh)
        anti = Dh - np.einsum("aikj->aijk", Dh)
        want.append(tuple(
            float(np.sum(measure * np.einsum("aijk,aip,ajq,akr,apqr->a", T, ginv, ginv, ginv, T)))
            for T in (cyc, anti)
        ))
    # nodes per call: the distinct nodes of the coordinates base and h read
    # are streamed in blocks, each in one pass
    calls = []
    real = spectral.sym_tensor_cov_derivs

    def counted(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(spectral, "sym_tensor_cov_derivs", counted)
    monkeypatch.setattr(oracles, "sym_tensor_cov_derivs", counted)
    for (base, h, grid), (cyc, anti) in zip(cases, want):
        calls.clear()
        got = symmetrization_energies(base, h, grid)
        assert sum(calls) == _distinct_count(grid, base, h)
        assert got == pytest.approx((cyc, anti), rel=1e-12, abs=1e-12)
    calls.clear()
    with pytest.raises(PreconditionError, match="transverse-traceless"):
        symmetrization_energies(torus3, metric_as_sym_tensor(torus3), torus3_grid)
    assert sum(calls) == _distinct_count(torus3_grid, torus3)

    # the Rayleigh quotient and Lap_L build the curvature from the metric jet
    # of the covariant derivatives: one metric jet per node block, not two
    orders = []

    def counted_jet(X, order):
        orders.append(order)
        return euler3._jet(X, order)

    counting = dataclasses.replace(euler3, _jet=counted_jet)
    calls.clear()
    rayleigh_lichnerowicz(counting, inv, euler3_grid)
    assert sum(calls) == euler3_grid.node_count and len(calls) == 2
    assert orders == [2] * len(calls)
    orders.clear()
    lichnerowicz(counting, inv, euler3_grid.nodes[:5])
    assert orders == [2]


def test_sphere_bound(euler3):
    grid = build_grid(euler3.domain, (12, 12, 16))
    for d in ((2.0, -1.0, -1.0), (1.0, -3.0, 2.0), (0.0, 1.0, -1.0)):
        rep = rayleigh_lichnerowicz(euler3, s3_invariant_tt(d), grid)
        assert rep.quotient >= 4 * 3 - 1e-3


def test_the_tt_gate_is_relative_to_the_size_of_h(torus3, torus3_grid, euler3):
    # a scaled TT mode passes at every scale, with the raw defect maxima reported
    grid = build_grid(euler3.domain, 12)
    unit = rayleigh_lichnerowicz(euler3, s3_invariant_tt((2.0, -1.0, -1.0)), grid)
    for scale in (1e6, 1e150):
        rep = rayleigh_lichnerowicz(euler3, s3_invariant_tt((2 * scale, -scale, -scale)), grid)
        assert rep.quotient == pytest.approx(unit.quotient, rel=1e-12)
        assert rep.tt_defect_div > spectral.TT_TOL  # the absolute gate refused it
    # non-TT fields whose defects lie far below TT_TOL are still refused
    f = cosine_scalar_field(torus3.domain, (1, 0, 0))
    tiny = conformal_tensor(torus3, f).scaled(1e-12)
    assert max(tt_defect(torus3, tiny, torus3_grid)) < spectral.TT_TOL
    tiny_div = random_torus_sym_tensor(3, np.random.default_rng(31)).scaled(1e-12)
    for h in (tiny, tiny_div):
        with pytest.raises(PreconditionError, match="transverse-traceless"):
            rayleigh_lichnerowicz(torus3, h, torus3_grid)


def test_rayleigh_refuses_a_norm_outside_the_float_range(euler3):
    grid = build_grid(euler3.domain, 8)
    for d in ((1e-200, -1e-200, 0.0), (1e300, -5e299, -5e299)):
        with pytest.raises(PreconditionError, match="float range"):
            rayleigh_lichnerowicz(euler3, s3_invariant_tt(d), grid)


def test_torus_modes_take_integer_wave_vectors_float64_holds():
    A = np.diag([0.0, 1.0, -1.0])
    for k in ((0.5, 0, 0), (2**53 + 1, 0, 0), (10**20, 0, 0), (np.nan, 0, 0), (np.inf, 0, 0)):
        with pytest.raises(InvalidModeError, match="integers"):
            torus_tt_mode(3, k, A)
    assert torus_tt_mode(3, (2**53, 0, 0), A).name == f"torus TT mode k={[2**53, 0, 0]}"
    assert torus_tt_mode(3, (-3.0, 0, 0), A).name == "torus TT mode k=[-3, 0, 0]"
    # the expected quotient (2 pi)^2 |k|^2 of a large k: an int64 dot overflowed
    from curvlab.verify import rayleigh_case

    _, meta = rayleigh_case("torus-tt", res=4, k=(2**40, 0, 0))
    assert meta["expected_quotient"] == (2 * np.pi) ** 2 * 2.0**80


def test_torus_plane_waves_take_integer_wave_vectors_float64_holds():
    # a plane wave of another k is not periodic on the unit torus, so its
    # grid sums are no integrals; k = NaN gave NaN jets and k = inf a numpy
    # RuntimeWarning.  Off the torus k need only be finite
    A, Z = np.diag([0.0, 1.0, -1.0]), np.zeros((3, 3))
    torus, poincare = torus_domain(3), poincare_domain(3)
    X = np.array([[0.1, 0.2, 0.05]])
    for build in (lambda d, k: trig_sym_tensor_field(d, [(k, A, Z)]), cosine_scalar_field):
        for k in ((0.5, 0, 0), (2**53 + 1, 0, 0), (np.nan, 0, 0), (np.inf, 0, 0)):
            with pytest.raises(InvalidModeError, match="integers"):
                build(torus, k)
        for k in ((np.nan, 0, 0), (0, -np.inf, 0)):
            with pytest.raises(InvalidModeError, match="finite"):
                build(poincare, k)
        for domain, k in ((torus, (2**53, -3, 0)), (poincare, (1, 0, 0)), (poincare, (0.5, 0, 0))):
            assert all(np.isfinite(d).all() for d in build(domain, k).packed_jet(X, 2))
