import dataclasses
import functools
import itertools
import operator
import warnings

import numpy as np
import pytest
import sympy as sp

import full_axis

from curvlab.charts import build_grid, make_model
from curvlab.errors import DegenerateMetricError, DimensionError, PreconditionError
from curvlab.fields import (
    CovectorField,
    SymTensorField,
    linear_combination_metric,
    random_torus_metric,
    random_sphere_sym_tensor,
    random_torus_sym_tensor,
    torus_domain,
    trig_sym_tensor_field,
)
from curvlab import fields, tensors
from curvlab.functionals import Coefficients, evaluate
from curvlab.spectral import s3_invariant_tt, torus_tt_mode
from curvlab.variations import COMPLEX_STEP
from curvlab.tensors import (
    MATMUL_MIN_BATCH,
    contract,
    covariant_derivative,
    curvature,
    delta_star,
    divergence,
    lichnerowicz,
    raise_all,
    space_form_deviation,
)

import sympy_oracle
from conftest import metric_as_sym_tensor, norm2_04, random_probes
from oracles import kulkarni_nomizu, rough_laplacian

RNG = np.random.default_rng(42)


def bundle_models():
    return [
        make_model("torus", 3),
        make_model("sphere", 3),
        make_model("sphere", 4),
        make_model("poincare", 3),
        make_model("s3-euler", 3),
    ]


def test_bundle_symmetries_on_models():
    for field in bundle_models():
        X = random_probes(field.domain, RNG, count=100)
        b = curvature(field, X)
        scale = max(1.0, np.abs(b.Rm4).max())
        # antisymmetry in each pair of slots (exact: Rm4 expands the pair
        # matrix M), pair symmetry, first Bianchi
        assert np.array_equal(b.Rm4, -np.einsum("alijk->alikj", b.Rm4))
        assert np.array_equal(b.Rm4, -np.einsum("alijk->ailjk", b.Rm4))
        assert np.abs(b.Rm4 - np.einsum("alijk->ajkli", b.Rm4)).max() / scale < 1e-14
        bianchi = (
            b.Rm4
            + np.einsum("alijk->aljki", b.Rm4)
            + np.einsum("alijk->alkij", b.Rm4)
        )
        assert np.abs(bianchi).max() / scale < 1e-14
        if b.W is not None:
            tr_w = np.einsum("alj,alijk->aik", b.ginv, b.W)
            assert np.abs(tr_w).max() < 1e-12


def _dgamma_route(g, dg, d2g):
    """(Rm13, Rm4, Ric, R) the classical way, the oracle for the bundle:
    the order-1 connection jet gives dGamma, R^l_ijk = d_j Gamma^l_ik -
    d_k Gamma^l_ij + Gamma^p_ik Gamma^l_jp - Gamma^p_ij Gamma^l_kp, lowered
    by g, and Ric_ik = R^j_ijk, from the full-axis metric jet."""
    ginv, _, (G, dG) = full_axis.connection_jet([g, dg, d2g])
    Rm13 = (
        np.einsum("alikj->alijk", dG)
        - dG
        + np.einsum("apik,aljp->alijk", G, G)
        - np.einsum("apij,alkp->alijk", G, G)
    )
    Ric = np.einsum("ajijk->aik", Rm13)
    return Rm13, np.einsum("alp,apijk->alijk", g, Rm13), Ric, np.einsum("aik,aik->a", ginv, Ric)


def _bundle_vs_dgamma_route(field, X, part=np.real):
    """Largest relative deviation of (Rm13, Rm4, Ric, R) from the oracle."""
    b = tensors.curvature_bundle(*field.packed_jet(X, 2))
    assert "Rm13" not in vars(b)  # raised from Rm4 only on demand
    want = _dgamma_route(*field.jet(X, 2))
    got = (b.Rm13, b.Rm4, b.Ric, b.R)
    return max(
        float(np.abs(part(x) - part(y)).max() / np.abs(part(y)).max()) for x, y in zip(got, want)
    )


@pytest.mark.parametrize("n", [3, 4])
def test_bundle_matches_dgamma_route_random_torus(n):
    pm = random_torus_metric(n, np.random.default_rng(20 + n))
    X = random_probes(pm.domain, np.random.default_rng(30 + n), count=200)
    assert _bundle_vs_dgamma_route(pm, X) <= 1e-13  # measured 5e-16


def test_bundle_matches_dgamma_route_complex_step_s3(sphere3):
    h = random_sphere_sym_tensor(3, np.random.default_rng(40))
    field = linear_combination_metric(sphere3, h, 1e-3j)
    X = random_probes(sphere3.domain, np.random.default_rng(41), count=200)
    assert _bundle_vs_dgamma_route(field, X, np.real) <= 1e-12  # measured 9e-15
    assert _bundle_vs_dgamma_route(field, X, np.imag) <= 1e-12  # measured 6e-15


def test_bundle_matches_dgamma_route_s5_probes():
    s5 = make_model("sphere", 5)
    X = random_probes(s5.domain, np.random.default_rng(50), count=200)
    assert _bundle_vs_dgamma_route(s5, X) <= 1e-12  # measured 3e-14 (R)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("step", [0.0, 1e-3j], ids=["real", "complex-step"])
def test_pair_matrix_matches_dgamma_route(n, step):
    # M[p, q] = R_{l_p i_p j_q k_q} over the sorted pairs, read from the
    # classical route on a generic metric and along a complex step
    rng = np.random.default_rng(70 + n)
    base = random_torus_metric(n, rng)
    field = linear_combination_metric(base, random_torus_sym_tensor(n, rng), step) if step else base
    X = random_probes(base.domain, rng, count=100)
    l, i = np.triu_indices(n, 1)
    want = _dgamma_route(*field.jet(X, 2))[1][:, l, i][:, :, l, i]
    got = tensors.curvature_bundle(*field.packed_jet(X, 2)).M
    assert got.shape == (100, len(l), len(l))
    for part in (np.real, np.imag) if step else (np.real,):
        assert np.abs(part(got) - part(want)).max() <= 1e-13 * np.abs(part(want)).max()


def test_weyl_complex_step_matches_central_difference(sphere4):
    # h is only chart-smooth, so the probes keep clear of the polar angles;
    # a random_sphere_sym_tensor direction changes W only at second order
    # on the round sphere, which would leave nothing to compare
    h = random_torus_sym_tensor(4, np.random.default_rng(60))
    X = random_probes(sphere4.domain, np.random.default_rng(61), count=100, margin=0.25)
    eps, t = 1e-20, 3e-5

    def W(s):
        return curvature(linear_combination_metric(sphere4, h, s), X).W

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning: W keeps its imaginary part
        dW = W(eps * 1j).imag / eps
    fd = (W(t) - W(-t)) / (2 * t)
    assert np.abs(fd).max() > 1.0
    assert np.abs(dW - fd).max() <= 1e-6 * np.abs(fd).max()  # measured 9e-8


def test_flat_torus_curvature_vanishes(torus3):
    b = curvature(torus3, [0.3, 0.7, 0.1])
    assert np.abs(b.Rm4).max() == 0.0
    assert np.abs(b.Ric).max() == 0.0
    assert b.R[0] == 0.0


def test_round_sphere_invariants(sphere3):
    X = random_probes(sphere3.domain, RNG, count=30)
    b = curvature(sphere3, X)
    assert np.abs(b.normRm2 - 12).max() < 1e-9
    assert np.abs(b.normRic2 - 12).max() < 1e-9
    assert np.abs(b.R - 6).max() < 1e-9
    assert np.abs(b.Ric - 2 * b.g).max() < 1e-9


def test_poincare_curvature(poincare3):
    b = curvature(poincare3, [0.1, 0.2, 0.0])
    assert np.abs(b.Ric + 2 * b.g).max() < 1e-9
    p4 = make_model("poincare", 4)
    b4 = curvature(p4, [0.1, 0.0, 0.0, 0.0])
    assert b4.R[0] == pytest.approx(-12.0, abs=1e-9)


def test_kulkarni_nomizu():
    g = np.eye(3)
    kn = kulkarni_nomizu(g, g)
    expected = 2 * (
        np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
    )
    assert np.array_equal(kn, expected)
    A = RNG.standard_normal((4, 4))
    A = A + A.T
    B = RNG.standard_normal((4, 4))
    B = B + B.T
    assert np.allclose(kulkarni_nomizu(A, B), kulkarni_nomizu(B, A))
    # the expansion of A wedge B + B wedge A against the four products
    four = sum(
        sign * np.einsum(spec, X, Y)
        for sign, spec in ((1, "ik,jl->ijkl"), (-1, "il,jk->ijkl"))
        for X, Y in ((A, B), (B, A))
    )
    assert np.abs(kulkarni_nomizu(A, B) - four).max() <= 1e-14 * np.abs(four).max()
    with pytest.raises(DimensionError):
        kulkarni_nomizu(np.eye(3), np.eye(4))


def test_space_form_is_half_kn(sphere3):
    X = random_probes(sphere3.domain, RNG, count=10)
    b = curvature(sphere3, X)
    assert np.abs(b.Rm4 - 0.5 * kulkarni_nomizu(b.g, b.g)).max() < 1e-10


def test_weyl_vanishes_on_space_forms_and_in_3d():
    s4 = make_model("sphere", 4)
    X = random_probes(s4.domain, RNG, count=20)
    b = curvature(s4, X)
    assert np.abs(b.W).max() < 1e-9
    pm3 = random_torus_metric(3, np.random.default_rng(1), amplitude=0.05)
    b3 = curvature(pm3, np.random.default_rng(2).uniform(0, 1, (20, 3)))
    assert np.abs(b3.W).max() == 0.0 and np.abs(b3.normW2).max() == 0.0
    b2 = curvature(make_model("sphere", 2), [1.0, 2.0])
    assert b2.W is None and b2.normW2 is None


def test_weyl_decomposition_identity_n4():
    pm = random_torus_metric(4, np.random.default_rng(7), amplitude=0.05)
    X = np.random.default_rng(8).uniform(0, 1, (40, 4))
    b = curvature(pm, X)
    w2 = norm2_04(b.W, b.ginv)
    assert np.array_equal(b.normW2, w2)  # W expands the pair matrix normW2 reads
    rhs = w2 + 2.0 * b.normRic2 - (1.0 / 3.0) * b.R**2
    rel = np.abs(b.normRm2 - rhs) / np.maximum(1.0, np.abs(b.normRm2))
    assert rel.max() < 1e-7


def test_covariant_derivative_flat_mode(torus3):
    A = np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 1.0], [0.0, 1.0, 1.0]])
    h = trig_sym_tensor_field(torus3.domain, [((1, 0, 0), A, np.zeros((3, 3)))])
    X = np.array([[0.13, 0.4, 0.9], [0.77, 0.2, 0.5]])
    Dh = covariant_derivative(torus3, h, X, order=1)
    expected = np.einsum(
        "a,ij,k->aijk",
        -2 * np.pi * np.sin(2 * np.pi * X[:, 0]),
        A,
        np.array([1.0, 0.0, 0.0]),
    )
    assert np.abs(Dh - expected).max() < 1e-12


def test_metric_compatibility():
    for field in bundle_models():
        X = random_probes(field.domain, RNG, count=10)
        Dg = covariant_derivative(field, metric_as_sym_tensor(field), X, order=1)
        assert np.abs(Dg).max() < 1e-9


def test_ricci_identity_on_round_s3(euler3):
    # S_ij,kl - S_ij,lk = S_pj R_pikl + S_ip R_pjkl on a random polynomial field
    th, ph, ps = sympy_oracle.EULER
    rngl = np.random.default_rng(5)
    c = rngl.uniform(-0.3, 0.3, size=9)
    hm = sp.Matrix(
        [
            [1 + c[0] * th**2, c[1] * th * ph, c[2] * ps],
            [c[1] * th * ph, 2 + c[3] * ps**2, c[4] * th],
            [c[2] * ps, c[4] * th, 1 + c[5] * th * ps],
        ]
    )
    h = sympy_oracle.sympy_sym_tensor_field(euler3.domain, (th, ph, ps), hm, name="poly probe")
    X = random_probes(euler3.domain, np.random.default_rng(6), count=8)
    D2 = covariant_derivative(euler3, h, X, order=2)
    b = curvature(euler3, X)
    hv = h.eval_grid(X)
    lhs = D2 - np.einsum("aijkl->aijlk", D2)
    s_up_left = np.einsum("apq,aqj->apj", b.ginv, hv)
    s_up_right = np.einsum("apq,aiq->aip", b.ginv, hv)
    rhs = np.einsum("apj,apikl->aijkl", s_up_left, b.Rm4) + np.einsum(
        "aip,apjkl->aijkl", s_up_right, b.Rm4
    )
    assert np.abs(lhs - rhs).max() < 1e-6


def _trace(field, h, X):
    """tr_g h = g^{ij} h_ij, g^-1 inverted from the metric's values."""
    return np.einsum("aij,aij->a", np.linalg.inv(field.eval_grid(X)), h.eval_grid(X))


def test_divergence_trace_delta_star(torus3, torus3_grid):
    # h = f g with f = cos(2 pi x1): (delta h)_j = -2 pi sin(2 pi x1) delta_j1
    f_amp = np.eye(3)
    h = trig_sym_tensor_field(torus3.domain, [((1, 0, 0), f_amp, np.zeros((3, 3)))])
    X = np.array([[0.2, 0.1, 0.8], [0.6, 0.9, 0.3]])
    dv = divergence(torus3, h, X)
    expected = np.einsum(
        "a,j->aj", -2 * np.pi * np.sin(2 * np.pi * X[:, 0]), np.array([1.0, 0, 0])
    )
    assert np.abs(dv - expected).max() < 1e-12
    assert np.abs(
        _trace(torus3, h, X) - 3 * np.cos(2 * np.pi * X[:, 0])
    ).max() < 1e-12

    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    assert np.abs(divergence(torus3, mode, torus3_grid.nodes)).max() < 1e-9
    assert np.abs(_trace(torus3, mode, torus3_grid.nodes)).max() < 1e-9


def test_divergence_adjoint_to_delta_star(torus3, torus3_grid):
    from curvlab.charts import sqrt_det_grid

    h = random_torus_sym_tensor(3, np.random.default_rng(9))
    w = 2 * np.pi * np.array([0.0, 1.0, 0.0])

    def om_jet(X, order):
        c, s = np.cos(X @ w), np.sin(X @ w)
        ev = np.stack([c, 0.2 * s, np.full(X.shape[0], 0.4)], axis=1)
        d1 = np.stack(
            [
                np.einsum("a,k->ak", -s, w),
                np.einsum("a,k->ak", 0.2 * c, w),
                np.zeros((X.shape[0], 3)),
            ],
            axis=1,
        )
        return [ev, d1][: order + 1]

    om = CovectorField(domain=torus3.domain, _jet=om_jet)
    X = torus3_grid.nodes
    g = torus3.eval_grid(X)
    gi = np.linalg.inv(g)
    meas = torus3_grid.weights * sqrt_det_grid(torus3, torus3_grid)
    ip1 = np.sum(
        meas * np.einsum("aij,ai,aj->a", gi, divergence(torus3, h, X), om.eval_grid(X))
    )
    hup = raise_all(h.eval_grid(X), gi, (0, 1))
    ip2 = np.sum(meas * np.einsum("aij,aij->a", delta_star(torus3, om, X), hup))
    assert abs(ip1 - ip2) < 1e-6


def test_lichnerowicz_flat_equals_rough(torus3):
    h = random_torus_sym_tensor(3, np.random.default_rng(12))
    X = np.random.default_rng(13).uniform(0, 1, (10, 3))
    assert np.abs(
        lichnerowicz(torus3, h, X) - rough_laplacian(torus3, h, X)
    ).max() < 1e-12


def test_einstein_gate_is_relative_to_the_curvature():
    # a round S^3 of radius 3e-5 has |R|/n = 2.2e9 and an Einstein defect of
    # 7e-6 from roundoff; an absolute 1e-6 gate refused it
    r = 3e-5
    small = make_model("sphere", 3, radius=r)
    X = random_probes(small.domain, np.random.default_rng(3), count=50)
    h = random_sphere_sym_tensor(3, np.random.default_rng(4), radius=r)
    assert np.isfinite(lichnerowicz(small, h, X)).all()
    pm = random_torus_metric(3, np.random.default_rng(35), amplitude=0.05)
    Y = np.random.default_rng(5).uniform(0, 1, (5, 3))
    with pytest.raises(PreconditionError, match="not Einstein"):
        lichnerowicz(pm, random_torus_sym_tensor(3, np.random.default_rng(6)), Y)


def test_lichnerowicz_invariant_mode(euler3):
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    X = random_probes(euler3.domain, np.random.default_rng(14), count=12)
    hv = h.eval_grid(X)
    assert np.abs(rough_laplacian(euler3, h, X) + 6 * hv).max() < 1e-8
    assert np.abs(lichnerowicz(euler3, h, X) + 12 * hv).max() < 1e-8


def test_lichnerowicz_requires_einstein():
    pm = random_torus_metric(3, np.random.default_rng(15), amplitude=0.08)
    h = random_torus_sym_tensor(3, np.random.default_rng(16))
    with pytest.raises(PreconditionError):
        lichnerowicz(pm, h, np.array([[0.2, 0.3, 0.4]]))


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_curvature_scaling(sphere3, c):
    X = random_probes(sphere3.domain, RNG, count=6)
    b1 = curvature(sphere3, X)
    b2 = curvature(sphere3.rescaled(c), X)
    assert np.allclose(b2.Rm4, c * b1.Rm4, rtol=1e-10, atol=1e-12)
    assert np.allclose(b2.normRm2, b1.normRm2 / c**2, rtol=1e-10)
    assert np.allclose(b2.R, b1.R / c, rtol=1e-10)


def test_rough_laplacian_sign_convention(torus3):
    # Laplacian of cos(2 pi x) modes is negative: -|2 pi k|^2
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    X = np.array([[0.1, 0.0, 0.0]])
    lap = rough_laplacian(torus3, mode, X)
    hv = mode.eval_grid(X)
    assert np.allclose(lap, -((2 * np.pi) ** 2) * hv, atol=1e-10)


def test_contracted_bianchi_hessian_on_generic_metric():
    # g^{ik} g^{jl} nabla_l nabla_k R_ij = (1/2) Lap R holds on every metric;
    # the perturbed torus is no space form, so the exact jets carry it
    from curvlab.tensors import covariant_hessian_blocks, ricci_arrays

    base = random_torus_metric(3, np.random.default_rng(44), amplitude=0.1)
    X = random_probes(base.domain, np.random.default_rng(45), count=300)

    def inner(Y):
        _, _, Gamma, Ric, R = ricci_arrays(base, Y, order=2)
        return Gamma, [Ric, R]

    ric_hess, r_hess = covariant_hessian_blocks(inner, X)
    gi = np.linalg.inv(base.eval_grid(X))
    lhs = np.einsum("aik,ajl,aijkl->a", gi, gi, ric_hess)
    rhs = 0.5 * np.einsum("akl,akl->a", gi, r_hess)
    assert np.abs(rhs).max() > 1.0  # the identity is not trivially 0 = 0
    assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(rhs).max()


# ---------------------------------------------------------------------------
# Jet algebra: the packed Leibniz rule against the full owner expansion
# ---------------------------------------------------------------------------


def _owner_leibniz(spec, jets, k):
    """The k-th partial of an einsum product as the sum, over all len(jets)^k
    ways of handing each derivative index to one factor, of the factors'
    full partials: the rule the packed products must reproduce."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    d = "uvwxyz"[:k]
    total = 0.0
    for owner in itertools.product(range(len(ins)), repeat=k):
        subs = [s + "".join(c for c, o in zip(d, owner) if o == f) for f, s in enumerate(ins)]
        orders = [owner.count(f) for f in range(len(ins))]
        if all(r < len(j) for r, j in zip(orders, jets)):
            factors = (j[r] for r, j in zip(orders, jets))
            total = total + np.einsum(",".join(subs) + "->" + out + d, *factors, optimize=True)
    return total


def _owner_inverse(A):
    inv = [np.linalg.inv(A[0])]
    for k in range(1, len(A)):
        rest = _owner_leibniz("aij,ajk->aik", (A, inv), k)
        inv.append(-np.einsum("aij,ajk...->aik...", inv[0], rest))
    return inv


def _random_symmetric_jet(rng, N, comp, n, order, dtype):
    """[T, dT, ..., d^order T] with random values on the sorted derivative
    multi-indices: (the packed jet, its full expansion to every permutation,
    exactly symmetric)."""
    packed = []
    for r in range(order + 1):
        width = len(list(itertools.combinations_with_replacement(range(n), r)))
        vals = rng.standard_normal((N, *comp) + ((width,) if r else ()))
        if dtype == complex:
            vals = vals + 1j * rng.standard_normal(vals.shape)
        packed.append(vals)
    return packed, full_axis.expand_jet(packed, n)


def _derivative_asymmetry(T, k):
    """max |T - T with two adjacent derivative axes swapped| over the last k
    axes: 0 for an exactly symmetric partial."""
    worst = 0.0
    for a in range(T.ndim - k, T.ndim - 1):
        worst = max(worst, float(np.max(np.abs(T - T.swapaxes(a, a + 1)), initial=0.0)))
    return worst


def _relative_error(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


JET_PRODUCTS = [
    # (spec, component shape of each factor): n stands for the dimension,
    # N for the ambient dimension n + 1
    ("aij,ajk->aik", ("nn", "nn")),  # a matrix product
    ("a,aij->aij", ("", "nn")),  # a scalar factor
    ("aAi,aAj->aij", ("Nn", "Nn")),  # the pullback's ambient index
    ("ai,aij,aj->a", ("n", "nn", "n")),  # three factors
]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_jet_einsum_matches_owner_expansion(n, dtype):
    rng = np.random.default_rng(10 * n + (dtype == complex))
    sizes = {"n": n, "N": n + 1}
    for N in (1, MATMUL_MIN_BATCH - 1, MATMUL_MIN_BATCH + 1, 64):
        for spec, comps in JET_PRODUCTS:
            packed, jets = zip(*(
                _random_symmetric_jet(rng, N, tuple(sizes[c] for c in comp), n, 4, dtype)
                for comp in comps
            ))
            got = tensors.jet_einsum(spec, *packed)
            for k, T in enumerate(got):
                want = _owner_leibniz(spec, jets, k)
                assert T.shape == full_axis.pack(want, k).shape and T.dtype == want.dtype
                T = full_axis.expand(T, k, n)
                assert _relative_error(T, want) <= 1e-13, (spec, N, k)
            assert np.array_equal(got[0], contract(spec, *(j[0] for j in jets)))
            # the full-axis route: the same bits on every sorted multi-index
            for k, F in enumerate(full_axis.jet_einsum(spec, *jets)):
                assert np.array_equal(got[k], full_axis.pack(F, k)), (spec, N, k)


# (subscripts, shape) of the tensors a scalar factor meets: a scalar, a
# covector, a 2-tensor and the pullback's (ambient, chart) matrix
SCALED_COMPONENTS = (("", ""), ("i", "n"), ("ij", "nn"), ("Ai", "Nn"))


def _partialwise_error(got, want):
    """max over the partials of |got - want| / max |want|, real and imaginary
    parts each against their own size (a complex step's imaginary part is
    eps times the size of its real part)."""
    return max(
        _relative_error(part(g), part(w))
        for g, w in zip(got, want)
        for part in ((np.real, np.imag) if np.iscomplexobj(w) else (np.real,))
        if np.any(part(w))
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("dtype", [float, complex])
def test_jet_scale_matches_the_leibniz_route(n, dtype):
    rng = np.random.default_rng(30 * n + (dtype == complex))
    sizes = {"n": n, "N": n + 1}
    for N in (1, MATMUL_MIN_BATCH - 1, MATMUL_MIN_BATCH + 1, 64):
        for sub, comp in SCALED_COMPONENTS:
            # complex times real, and complex times complex on the odd ranks
            T_dtype = dtype if len(sub) % 2 else float
            f = _random_symmetric_jet(rng, N, (), n, 4, dtype)[0]
            T = _random_symmetric_jet(rng, N, tuple(sizes[c] for c in comp), n, 4, T_dtype)[0]
            got = tensors.jet_scale(f, T)
            want = tensors.jet_einsum(f"a,a{sub}->a{sub}", f, T)
            assert [(g.shape, g.dtype) for g in got] == [(w.shape, w.dtype) for w in want]
            assert np.array_equal(got[0], f[0].reshape((N,) + (1,) * len(sub)) * T[0])
            assert _partialwise_error(got, want) <= 1e-15, (N, comp)
            # the order is that of the shorter jet
            assert len(tensors.jet_scale(f[:3], T)) == len(tensors.jet_scale(f, T[:3])) == 3
            assert all(np.array_equal(a, b) for a, b in zip(tensors.jet_scale(f, T[:3]), got))


SCALED_METRICS = [
    *(("torus", n) for n in range(2, 7)),
    *(("sphere", n) for n in range(2, 7)),
    *(("poincare", n) for n in range(2, 7)),
    ("s3-euler", 3),
]


def _separable_scalar(n):
    """f = 1/2 + cos(x^0) sin(2 x^1) cos(3 x^2) ... + cos(2 x^0) / 4, a
    separable scalar that every coordinate enters, and the function that
    writes it in sympy coordinates."""
    waves = [fields.wave(m, m + 1.0, 3 * (m % 2)) for m in range(n)]
    f = 0.5 + 0.25 * fields.wave(0, 2.0) + functools.reduce(operator.mul, waves)

    def expr(coords):
        terms = [sp.cos((m + 1) * c + 3 * (m % 2) * sp.pi / 2) for m, c in enumerate(coords)]
        return sp.Rational(1, 2) + sp.cos(2 * coords[0]) / 4 + sp.Mul(*terms)

    return f, expr


def _metric_exprs(kind, n):
    if kind == "torus":
        return sp.symbols(f"x0:{n}"), sp.eye(n)
    if kind == "sphere":
        return sympy_oracle.sphere_metric(n, 1.0)
    if kind == "poincare":
        return sympy_oracle.poincare_metric(n)
    return sympy_oracle.euler_su2_metric(1.0)


def _packed_oracle(coords, m, X, order):
    """The packed sympy jet of a symmetric matrix expression m at X."""
    n = len(coords)
    exprs = np.empty((n, n), dtype=object)
    for idx in np.ndindex(n, n):
        exprs[idx] = m[idx]
    return sympy_oracle._SympyJet(coords, exprs, True, eager=0, packed=True)(X, order)


@pytest.mark.parametrize("kind, n", SCALED_METRICS)
def test_jet_scale_of_a_separable_scalar_and_a_metric(kind, n):
    g = make_model(kind, n)
    f, f_expr = _separable_scalar(n)
    f = fields.analytic_scalar_field(g.domain, f)
    X = random_probes(g.domain, np.random.default_rng(n), count=MATMUL_MIN_BATCH + 1)
    fj, gj = f.packed_jet(X, 4), g.packed_jet(X, 4)
    # the real scalar and a complex step on it, 1 + i eps f, whose imaginary
    # part is eps f g: against the Leibniz route
    step = [(k == 0) + 1j * COMPLEX_STEP * t for k, t in enumerate(fj)]
    for scalar in (fj, step):
        for order in range(5):
            got = tensors.jet_scale(scalar[: order + 1], gj)
            want = tensors.jet_einsum("a,aij->aij", scalar[: order + 1], gj)
            assert len(got) == order + 1
            assert _partialwise_error(got, want) <= 1e-15, (order, scalar is step)
    # against sympy's partials of f g, from sympy's jets of f and g; sympy
    # takes seconds a case above n = 3, where the route above checks the folds
    if n > 3:
        return
    coords, g_expr = _metric_exprs(kind, n)
    scalar_jet = sympy_oracle.sympy_scalar_field(g.domain, coords, f_expr(coords))._jet(X, 4)
    want = _packed_oracle(coords, f_expr(coords) * g_expr, X, 4)
    got = tensors.jet_scale(scalar_jet, _packed_oracle(coords, g_expr, X, 4))
    assert _partialwise_error(got, want) <= 1e-15


def _identity_jet(N, m, dtype=float):
    """The order-0 jet of the identity: jet_solve(A, it) is the inverse jet."""
    return [np.tile(np.eye(m, dtype=dtype), (N, 1, 1))]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_jet_inverse_matches_owner_expansion(n, dtype):
    # the inverse jet as jet_solve(A, 1): forward substitution on B = 1
    rng = np.random.default_rng(20 * n + (dtype == complex))
    for N in (1, MATMUL_MIN_BATCH - 1, MATMUL_MIN_BATCH + 1, 64):
        packed, A = _random_symmetric_jet(rng, N, (n, n), n, 4, dtype)
        A[0] = packed[0] = A[0] + 2 * n * np.eye(n)  # well conditioned
        got = tensors.jet_solve(packed, _identity_jet(N, n, dtype), "aij,ajk->aik")
        want = _owner_inverse(A)
        assert np.array_equal(got[0], want[0])
        for k in range(1, 5):
            assert got[k].shape == full_axis.pack(want[k], k).shape, (N, k)
            assert _relative_error(full_axis.expand(got[k], k, n), want[k]) <= 1e-13, (N, k)
        # the full-axis inverse jet: the same bits on every sorted multi-index,
        # A^-1 (0 - rest) being -(A^-1 rest) exactly
        for k, F in enumerate(full_axis.jet_inverse(A)):
            assert np.array_equal(got[k], full_axis.pack(F, k)), (N, k)


def _polynomial_matrix_jet(rng, X, m, order):
    """Jet of A(x) = M0 + x_i M1_i + x_i x_j M2_ij / 2 + x_i x_j x_k M3_ijk / 6
    (m x m, coefficients symmetric in the coordinate indices), by hand."""
    n = X.shape[1]
    M0 = rng.standard_normal((m, m)) + 4 * np.eye(m)
    M1 = rng.standard_normal((m, m, n))
    M2 = rng.standard_normal((m, m, n, n))
    M3 = rng.standard_normal((m, m, n, n, n))
    M2 = (M2 + M2.swapaxes(2, 3)) / 2
    M3 = sum(np.transpose(M3, (0, 1) + p) for p in itertools.permutations((2, 3, 4))) / 6
    A3 = np.broadcast_to(M3, (len(X),) + M3.shape).copy()
    A2 = M2 + np.einsum("ijklp,ap->aijkl", M3, X)
    A1 = M1 + np.einsum("ijkl,al->aijk", M2, X) + np.einsum("ijklp,al,ap->aijk", M3, X, X) / 2
    A0 = (
        M0
        + np.einsum("ijk,ak->aij", M1, X)
        + np.einsum("ijkl,ak,al->aij", M2, X, X) / 2
        + np.einsum("ijklp,ak,al,ap->aij", M3, X, X, X) / 6
    )
    return [A0, A1, A2, A3][: order + 1]


def _inverse_by_partitions(A):
    """Partials of B = A^-1 to order 3 over the ordered set partitions of the
    derivative indices: d^k B = sum of (-1)^blocks B A_block1 B A_block2 B ..."""
    B = np.linalg.inv(A[0])

    def chain(*blocks):  # B A_b1 B A_b2 ... B, each A_b with its derivative axes last
        out, axes = B, ""
        for b in blocks:
            out = np.einsum(f"aij{axes},ajk{b}->aik{axes}{b}", out, A[len(b)])
            out = np.einsum(f"aij{axes}{b},ajk->aik{axes}{b}", out, B)
            axes += b
        return out

    def to(spec, T):  # derivative axes named by spec, reordered alphabetically
        return np.einsum(f"aij{spec}->aij{''.join(sorted(spec))}", T)

    d1 = -chain("p")
    d2 = -chain("pq") + chain("p", "q") + to("qp", chain("q", "p"))
    d3 = -chain("pqr")
    for one, two in (("r", "pq"), ("q", "pr"), ("p", "qr")):
        d3 = d3 + to(two + one, chain(two, one)) + to(one + two, chain(one, two))
    for perm in itertools.permutations("pqr"):
        d3 = d3 - to("".join(perm), chain(*perm))
    return [B, d1, d2, d3]


@pytest.mark.parametrize("m, n", [(1, 3), (2, 4)])
def test_jet_inverse_of_a_matrix_smaller_than_the_coordinate_count(m, n):
    # the derivative axes have n entries, the matrix m: 1x1 over 3
    # coordinates (the Poincare model's 1/u) and 2x2 over 4
    rng = np.random.default_rng(30 + n)
    X = rng.uniform(-0.3, 0.3, size=(5, n))
    A = _polynomial_matrix_jet(rng, X, m, 3)
    got = tensors.jet_solve(full_axis.pack_jet(A), _identity_jet(5, m), "aij,ajk->aik")
    got = full_axis.expand_jet(got, n)
    want = _inverse_by_partitions(A)
    for k in range(4):
        assert got[k].shape == (5, m, m) + (n,) * k
        assert _relative_error(got[k], want[k]) <= 1e-13, k
    # and the hand formula for 1/u, u = 1 - |x|^2: d2 = 2 delta/u^2 + 2 u_i u_j/u^3
    u = 1.0 - np.einsum("ai,ai->a", X, X)
    du, d2u = -2.0 * X, full_axis.pack(np.broadcast_to(-2.0 * np.eye(n), (5, n, n)), 2)
    u1 = [t.reshape((5, 1, 1) + t.shape[1:]) for t in (u, du, d2u)]
    w = tensors.jet_solve(u1, _identity_jet(5, 1), "aij,ajk->aik")
    hand = 2 * np.eye(n) / u[:, None, None] ** 2 + 2 * np.einsum("ai,aj->aij", du, du) / u[:, None, None] ** 3
    assert _relative_error(full_axis.expand(w[2][:, 0, 0], 2, n), hand) <= 1e-14
    assert _relative_error(w[1][:, 0, 0], -du / u[:, None] ** 2) <= 1e-15


def _inverse_jet(A):
    """The packed inverse jet, differentiating A A^-1 = 1 order by order: the
    route Gamma = g^-1 S / 2 and R = g^-1 Ric took before forward
    substitution, kept as their oracle."""
    inv = [np.linalg.inv(A[0])]
    for k in range(1, len(A)):
        rest = tensors._leibniz("aij,ajk->aik", (A, inv), k)
        inv.append(-contract("aij,ajku->aiku", inv[0], rest))
    return inv


def _relative_by_part(got, want):
    """_relative_error of the real part and, for complex arrays, of the
    imaginary part, each judged against its own size: a complex step keeps
    its derivative in the imaginary part, 1e-20 of the real one."""
    parts = (np.real, np.imag) if np.iscomplexobj(want) else (np.real,)
    return max(_relative_error(part(got), part(want)) for part in parts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_jet_solve_matches_the_inverse_jet_route(n, dtype):
    rng = np.random.default_rng(40 + 2 * n + (dtype == complex))
    for N in (1, MATMUL_MIN_BATCH + 1):
        A, _ = _random_symmetric_jet(rng, N, (n, n), n, 4, dtype)
        A[0] = A[0] + 2 * n * np.eye(n)  # well conditioned
        # the shapes of g Gamma = S/2 on full (i, j) and of g X = Ric
        for spec, inverse_spec, comp in (
            ("alk,akij->alij", "akl,alij->akij", (n, n, n)),
            ("aij,ajk->aik", "aji,aik->ajk", (n, n)),
        ):
            B, _ = _random_symmetric_jet(rng, N, comp, n, 4, dtype)
            got = tensors.jet_solve(A, B, spec)
            want = tensors.jet_einsum(inverse_spec, _inverse_jet(A), B)
            assert np.array_equal(got[0], want[0])
            for k in range(1, 5):
                assert got[k].shape == want[k].shape and got[k].dtype == want[k].dtype
                assert _relative_by_part(got[k], want[k]) <= 1e-13, (spec, N, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("step", [0.0, 1e-20j])
def test_gamma_and_scalar_jets_match_the_inverse_jet_route(n, step):
    # a perturbed round sphere, real or with a complex step along h: Gamma to
    # order 4 and R to order 2 against the inverse-jet route
    sphere = make_model("sphere", n)
    h = random_sphere_sym_tensor(n, np.random.default_rng(50 + n), amplitude=0.3)
    field = linear_combination_metric(sphere, h, 0.2 + step)
    X = random_probes(field.domain, np.random.default_rng(60 + n), count=MATMUL_MIN_BATCH + 1)
    g = field.packed_jet(X, 5)
    _, _, _, Gamma = tensors.connection_jet(g)
    S = [tensors.christoffel_combination(fields._split(d, k, n)) for k, d in enumerate(g[1:], 1)]
    want = tensors.jet_einsum("akl,alij->akij", _inverse_jet(g[:5]), S)
    for k in range(5):
        assert _relative_by_part(Gamma[k], 0.5 * want[k]) <= 1e-13, k
    _, _, _, Ric, R = tensors.ricci_arrays(field, X, order=2)
    want = tensors.jet_einsum("aik,aik->a", _inverse_jet(g[:3]), Ric)
    for k in range(3):
        assert _relative_by_part(R[k], want[k]) <= 1e-13, k


@pytest.mark.parametrize("count", [1, MATMUL_MIN_BATCH + 1, 96])
def test_connection_jet_order_0_is_connection_arrays(count):
    # bundles built from connection_jet's order 0 keep the bits of
    # curvature_bundle, which builds on connection_arrays
    e3 = make_model("s3-euler", 3)
    step = linear_combination_metric(e3, s3_invariant_tt((2.0, -1.0, -1.0)), 1e-20j)
    for field in (*bundle_models(), step):
        X = random_probes(field.domain, np.random.default_rng(count), count=count)
        g = field.packed_jet(X, 3)
        ginv, sqrt_det, S, Gamma = tensors.connection_jet(g)
        want = tensors.connection_arrays(g[0], g[1])
        assert all(np.array_equal(a, b) for a, b in zip((ginv, sqrt_det, S, Gamma[0]), want))
        assert len(Gamma) == 3


def test_pipeline_jet_partials_are_exactly_symmetric(pipeline_contractions):
    # the pipeline runs on packed jets, each partial stored once, and
    # expands none; the one expansion, a field's jet(), is exactly symmetric
    expansions, asymmetry = pipeline_contractions[2]
    assert expansions == {"pipeline": 0, "jet()": 5}
    assert asymmetry == 0.0


# ---------------------------------------------------------------------------
# contract: the batched-matmul kernel against np.einsum
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_contractions():
    """What the pipeline hands the jet algebra and the contraction kernel:
    curvature, Weyl and the functionals on S^4, the generic gradient
    ingredients on a perturbed torus, both identity suites, the pointwise
    operators and the sphere pullback jet.

    Returns ({(spec, ndims): operand shapes} of every contract call,
    {order: packed product specs of every Leibniz plan}, ({"pipeline": the
    number of packed partials expanded to full axes in the pipeline calls,
    "jet()": in the closing call of a field's jet()}, the largest asymmetry
    in its derivative axes of an expanded partial)).
    """
    from curvlab.fields import random_sphere_sym_tensor
    from curvlab.variations import (
        conformal_identity_suite,
        gradient_ingredients,
        tt_identity_suite,
    )
    from curvlab.verify import s3_first_harmonic

    seen, planned, asymmetry = {}, {}, [0.0]
    expansions, stage = {"pipeline": 0, "jet()": 0}, ["pipeline"]
    real, real_plan, real_expand = tensors.contract, tensors._leibniz_plan, fields._expand

    def spy(spec, *ops):
        shapes = tuple(np.shape(o) for o in ops)
        seen.setdefault((spec, tuple(len(x) for x in shapes)), shapes)
        return real(spec, *ops)

    def plan_spy(spec, k, n, tops):
        splits = real_plan(spec, k, n, tops)
        planned.setdefault(k, set()).update(packed_spec for _, packed_spec, _, _ in splits)
        return splits

    def expand_spy(P, k, n):
        out = real_expand(P, k, n)
        expansions[stage[0]] += 1
        asymmetry[0] = max(asymmetry[0], _derivative_asymmetry(out, k))
        return out

    rng = np.random.default_rng(3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors, "contract", spy)
        mp.setattr(tensors, "_leibniz_plan", plan_spy)
        mp.setattr(fields, "_expand", expand_spy)
        s4 = make_model("sphere", 4)
        evaluate(s4, build_grid(s4.domain, 4), Coefficients(1.0, 1.0))
        pm = random_torus_metric(3, rng)
        gradient_ingredients(pm, rng.uniform(0, 1, (20, 3)), use_structure=False)
        e3 = make_model("s3-euler", 3)
        grid = build_grid(e3.domain, 4)
        h = s3_invariant_tt((2.0, -1.0, -1.0))
        tt_identity_suite(e3, h, grid)
        conformal_identity_suite(e3, s3_first_harmonic(), grid)
        X = random_probes(e3.domain, rng, count=20)
        lichnerowicz(e3, h, X)
        divergence(e3, h, X)
        pullback = random_sphere_sym_tensor(3, rng)
        Y = random_probes(make_model("sphere", 3).domain, rng, 20)
        pullback.packed_jet(Y, 4)
        stage[0] = "jet()"
        pullback.jet(Y, 4)
    return seen, planned, (expansions, asymmetry[0])


def _per_node_error(spec, A, B):
    """max over nodes of |contract - einsum| / (|A_a| |B_a|)."""
    got = contract(spec, A, B)
    want = np.einsum(spec, A, B)
    assert got.shape == want.shape
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    scale = np.linalg.norm(A.reshape(len(A), -1), axis=1) * np.linalg.norm(
        B.reshape(len(B), -1), axis=1
    )
    return float(np.max(err / np.maximum(scale, 1e-300)))


def _strided(X):
    """The same array with the first component axis moved last in memory."""
    if X.ndim < 3:
        return X
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(X, 1, -1)), -1, 1)


# The contract specs the pipeline issues besides the packed Leibniz products:
# plain products, some of them also the order-0 terms of a jet product.
NON_JET_SPECS = {
    "aJj,aKLij->aJKLi", "aKk,aLijk->aKLij", "aLl,aijkl->aLijk", "aij,aIi->ajI",
    "aik,aik->a", "aikjl,akl->aij",
    "aiplk,ajplk->aij", "ajI,aJj->aIJ", "akl,aijkl->aij", "akl,alij->akij",
    "apl,aipjl->aij", "apq,apjq->aj", "apq,apq->a", "aqkl,aqij->aklij",
    # jet_solve's A_0^-1 at order 0 and on a packed order, g Gamma = S/2 on
    # the symmetric pairs p and g X = Ric
    "aji,aik->ajk", "aji,aiku->ajku", "akl,alpu->akpu",
}


def test_contract_matches_einsum_on_every_pipeline_spec(pipeline_contractions):
    seen, planned, _ = pipeline_contractions
    specs = {spec for spec, _ in seen}
    assert NON_JET_SPECS <= specs, NON_JET_SPECS - specs
    # the packed Leibniz products of every order 1-4 reach the kernel
    assert sorted(planned) == [1, 2, 3, 4]
    for k, packed in planned.items():
        assert packed <= specs, (k, packed - specs)
    rng = np.random.default_rng(5)
    two = {k: v for k, v in seen.items() if len(v) == 2}
    assert len(two) == len(seen)
    sizes = (1, MATMUL_MIN_BATCH - 1, MATMUL_MIN_BATCH + 1, 300)
    worst = 0.0
    for (spec, _), shapes in two.items():
        assert all(s.startswith("a") for s in spec.split("->")[0].split(",")), spec
        for N in sizes:
            A, B = (rng.standard_normal((N,) + sh[1:]) for sh in shapes)
            for a_op, b_op in ((A, B), (_strided(A), _strided(B))):
                worst = max(worst, _per_node_error(spec, a_op, b_op))
    assert worst < 1e-13


@pytest.mark.parametrize("m", range(5))
def test_contract_ellipsis_derivative_axes(m):
    # m trailing derivative axes, named with letters: a spec with "..."
    # takes the einsum fallback, so these reach the matmul kernel
    rng = np.random.default_rng(m)
    n, tail, T = 4, (4,) * m, "uvwx"[:m]
    for N in (1, MATMUL_MIN_BATCH - 1, MATMUL_MIN_BATCH + 1, 300):
        for spec, sa, sb in (
            (f"aij,ajk{T}->aik{T}", (n, n), (n, n) + tail),
            (f"aij{T},ajk->aik{T}", (n, n) + tail, (n, n)),
            (f"apm{T},aip->aim{T}", (n, n) + tail, (n, n)),
        ):
            A = rng.standard_normal((N,) + sa)
            B = rng.standard_normal((N,) + sb)
            if N >= MATMUL_MIN_BATCH:
                assert tensors._contract_plan(spec, (A.ndim, B.ndim)) is not None, spec
            assert _per_node_error(spec, A, B) < 1e-13
            assert _per_node_error(spec, _strided(A), _strided(B)) < 1e-13


def test_contract_falls_back_to_einsum():
    plan = tensors._contract_plan
    assert plan("ajjp->ap", (4,)) is None  # one operand
    assert plan("ajj,ajk->ak", (3, 3)) is None  # summed inside one operand
    assert plan("aij,ajk,akl->ail", (3, 3, 3)) is None  # three operands
    assert plan("aij,ajk...->aik...", (3, 5)) is None  # an ellipsis
    assert plan("aij,ajk->aik", (3, 3)) is not None
    rng = np.random.default_rng(0)
    A, B, C = (rng.standard_normal((40, 3, 3)) for _ in range(3))
    assert np.allclose(contract("aij,ajk,akl->ail", A, B, C), np.einsum("aij,ajk,akl->ail", A, B, C))
    assert np.allclose(contract("aij,ajj->ai", A, B), np.einsum("aij,ajj->ai", A, B))


def test_raise_all_matches_slot_by_slot():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((40, 4, 4)) + 4 * np.eye(4)  # not symmetric: fixes the convention
    T = rng.standard_normal((40, 4, 4, 4, 4))
    for slots in ((0, 1, 2, 3), (1, 2, 3), (2, 3), (1, 3), (1, 2), (0,), (3,)):
        want = T
        for s in slots:
            want = np.moveaxis(np.einsum("aip,a...p->a...i", G, np.moveaxis(want, s + 1, -1)), -1, s + 1)
        got = raise_all(T, G, slots)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    assert raise_all(T, G, (0, 1, 2, 3)).flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_norm2_04_matches_four_raised_slots(n):
    rng = np.random.default_rng(16 + n)
    A = rng.standard_normal((40, n, n))
    G = np.einsum("aij,akj->aik", A, A) + n * np.eye(n)
    T = rng.standard_normal((40, n, n, n, n))
    T = T - T.swapaxes(1, 2)
    T = T - T.swapaxes(3, 4)  # curvature type: antisymmetric in each pair
    want = np.einsum("aijkl,aijkl->a", T, raise_all(T, G, (0, 1, 2, 3)))
    assert np.abs(norm2_04(T, G) - want).max() <= 1e-13 * np.abs(want).max()
    # the (0,2) inner product of any two tensors, and the norm of a symmetric one
    S, T2 = rng.standard_normal((2, 40, n, n))
    want = np.einsum("aij,aij->a", S, raise_all(T2, G, (0, 1)))
    assert np.abs(tensors.inner_02(S, T2, G) - want).max() <= 1e-13 * np.abs(want).max()
    T2 = T2 + T2.swapaxes(1, 2)
    want = np.einsum("aij,aij->a", T2, raise_all(T2, G, (0, 1)))
    assert np.abs(tensors.norm2_02(T2, G) - want).max() <= 1e-13 * np.abs(want).max()


def test_weyl_on_demand_random_torus_n4():
    pm = random_torus_metric(4, np.random.default_rng(11))
    grid = build_grid(pm.domain, 4)
    b = curvature(pm, grid.nodes)
    assert "W" not in vars(b)  # the pipeline never builds W itself
    # the Weyl pair matrix of Rm4's own pairs, and the dense decomposition
    l, i = np.triu_indices(4, 1)
    W = tensors.weyl_pairs(b.Rm4[:, l, i][:, :, l, i], b.g, b.Ric, b.R, b.wedge2_g)
    W = tensors.expand_pairs(W, 4)
    assert np.abs(W).max() > 1e-2
    assert np.array_equal(b.W, W)
    R = b.R[:, None, None, None, None]
    dense = b.Rm4 - kulkarni_nomizu(b.Ric, b.g) / 2 + R / 12 * kulkarni_nomizu(b.g, b.g)
    assert np.abs(W - dense).max() <= 1e-13 * np.abs(W).max()
    assert b.W is b.W
    explicit = float(np.sum(grid.weights * np.sqrt(np.linalg.det(b.g)) * norm2_04(W, b.ginv)))
    assert evaluate(pm, grid, Coefficients()).W == pytest.approx(explicit, rel=1e-13, abs=0)


def test_space_form_deviation_against_dense_model(sphere4):
    pm = random_torus_metric(4, np.random.default_rng(12))
    X = random_probes(pm.domain, np.random.default_rng(13), count=3 * tensors.HESSIAN_BLOCK + 5)
    b = curvature(pm, X)
    # node by node
    dense = np.abs(b.Rm4 - 0.5 * kulkarni_nomizu(b.g, b.g)).max(axis=(1, 2, 3, 4))
    assert dense.max() > 1e-2  # not a space form
    assert space_form_deviation(b, 1.0) == pytest.approx(dense, rel=1e-14, abs=0)
    S = curvature(sphere4, random_probes(sphere4.domain, RNG, count=100))
    assert space_form_deviation(S, sphere4.lam).max() <= 1e-12


def test_space_form_deviation_equals_the_full_tensor_maximum(sphere4):
    # on the pairs, and bit for bit: Rm4 expands M exactly and the swapped
    # entries of the model are exact negations
    h = random_sphere_sym_tensor(4, np.random.default_rng(12))
    field = linear_combination_metric(sphere4, h, 0.05)
    b = curvature(field, random_probes(sphere4.domain, np.random.default_rng(13), count=200))
    lam = 0.7
    model = lam * (np.einsum("alj,aik->alijk", b.g, b.g) - np.einsum("alk,aij->alijk", b.g, b.g))
    dense = np.abs(b.Rm4 - model).max(axis=(1, 2, 3, 4))  # node by node
    assert dense.max() > 1e-2  # not a space form
    assert np.array_equal(space_form_deviation(b, lam), dense)


def test_space_form_deviation_keeps_a_nan(sphere4):
    # a NaN in the pair matrix the deviation reads must survive the maximum
    S = curvature(sphere4, random_probes(sphere4.domain, RNG, count=100))
    M = S.M.copy()
    M[1, 0, 1] = np.nan
    dev = space_form_deviation(dataclasses.replace(S, M=M), sphere4.lam)
    assert np.isnan(dev[1]) and not np.isnan(np.delete(dev, 1)).any()


def test_curvature_norms_are_computed_on_first_read(sphere4):
    b = curvature(sphere4, random_probes(sphere4.domain, np.random.default_rng(926), count=1)[0])
    assert "normRm2" not in vars(b) and "normRic2" not in vars(b)
    assert np.array_equal(b.normRm2, tensors._pair_norm2(b.M, b.wedge2_ginv))
    assert np.array_equal(b.normRic2, tensors.norm2_02(b.Ric, b.ginv))
    # the n^4 route sums in another order: equal to roundoff of |Rm|^2
    assert np.abs(b.normRm2 - norm2_04(b.Rm4, b.ginv)).max() <= 1e-14 * b.normRm2.max()
    assert "normRm2" in vars(b) and "normRic2" in vars(b)
    assert np.abs(b.normRm2 - 24).max() < 1e-9  # 2 n (n-1) on the unit S^4


@pytest.mark.parametrize("N", [1, 64])
def test_sympy_jet_matches_per_component_lambdify(N):
    # the Euler S^3 metric has constant components (1/4 and 0) at every order,
    # which lambdify returns as scalars; each must broadcast bitwise
    coords, g = sympy_oracle.euler_su2_metric(1.0)
    exprs = np.empty((3, 3), dtype=object)
    for i, j in np.ndindex(3, 3):
        exprs[i, j] = g[i, j]
    euler = make_model("s3-euler", 3)
    X = random_probes(euler.domain, np.random.default_rng(N), count=N)
    args = [X[:, k] for k in range(3)]
    jet = sympy_oracle._SympyJet(coords, exprs, symmetric=True)(X, 4)
    constant = 0
    for k, got in enumerate(jet):
        assert got.shape == (N, 3, 3) + (3,) * k
        assert got.dtype == np.float64 and got.flags.c_contiguous
        for idx in np.ndindex(got.shape[1:]):
            e = g[idx[0], idx[1]]
            for q in idx[2:]:
                e = sp.diff(e, coords[q])
            constant += e.is_constant()
            want = np.broadcast_to(np.asarray(sp.lambdify(coords, e, "numpy")(*args), float), (N,))
            assert np.array_equal(got[(slice(None),) + idx], want), (k, idx)
    assert constant > 0


def test_bundle_quadratic_contractions_random_torus_n4():
    pm = random_torus_metric(4, np.random.default_rng(14))
    b = curvature(pm, build_grid(pm.domain, 4).nodes)
    assert "A1" not in vars(b)  # built on first use
    gi, Rm, Ric = b.ginv, b.Rm4, b.Ric
    A1 = np.einsum("aiplk,ajqrs,apq,alr,aks->aij", Rm, Rm, gi, gi, gi, optimize=True)
    B = np.einsum("apq,alr,aqr,aipjl->aij", gi, gi, Ric, Rm, optimize=True)
    ric2 = np.einsum("aip,apq,aqj->aij", Ric, gi, Ric)
    for got, want in ((b.A1, A1), (b.B, B), (b.ric2, ric2)):
        assert np.abs(want).max() > 1e-3
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert b.A1 is b.A1


def test_christoffel_combination_matches_three_views():
    D = np.random.default_rng(15).standard_normal((20, 3, 3, 3, 3))
    want = (
        np.einsum("ajli...->alij...", D)
        + np.einsum("ailj...->alij...", D)
        - np.einsum("aijl...->alij...", D)
    )
    assert np.array_equal(tensors.christoffel_combination(D), want)


def test_node_blocks_keep_complex_fields(sphere3):
    # a complex-step metric g + i eps h: bundles built per node block must
    # keep the imaginary part of every array, bit for bit a whole pass's
    h = random_torus_sym_tensor(3, np.random.default_rng(43))
    field = linear_combination_metric(sphere3, h, 1e-3j)
    X = random_probes(sphere3.domain, np.random.default_rng(44), count=200)
    whole = tensors.curvature_bundle(*field.packed_jet(X, 2))
    # the norms are computed on first read, so fields() does not list them
    names = [f.name for f in dataclasses.fields(tensors.CurvatureBundle)]
    names += ["normRm2", "normRic2"]
    blocked = tensors.node_blocks(
        lambda Y: tuple(getattr(curvature(field, Y), k) for k in names), X, size=64
    )
    for name, a in zip(names, blocked):
        b = getattr(whole, name)
        assert a.dtype == b.dtype == complex, name
        assert np.array_equal(a, b), name
    assert np.abs(whole.R.imag).max() > 1e-4
    assert np.abs(whole.normRm2.imag).max() > 1e-4
    # the positivity test reads the real part of det g
    with pytest.raises(DegenerateMetricError):
        curvature(linear_combination_metric(sphere3, metric_as_sym_tensor(sphere3), -1 + 1j), X)


def _expanded_ricci(M, ginv):
    """Ric_ik = -g^{lj} R_ljik on the expanded Rm4 (the contracted slots
    adjacent): the route the bundle took before it read Ric off M."""
    return -np.einsum("alj,ailjk->aik", ginv, tensors.expand_pairs(M, ginv.shape[-1]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("step", [0.0, 1j * COMPLEX_STEP], ids=["random", "complex-step"])
def test_ricci_read_off_the_pair_matrix(n, step):
    rng = np.random.default_rng(90 + n)
    base = random_torus_metric(n, rng)
    field = linear_combination_metric(base, random_torus_sym_tensor(n, rng), step) if step else base
    b = curvature(field, random_probes(base.domain, rng, count=64))
    assert "Rm4" not in vars(b)
    want = _expanded_ricci(b.M, b.ginv)
    # read on the pairs i <= k only, so exactly symmetric
    assert np.array_equal(b.Ric, b.Ric.swapaxes(1, 2))
    for part in (np.real, np.imag) if step else (np.real,):
        assert np.abs(part(want)).max() > 0
        # measured 3.4e-16 (real parts) and 2.3e-16 (imaginary parts) at most
        assert np.abs(part(b.Ric) - part(want)).max() <= 1e-14 * np.abs(part(want)).max()


def test_the_functionals_and_the_curvature_check_never_expand_rm4(monkeypatch, sphere4):
    from curvlab import functionals, verify

    built = []

    def recording(field, X):
        built.append(curvature(field, X))
        return built[-1]

    monkeypatch.setattr(functionals, "curvature", recording)
    monkeypatch.setattr(verify, "curvature", recording)
    functionals._integrals(sphere4, build_grid(sphere4.domain, 6), Coefficients(1.0, 1.0), every=True)
    verify.curvature_case("sphere", 4)
    # one node block each: the S^4 grids have 216 and 512 distinct nodes
    assert len(built) == 2 and all("Rm4" not in vars(b) for b in built)


def test_the_readers_of_rm4_keep_their_values():
    # A1, B and the Lichnerowicz Laplacian read the Rm4 built on first read;
    # against a bundle holding the Ric and R of the expanded route, A1 keeps
    # its bits (it reads Rm4 only) and B and Lap_L h their values
    rng = np.random.default_rng(98)
    base, h = random_torus_metric(4, rng), random_torus_sym_tensor(4, rng)
    X = random_probes(base.domain, rng, count=64)
    hv, _, D2h, b = tensors.sym_tensor_cov_derivs(base, h, X)
    Ric = _expanded_ricci(b.M, b.ginv)
    # Ric and R are cached on first read: seed the expanded route's values
    old = dataclasses.replace(b)
    vars(old).update(Ric=Ric, R=np.einsum("aik,aik->a", b.ginv, Ric))
    assert np.array_equal(b.A1, old.A1)
    pairs = [(b.B, old.B)]
    pairs.append((tensors.lichnerowicz_arrays(hv, D2h, b), tensors.lichnerowicz_arrays(hv, D2h, old)))
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(b.Rm4, tensors.expand_pairs(b.M, 4)) and "Rm4" in vars(b)


def test_ricci_jets_invert_g_once_per_hessian_block(monkeypatch):
    field = random_torus_metric(3, np.random.default_rng(99))
    X = random_probes(field.domain, np.random.default_rng(100), count=3 * tensors.HESSIAN_BLOCK)
    inv, calls = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda A: calls.append(len(A)) or inv(A))
    jets = []

    def inner(Y):
        g, _, Gamma, Ric, R = tensors.ricci_arrays(field, Y, order=2)
        jets.append((g, Ric, R))
        return Gamma, [Ric, R]

    tensors.covariant_hessian_blocks(inner, X)
    assert calls == [tensors.HESSIAN_BLOCK] * 3
    # R solves on the inverse connection_jet made: the bits of its own inversion
    monkeypatch.setattr(np.linalg, "inv", inv)
    for g, Ric, R in jets:
        Y = tensors.jet_solve(g[:3], Ric, "aij,ajk->aik")
        assert all(np.array_equal(r, np.einsum("aii...->a...", y)) for r, y in zip(R, Y))
