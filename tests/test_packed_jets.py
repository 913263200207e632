"""Packed jets end to end, against the full-axis route.

Fields hand out packed jets (each order-k partial once per sorted derivative
multi-index) and the pipeline takes and returns them; ``jet()`` is the one
full-axis expansion.  Here every combined field kind's ``jet()`` is checked,
at orders 0 to 5, against the same field built on full derivative axes with
the full-axis jet algebra of ``full_axis`` (the separable kinds are checked
against the sympy oracle in ``test_closed_form_jets``), and the pipeline's
packed Ricci and covariant jets against the full-axis ones, bit for bit.
"""

import math
import sys
import threading

import numpy as np
import pytest

import full_axis
from conftest import random_probes
from curvlab import tensors
from curvlab.charts import make_model
from curvlab.fields import (
    _shared_separable_jet,
    _sphere_embedding_jet,
    _TensorValuedField,
    cosine_scalar_field,
    linear_combination_metric,
    random_sphere_sym_tensor,
    random_torus_metric,
    random_torus_sym_tensor,
    torus_domain,
)
from curvlab.spectral import s3_invariant_tt, torus_tt_mode
from curvlab.variations import COMPLEX_STEP, conformal_tensor
from curvlab.verify import s3_first_harmonic

TOP = 5


def _full_waves(X, waves, order):
    """sum_m C_m cos(x.w_m) + S_m sin(x.w_m) on full derivative axes, the
    powers of w as outer products.  Each order sums its terms as the package
    does, in one matrix product of the (cos, sin) terms of every wave with
    the amplitudes (C_1, S_1, C_2, ...), here one row per node and full
    derivative index."""
    N, n = X.shape
    W, shape = np.array([w for w, _, _ in waves]), waves[0][1].shape
    A = np.array([M for _, C, S in waves for M in (C, S)]).reshape(2 * len(W), -1)
    phase = X @ W.T
    cycle = (np.cos(phase), -np.sin(phase), -np.cos(phase), np.sin(phase))
    out, wk = [], np.ones(len(W))
    for k in range(order + 1):
        terms = np.stack([cycle[k % 4], cycle[(k + 3) % 4]], axis=-1)[:, None]
        U = terms * wk.reshape(len(W), -1).T[None, :, :, None]
        T = (U.reshape(-1, 2 * len(W)) @ A).reshape((N,) + (n,) * k + shape)
        out.append(np.moveaxis(T, tuple(range(1, k + 1)), tuple(range(-k, 0))))
        wk = wk[..., None] * W.reshape((len(W),) + (1,) * k + (n,))
    return out


def _torus_waves(rng, n, amplitude=1.0, modes=2):
    """The waves random_torus_sym_tensor draws from the same generator state."""
    waves = []
    for _ in range(modes):
        k = np.zeros(n)
        while not k.any():
            k = rng.integers(-2, 3, size=n).astype(float)
        C, S = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        waves.append((2 * np.pi * k, amplitude * (C + C.T) / 2, amplitude * (S + S.T) / 2))
    return waves


def _poincare_full(n):
    def jet(X, order):
        N = len(X)
        u = [1.0 - np.einsum("ai,ai->a", X, X), -2.0 * X, np.tile(-2.0 * np.eye(n), (N, 1, 1))]
        u += [np.zeros((N,) + (n,) * k) for k in range(3, order + 1)]
        w = full_axis.jet_inverse([t.reshape((N, 1, 1) + t.shape[1:]) for t in u[: order + 1]])
        w2 = full_axis.jet_scale([t[:, 0, 0] for t in w], w)
        g = [np.zeros((N, n * n) + t.shape[3:]) for t in w2]
        for out, t in zip(g, w2):
            out[:, :: n + 1] = 4.0 * t[:, 0]
        return [out.reshape((N, n, n) + out.shape[2:]) for out in g]

    return jet


def _pullback_full(n, P0, P1):
    Y_jet = _TensorValuedField(make_model("sphere", n).domain, _sphere_embedding_jet(n, 1.0))

    def jet(X, order):
        Y = Y_jet.jet(X, order + 1)
        J = Y[1:]
        # P_AB = P0_AB + P1_ABc y_c, each order one matrix product of P1's
        # rows (A, B) with y, as the package takes it on packed partials
        N, m = len(X), len(P0)
        rows = P1.reshape(m * m, m)
        P = [P0 + (Y[0] @ rows.T).reshape(N, m, m)]
        P += [np.matmul(rows, y.reshape(N, m, -1)).reshape((N, m, m) + y.shape[2:]) for y in Y[1:-1]]
        return full_axis.jet_einsum("aAi,aAj->aij", J, full_axis.jet_einsum("aAB,aBj->aAj", P, J))

    return jet


def _kinds():
    """kind -> (the field, its jet on full derivative axes built the full-axis way)."""
    euler3, sphere3 = make_model("s3-euler", 3), make_model("sphere", 3)
    out = {}
    for n in (2, 3, 4, 5):
        out[f"poincare-{n}"] = (make_model("poincare", n), _poincare_full(n))
    seed = 11
    h = random_torus_sym_tensor(3, np.random.default_rng(seed))
    waves = _torus_waves(np.random.default_rng(seed), 3)
    out["random torus tensor"] = (h, lambda X, order: _full_waves(X, waves, order))
    g = random_torus_metric(3, np.random.default_rng(seed))
    waves_g = _torus_waves(np.random.default_rng(seed), 3, amplitude=0.05)
    out["random torus metric"] = (
        g,
        lambda X, order: [
            np.eye(3) + T if k == 0 else T for k, T in enumerate(_full_waves(X, waves_g, order))
        ],
    )
    A = np.diag([0.0, 1.0, -1.0])
    tt = torus_tt_mode(3, (1, 0, 0), A)
    tt_waves = [(2 * np.pi * np.array([1.0, 0, 0]), A, np.zeros((3, 3)))]
    out["torus tt mode"] = (tt, lambda X, order: _full_waves(X, tt_waves, order))
    f = cosine_scalar_field(torus_domain(3), (1, -2, 0))
    w = 2 * np.pi * np.array([1.0, -2.0, 0.0])
    one = np.ones((1, 1))
    out["cosine mode"] = (
        f,
        lambda X, order: [T[:, 0, 0] for T in _full_waves(X, [(w, one, 0 * one)], order)],
    )
    harmonic = s3_first_harmonic()
    out["conformal"] = (
        conformal_tensor(euler3, harmonic),
        lambda X, order: full_axis.jet_scale(harmonic.jet(X, order), euler3.jet(X, order)),
    )
    rng = np.random.default_rng(12)
    pull = random_sphere_sym_tensor(3, rng, amplitude=0.3)
    rng = np.random.default_rng(12)
    A0, A1 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4, 4))
    P0, P1 = 0.3 * (A0 + A0.T) / 2, 0.3 * (A1 + A1.transpose(1, 0, 2)) / 2
    out["pullback"] = (pull, _pullback_full(3, P0, P1))
    for name, t in (("linear combination, scale 1", 0.2), ("complex step", 1j * COMPLEX_STEP)):
        out[name] = (
            linear_combination_metric(sphere3, pull, t),
            lambda X, order, t=t: [
                b + t * d for b, d in zip(sphere3.jet(X, order), pull.jet(X, order))
            ],
        )
    out["linear combination"] = (
        linear_combination_metric(sphere3, pull, 0.2).rescaled(1.5),
        lambda X, order: [
            1.5 * (b + 0.2 * d) for b, d in zip(sphere3.jet(X, order), pull.jet(X, order))
        ],
    )
    tt3 = s3_invariant_tt((2.0, -1.0, -1.0))
    out["rescaled"] = (
        euler3.rescaled(2.0), lambda X, order: [2.0 * T for T in euler3.jet(X, order)]
    )
    out["scaled"] = (tt3.scaled(-0.5), lambda X, order: [-0.5 * T for T in tt3.jet(X, order)])
    return out


KINDS = _kinds()


@pytest.mark.parametrize("kind", list(KINDS))
def test_jet_equals_the_full_axis_route(kind):
    field, full_route = KINDS[kind]
    n = field.dimension
    X = random_probes(field.domain, np.random.default_rng(7), count=17)
    packed, jet, full = field.packed_jet(X, TOP), field.jet(X, TOP), full_route(X, TOP)
    for k in range(TOP + 1):
        assert packed[k].shape == full_axis.pack(full[k], k).shape, (kind, k)
        # each partial is the same arithmetic on the same values
        assert np.array_equal(packed[k], full_axis.pack(full[k], k)), (kind, k)
        assert jet[k].shape == full[k].shape and jet[k].dtype == full[k].dtype, (kind, k)
        assert np.array_equal(jet[k], full_axis.expand(packed[k], k, n)), (kind, k)
        # also off the sorted multi-indices: the plane waves' outer products
        # round alike in any order here, each |k_i| <= 2 scaling 2 pi by a
        # power of two
        assert np.array_equal(jet[k], full[k]), (kind, k)


def _pipeline_fields():
    euler3 = make_model("s3-euler", 3)
    tt = s3_invariant_tt((2.0, -1.0, -1.0))
    return {
        "s3-euler": euler3,
        "complex step": linear_combination_metric(euler3, tt, 1j * COMPLEX_STEP),
        "random torus metric": random_torus_metric(4, np.random.default_rng(5)),
        "poincare": make_model("poincare", 3),
    }


@pytest.mark.parametrize("name", list(_pipeline_fields()))
def test_packed_ricci_and_hessian_match_the_full_axis_route(name):
    field = _pipeline_fields()[name]
    X = random_probes(field.domain, np.random.default_rng(8), count=40, margin=0.15)
    packed = tensors.ricci_arrays(field, X, order=2)
    full = full_axis.ricci_arrays(field, X, order=2)
    for got, want in zip(packed, full):
        for k, (P, F) in enumerate(zip(got, want)):
            assert np.array_equal(P, full_axis.pack(F, k)), (name, k)
    Gamma, jets = packed[2], packed[3:]
    hessians = tensors.covariant_hessian_blocks(lambda Y: (Gamma, jets), X)
    for H, T in zip(hessians, full[3:]):
        want = full_axis.covariant_jet(full_axis.covariant_jet(T, full[2]), full[2])[0]
        assert np.array_equal(H, want), name
    assert np.abs(hessians[0]).max() > 0 or name == "s3-euler"


def test_packed_covariant_derivatives_match_the_full_axis_route():
    base = make_model("s3-euler", 3)
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    X = random_probes(base.domain, np.random.default_rng(9), count=40)
    hv, Dh, D2h, bundle = tensors.sym_tensor_cov_derivs(base, h, X)
    g = base.packed_jet(X, 2)
    assert np.array_equal(bundle.g, g[0])
    _, _, Gamma = full_axis.connection_jet(base.jet(X, 2))
    want = full_axis.covariant_jet(h.jet(X, 2), Gamma)
    assert np.array_equal(Dh, want[0])
    assert np.array_equal(D2h, full_axis.covariant_jet(want, Gamma)[0])
    full_g = base.jet(X, 2)
    assert all(np.array_equal(g[k], full_axis.pack(full_g[k], k)) for k in range(3))


def test_separable_plans_are_safe_to_share_across_threads():
    # four threads ask a fresh field's order-4 jet at once; each must get
    # every order, with its own shape, whatever plans the others are making.
    # Fields of equal entries share their jet, so each trial's mode is new
    X = random_probes(make_model("s3-euler", 3).domain, np.random.default_rng(10), count=64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            field = s3_invariant_tt((3.0 + trial, -1.0, -2.0 - trial))
            barrier, shapes, errors = threading.Barrier(4), [], []

            def ask():
                try:
                    barrier.wait()
                    shapes.append([T.shape for T in field.jet(X, 4)])
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=ask) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and not errors, errors
            assert shapes == [[(64, 3, 3) + (3,) * k for k in range(5)]] * 4, trial
            assert len(field._jet._plans) == 5
    finally:
        sys.setswitchinterval(interval)


def test_fields_of_equal_entries_share_their_jet_and_its_bits():
    # a model, mode or harmonic built again reuses the first one's jet and
    # plans, a jet made afresh gives the same bits, and other entries get
    # their own jet
    X = random_probes(make_model("s3-euler", 3).domain, np.random.default_rng(13), count=20)
    makers = (
        lambda: make_model("s3-euler", 3), lambda: s3_invariant_tt((2.0, -1.0, -1.0)), s3_first_harmonic
    )
    shared = [make() for make in makers]
    assert all(field._jet is make()._jet for field, make in zip(shared, makers))
    _shared_separable_jet.cache_clear()
    for field, make in zip(shared, makers):
        fresh = make()
        assert fresh._jet is not field._jet
        assert all(np.array_equal(p, q) for p, q in zip(field.packed_jet(X, 4), fresh.packed_jet(X, 4)))
    assert s3_invariant_tt((1.0, -1.0, 0.0))._jet is not s3_invariant_tt((2.0, -1.0, -1.0))._jet
    assert make_model("sphere", 3)._jet is not make_model("sphere", 4)._jet


def _bits(a):
    """The bytes of an array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plane_wave_jets_are_contiguous_with_the_packed_axis_last(n):
    rng = np.random.default_rng(70 + n)
    X = random_probes(torus_domain(n), rng, count=33)
    fields = [random_torus_sym_tensor(n, rng), random_torus_metric(n, rng),
              cosine_scalar_field(torus_domain(n), rng.integers(-2, 3, size=n))]
    for field in fields:
        comp = field.packed_jet(X, 0)[0].shape[1:]
        for k, P in enumerate(field.packed_jet(X, 4)):
            assert P.flags.c_contiguous, (field.name, k)
            assert P.shape == (33,) + comp + ((math.comb(n + k - 1, k),) if k else ())


@pytest.mark.parametrize(
    "t", [0.37, 1j * COMPLEX_STEP, 1e-3 * np.exp(0.25j * np.pi)],
    ids=["real", "complex-step", "rotated"],
)
def test_linear_combination_jets_are_b_plus_t_d_bit_for_bit(t):
    rng = np.random.default_rng(71)
    torus = make_model("torus", 3)
    cases = [
        (torus, random_torus_sym_tensor(3, rng)),
        (random_torus_metric(4, rng), random_torus_sym_tensor(4, rng)),
        (make_model("sphere", 3), random_sphere_sym_tensor(3, rng)),
        (make_model("s3-euler", 3), s3_invariant_tt((2.0, -1.0, -1.0))),
        (torus, conformal_tensor(torus, cosine_scalar_field(torus.domain, (1, 0, 0)))),
    ]
    for base, h in cases:
        X = random_probes(base.domain, rng, count=40)
        got = linear_combination_metric(base, h, t).packed_jet(X, 4)
        want = [b + t * d for b, d in zip(base.packed_jet(X, 4), h.packed_jet(X, 4))]
        for k, (p, q) in enumerate(zip(got, want)):
            assert p.dtype == q.dtype and p.shape == q.shape, (base.name, k)
            assert np.array_equal(_bits(p), _bits(q)), (base.name, h.name, k)
