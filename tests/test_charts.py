import dataclasses
import functools

import numpy as np
import pytest

from curvlab.charts import (
    build_grid,
    make_model,
    milnor_coframe,
    milnor_frame,
    to_unit_volume,
    volume,
)
from curvlab.errors import (
    ConfigurationError,
    DegenerateMetricError,
    GlobalIntegralUnsupportedError,
    UnsupportedModelError,
)
from curvlab.fields import (
    DEFAULT_FD_REL_STEP,
    ChartDomain,
    CovectorField,
    MetricField,
    analytic_metric_field,
    analytic_sym_tensor_field,
    fd_partials,
    linear_combination_metric,
    poincare_domain,
    sphere_domain,
    torus_domain,
    wave,
)
from curvlab.functionals import Coefficients, evaluate
from curvlab.spectral import rayleigh_lichnerowicz, torus_tt_mode, tt_defect
from curvlab.tensors import (
    covariant_derivative,
    curvature,
    delta_star,
    distinct_nodes,
    divergence,
    lichnerowicz,
)
from curvlab.variations import first_variation_numeric, gradient_tensor

from conftest import exact_sphere_volume, metric_as_sym_tensor, random_probes


def test_domain_validation():
    with pytest.raises(ConfigurationError):
        ChartDomain(1, ((0.0, 1.0),), (True,), "TorusBox")
    with pytest.raises(ConfigurationError):
        ChartDomain(2, ((0.0, 0.0), (0.0, 1.0)), (True, True), "TorusBox")
    # Poincare box corners must stay inside the unit ball
    with pytest.raises(ConfigurationError):
        ChartDomain(2, ((-0.8, 0.8), (-0.8, 0.8)), (False, False), "PoincareBall")
    poincare_domain(3)  # fine


def test_make_model_errors():
    with pytest.raises(UnsupportedModelError):
        make_model("s3-euler", 4)
    with pytest.raises(UnsupportedModelError):
        make_model("klein", 3)
    with pytest.raises(UnsupportedModelError):
        make_model("torus", 1)
    # lam = 1/radius**2 needs radius**2 to be a positive, finite, normal float
    for kind, radius in (("sphere", 1e-200), ("s3-euler", 1e-170), ("sphere", 1e200),
                         ("sphere", 1e-155), ("sphere", 0.0), ("sphere", -1.0)):
        with pytest.raises(UnsupportedModelError, match="radius"):
            make_model(kind, 3, radius=radius)
    # the flat torus and the Poincare ball have no radius to set
    for kind in ("torus", "poincare"):
        with pytest.raises(UnsupportedModelError, match="takes no radius"):
            make_model(kind, 3, radius=2.0)
    assert make_model("sphere", 2, radius=1e-150).lam == pytest.approx(1e300)


def test_torus_metric_is_identity(torus3):
    X = np.random.default_rng(0).uniform(0, 1, (10, 3))
    g = torus3.eval_grid(X)
    assert np.array_equal(g, np.broadcast_to(np.eye(3), (10, 3, 3)))


def test_build_grid_weights_sum_to_box_volume():
    dom = torus_domain(3)
    grid = build_grid(dom, 8)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    sdom = sphere_domain(2)
    sgrid = build_grid(sdom, (16, 32))
    assert sgrid.weights.sum() == pytest.approx(2 * np.pi**2, rel=1e-12)
    assert np.all(sgrid.weights > 0)


def test_build_grid_resolution_floor():
    with pytest.raises(ConfigurationError):
        build_grid(torus_domain(2), 3)


def test_sphere_grid_avoids_poles():
    grid = build_grid(sphere_domain(2), (16, 32))
    theta = grid.nodes[:, 0]
    assert theta.min() > 0.0 and theta.max() < np.pi


def test_volumes_of_models():
    t = make_model("torus", 3)
    assert volume(t, build_grid(t.domain, 8)) == pytest.approx(1.0, abs=1e-14)
    s2 = make_model("sphere", 2)
    assert volume(s2, build_grid(s2.domain, (16, 32))) == pytest.approx(
        4 * np.pi, abs=1e-9
    )
    s3 = make_model("sphere", 3)
    v3 = volume(s3, build_grid(s3.domain, (12, 12, 24)))
    assert abs(v3 - 2 * np.pi**2) < 1e-6
    e3 = make_model("s3-euler", 3)
    assert volume(e3, build_grid(e3.domain, (8, 8, 8))) == pytest.approx(
        2 * np.pi**2, abs=1e-9
    )


def test_volume_scales_with_radius():
    s3 = make_model("sphere", 3, radius=2.0)
    v = volume(s3, build_grid(s3.domain, (10, 10, 16)))
    assert v == pytest.approx(exact_sphere_volume(3, 2.0), rel=1e-10)


def test_quadrature_convergence_order():
    # volume of a radius-1 S^2 under refinement: error drops at least 4x
    s2 = make_model("sphere", 2)
    errs = []
    for res in ((6, 12), (12, 24)):
        v = volume(s2, build_grid(s2.domain, res))
        errs.append(abs(v - 4 * np.pi))
    assert errs[1] <= max(errs[0] / 4, 5e-13)


def test_degenerate_metric_error_names_node():
    dom = torus_domain(2)
    bad = MetricField(
        domain=dom,
        _jet=lambda X, order: [np.broadcast_to(np.diag([1.0, -1.0]), (X.shape[0], 2, 2))],
        name="indefinite",
    )
    with pytest.raises(DegenerateMetricError, match="node"):
        volume(bad, build_grid(dom, 4))


def _constant_metric(g0):
    n = len(g0)
    return MetricField(
        domain=torus_domain(n),
        _jet=lambda X, order: [np.broadcast_to(g0, (X.shape[0], n, n))]
        + [np.zeros((X.shape[0],) + (n,) * (2 + k)) for k in range(1, order + 1)],
        name="constant",
    )


def test_determinant_underflow_is_not_a_degenerate_metric():
    # det(1e-120 I) = 1e-360 underflows to 0, yet the metric is positive
    # definite; volume and curvature share the one positivity test
    tiny = _constant_metric(1e-120 * np.eye(3))
    grid = build_grid(tiny.domain, 4)
    assert volume(tiny, grid) == 0.0  # sqrt(det g) keeps its underflowed value
    b = curvature(tiny, grid.nodes)
    assert np.array_equal(b.sqrt_det, np.zeros(grid.node_count)) and not b.R.any()
    for g0 in (np.diag([1.0, -1.0, 1.0]), 1e-120 * np.diag([1.0, -1.0, 1.0])):
        bad = _constant_metric(g0)
        with pytest.raises(DegenerateMetricError, match="node 0"):
            volume(bad, grid)
        with pytest.raises(DegenerateMetricError, match="node 0"):
            curvature(bad, grid.nodes)


# det g = 1 and 5, yet each has two negative eigenvalues
INDEFINITE = {
    "diag(-1,-1,1)": np.diag([-1.0, -1.0, 1.0]),
    "det-5": np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]]),
}


@pytest.mark.parametrize("g0", list(INDEFINITE.values()), ids=list(INDEFINITE))
def test_a_positive_determinant_is_no_positive_definite_metric(g0, torus3):
    assert np.linalg.det(g0) > 0 and np.sum(np.linalg.eigvalsh(g0) < 0) == 2
    # the flat torus plus a constant h, as linear_combination_metric makes it
    h0 = g0 - np.eye(3)
    h = analytic_sym_tensor_field(
        torus_domain(3), {(i, j): float(h0[i, j]) for i in range(3) for j in range(i, 3)}
    )
    bad = linear_combination_metric(torus3, h, 1.0)
    grid = build_grid(bad.domain, 4)
    for call in (
        lambda: curvature(bad, grid.nodes),
        lambda: evaluate(bad, grid, Coefficients()),
        lambda: volume(bad, grid),
    ):
        with pytest.raises(DegenerateMetricError, match="node 0,"):
            call()
    # a complex step of the positive-definite base along the same h passes
    assert first_variation_numeric(torus3, grid, h, Coefficients(0.5, 0.25)) == 0.0


def test_an_indefinite_metric_is_refused_at_its_first_bad_node():
    # g = diag(c, c, 1), c = 1/2 + cos(2 pi x0): det g = c^2 > 0 everywhere,
    # but c < 0 from x0 = 3/8 on, first at node 3 * 64 of the 8^3 grid
    c = 0.5 + wave(0, 2 * np.pi)
    field = analytic_metric_field(torus_domain(3), {(0, 0): c, (1, 1): c, (2, 2): 1.0})
    grid = build_grid(field.domain, 8)
    for call in (
        lambda: curvature(field, grid.nodes),
        lambda: evaluate(field, grid, Coefficients()),
        lambda: volume(field, grid),
    ):
        with pytest.raises(DegenerateMetricError, match="node 192,"):
            call()


@pytest.mark.parametrize(
    "c", [0.0, np.nan, np.inf, -1.0], ids=["singular", "nan", "inf", "indefinite"]
)
def test_a_singular_or_non_finite_metric_is_a_degenerate_metric(c):
    # g = diag(1, 1, c): inverting a singular g raised numpy's LinAlgError,
    # a NaN entry made a NaN volume and an inf entry an infinite one; the
    # covariant-derivative routes took NaN, inf and indefinite metrics and
    # returned arrays (tt_defect read (0, 2) at c = -1)
    field = analytic_metric_field(torus_domain(3), {(0, 0): 1.0, (1, 1): 1.0, (2, 2): c})
    grid = build_grid(field.domain, 4)
    x = grid.nodes[0]
    h = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    omega = CovectorField(
        domain=field.domain,
        _jet=lambda X, order: [np.ones((len(X), 3)), np.zeros((len(X), 3, 3))][: order + 1],
    )
    for call in (
        lambda: volume(field, grid),
        lambda: curvature(field, x),
        lambda: curvature(field, grid.nodes),
        lambda: evaluate(field, grid, Coefficients()),
        lambda: gradient_tensor(field, x, Coefficients()),
        lambda: covariant_derivative(field, h, x),
        lambda: covariant_derivative(field, h, grid.nodes, order=2),
        lambda: divergence(field, h, x),
        lambda: delta_star(field, omega, x),
        lambda: lichnerowicz(field, h, x),
        lambda: tt_defect(field, h, grid),
        lambda: rayleigh_lichnerowicz(field, h, grid),
    ):
        with pytest.raises(DegenerateMetricError, match="node 0,"):
            call()
    # a complex step of a Riemannian metric is no degenerate metric
    flat = analytic_metric_field(torus_domain(3), {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0})
    step = covariant_derivative(linear_combination_metric(flat, h, 1e-20j), h, (0.125, 0.0, 0.0))
    assert np.iscomplexobj(step) and np.isfinite(step).all() and np.abs(step.imag).max() > 0


def test_hyperbolic_chart_refuses_integrals(poincare3):
    grid = build_grid(poincare3.domain, 4)
    with pytest.raises(GlobalIntegralUnsupportedError):
        volume(poincare3, grid)


def test_integrals_keep_the_bits_of_the_hand_written_sum(sphere3):
    # the sphere metric does not read the azimuth: 8 x 8 distinct nodes of
    # 768, gathered back to every node, as every caller of integrals does
    grid = build_grid(sphere3.domain, (8, 8, 12))
    rows, at = distinct_nodes(grid.nodes, sphere3.reads)
    assert len(rows) == 64 < grid.node_count
    hexes = lambda z: (complex(z).real.hex(), complex(z).imag.hex())
    h = metric_as_sym_tensor(sphere3)
    for field in (sphere3, linear_combination_metric(sphere3, h, 1e-20j)):
        b = curvature(field, grid.nodes[rows])
        sd, rm2 = b.sqrt_det[at], b.normRm2[at]
        vol, energy = grid.integrals(sd, rm2)
        assert vol.dtype == energy.dtype == sd.dtype
        assert hexes(vol) == hexes(np.sum(grid.weights * sd))
        assert hexes(energy) == hexes(np.sum(grid.weights * sd * rm2))
    # the complex step keeps its imaginary part
    assert np.iscomplexobj(energy) and energy.imag != 0


def test_unit_volume_rescale(sphere3):
    grid = build_grid(sphere3.domain, (10, 10, 16))
    u = to_unit_volume(sphere3, grid)
    assert volume(u, grid) == pytest.approx(1.0, abs=1e-12)
    assert u.lam == pytest.approx((2 * np.pi**2) ** (2 / 3), rel=1e-10)


def test_analytic_partials_match_finite_differences(sphere3, euler3, poincare3):
    rng = np.random.default_rng(3)
    for field in (sphere3, euler3, poincare3):
        X = random_probes(field.domain, rng, count=5)
        step = DEFAULT_FD_REL_STEP * float(np.min(field.domain.extents))
        fd1 = fd_partials(field.eval_grid, X, np.full(field.dimension, step))
        assert np.abs(field.d1_grid(X) - fd1).max() < 10 * step**2
        fd2 = fd_partials(field.d1_grid, X, np.full(field.dimension, step))
        assert np.abs(field.d2_grid(X) - fd2).max() < 10 * step**2


def test_space_form_identity_on_models(sphere3, euler3, poincare3):
    rng = np.random.default_rng(11)
    for field in (sphere3, euler3, poincare3):
        X = random_probes(field.domain, rng, count=40)
        b = curvature(field, X)
        lam = field.lam
        model = lam * (
            np.einsum("alj,aik->alijk", b.g, b.g)
            - np.einsum("alk,aij->alijk", b.g, b.g)
        )
        assert np.abs(b.Rm4 - model).max() < 1e-6


def test_milnor_frame_duality_and_brackets(euler3):
    rng = np.random.default_rng(4)
    X = random_probes(euler3.domain, rng, count=20)
    F = milnor_frame(X)
    W = milnor_coframe(X)
    g = euler3.eval_grid(X)
    gram = np.einsum("aim,amn,ajn->aij", F, g, F)
    assert np.abs(gram - np.eye(3)).max() < 1e-11
    assert np.abs(np.einsum("aim,ajm->aij", W, F) - np.eye(3)).max() < 1e-12

    # [X_1, X_2] = 2 X_3 and cyclic, via numerical Lie brackets
    def bracket(i, j, pts, h=1e-6):
        out = np.zeros((len(pts), 3))
        for m in range(3):
            em = np.zeros(3)
            em[m] = h
            dF = (milnor_frame(pts + em) - milnor_frame(pts - em)) / (2 * h)
            Fp = milnor_frame(pts)
            out += Fp[:, i, m, None] * dF[:, j, :] - Fp[:, j, m, None] * dF[:, i, :]
        return out

    Fr = milnor_frame(X[:6])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert np.abs(bracket(i, j, X[:6]) - 2 * Fr[:, k, :]).max() < 1e-4


def _fd_partials_reference(fn, X, steps):
    """fd_partials as it read before it stopped pre-evaluating fn(X)."""
    N, n = X.shape
    base = np.asarray(fn(X))
    out = np.empty(base.shape + (n,), dtype=float)
    for k in range(n):
        h = steps[k]
        e = np.zeros(n)
        e[k] = h
        f1 = fn(X + e)
        f_1 = fn(X - e)
        f2 = fn(X + 2 * e)
        f_2 = fn(X - 2 * e)
        out[..., k] = (f_2 - 8 * f_1 + 8 * f1 - f2) / (12 * h)
    return out


def test_fd_partials_evaluates_only_the_stencil(euler3):
    calls = []

    def fn(Y):
        calls.append(Y.shape[0])
        return euler3.d1_grid(Y)

    X = random_probes(euler3.domain, np.random.default_rng(5), count=7)
    steps = np.full(3, 1e-3)
    out = fd_partials(fn, X, steps)
    assert calls == [7] * (4 * 3)
    assert np.array_equal(out, _fd_partials_reference(fn, X, steps))


@functools.lru_cache(maxsize=None)
def _jet_fields():
    from curvlab.fields import (
        cosine_scalar_field,
        linear_combination_metric,
        random_sphere_sym_tensor,
        random_torus_metric,
        random_torus_sym_tensor,
    )
    from curvlab.spectral import s3_invariant_tt
    from curvlab.variations import conformal_tensor
    from curvlab.verify import s3_first_harmonic

    rng = np.random.default_rng(8)
    sphere3, euler3 = make_model("sphere", 3), make_model("s3-euler", 3)
    pullback = random_sphere_sym_tensor(3, rng, amplitude=0.3)
    tt = s3_invariant_tt((2.0, -1.0, -1.0))
    torus_h = random_torus_sym_tensor(3, rng)
    return {
        "sympy metric (sphere)": sphere3,
        "sympy metric (euler)": euler3,
        "sympy metric (poincare)": make_model("poincare", 3),
        "sympy tensor": tt,
        "sympy scalar": s3_first_harmonic(),
        "trig tensor": torus_h,
        "torus model": make_model("torus", 3),
        "cosine scalar": cosine_scalar_field(torus_domain(3), (1, -2, 0)),
        "random torus metric": random_torus_metric(3, rng),
        "conformal": conformal_tensor(euler3, s3_first_harmonic()),
        "linear combination": linear_combination_metric(sphere3, pullback, 0.2).rescaled(1.5),
        "rescaled": sphere3.rescaled(2.0),
        "scaled": tt.scaled(-0.5),
        "metric as tensor": metric_as_sym_tensor(euler3),
        "sphere pullback": pullback,
    }


# the "sympy" kinds are closed-form fields that tests/test_closed_form_jets.py
# also checks against the sympy oracle
JET_KINDS = [
    "sympy metric (sphere)", "sympy metric (euler)", "sympy metric (poincare)",
    "sympy tensor", "sympy scalar", "trig tensor", "torus model", "cosine scalar",
    "random torus metric", "conformal", "linear combination", "rescaled", "scaled",
    "metric as tensor", "sphere pullback",
]


@pytest.mark.parametrize("kind", JET_KINDS)
def test_jet_orders_match_finite_differences(kind):
    # every order is exact, also order 5, one above what the package asks for
    field = _jet_fields()[kind]
    X = random_probes(field.domain, np.random.default_rng(6), count=4)
    steps = np.full(field.dimension, DEFAULT_FD_REL_STEP * float(np.min(field.domain.extents)))
    jet = field.jet(X, 5)
    assert [t.shape for t in jet] == [jet[0].shape + (field.dimension,) * k for k in range(6)]
    for k in range(1, 6):
        fd = fd_partials(lambda Y: field.jet(Y, k - 1)[k - 1], X, steps)
        scale = max(1.0, float(np.max(np.abs(jet[k]))))
        # the stencil's truncation error is about 1e-9 of the scale here
        assert np.max(np.abs(jet[k] - fd)) <= 1e-8 * scale, (kind, k)


def test_cached_models_are_frozen():
    field = make_model("sphere", 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.lam = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.name = "changed"
    assert make_model("sphere", 3).lam == 1.0
    assert dataclasses.replace(field, name="copy").name == "copy"
