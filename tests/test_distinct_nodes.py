"""Whole-grid reductions run once per distinct node of the coordinates their
fields read.

Every built-in field says which chart coordinates its jet reads; along the
others its jet is constant, bit for bit.  A reduction computes its per-node
densities at the first node of each distinct value of those coordinates and
gathers them back to every node before it sums, so it must equal, with ==,
the same reduction on a field with the same jet that reads every coordinate.
"""

import dataclasses

import numpy as np
import pytest

from curvlab import fields, functionals, tensors, verify
from curvlab.charts import build_grid, make_model, to_unit_volume
from curvlab.errors import DegenerateMetricError
from curvlab.fields import (
    analytic_metric_field,
    cosine_scalar_field,
    linear_combination_metric,
    random_sphere_sym_tensor,
    random_torus_metric,
    random_torus_sym_tensor,
    torus_domain,
    wave,
)
from curvlab.functionals import Coefficients, evaluate
from curvlab.spectral import (
    rayleigh_lichnerowicz,
    s3_invariant_tt,
    torus_tt_mode,
    tt_defect,
)
from curvlab.tensors import MATMUL_MIN_BATCH, distinct_nodes
from curvlab.variations import (
    COMPLEX_STEP,
    PerturbationFamily,
    _first_variation_pairing,
    _gradient_pass,
    conformal_tensor,
    einstein_criticality_defect,
    el_residual,
    first_variation_numeric,
    gradient_ingredients,
    gradient_tensor,
    second_variation_numeric,
)
from curvlab.verify import (
    curvature_case,
    gradient_case,
    hessian_case,
    identity_case,
    rayleigh_case,
    s3_first_harmonic,
)

from conftest import random_probes
from oracles import symmetrization_energies

COEFF = Coefficients(0.7, -0.4)
INVARIANT_TT = (2.0, -1.0, -1.0)


def reading_all(f):
    """The field with the same jet, untagged: it reads every coordinate."""
    jet = f._jet
    return dataclasses.replace(f, _jet=lambda X, order: jet(X, order))


def _diagonal_tt_mode():
    # k = (1, 1, 0): A k = 0 and tr A = 0
    return torus_tt_mode(3, (1, 1, 0), np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, -2.0]]))


def _builtin_fields():
    """(name, field, the coordinates it reads, or None where they are random)."""
    out = []
    for kind in ("torus", "sphere", "poincare"):
        for n in range(2, 6):
            reads = {"torus": (), "sphere": tuple(range(n - 1)), "poincare": tuple(range(n))}[kind]
            out.append((f"{kind}-{n}", make_model(kind, n), reads))
    euler, torus3, sphere3 = make_model("s3-euler", 3), make_model("torus", 3), make_model("sphere", 3)
    inv = s3_invariant_tt(INVARIANT_TT)
    mode = torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    cos_y = cosine_scalar_field(torus3.domain, (0, 1, 0))
    rng = np.random.default_rng(11)
    out += [
        ("s3-euler", euler, (0,)),
        ("s3 invariant TT", inv, (0, 2)),
        ("torus TT mode", mode, (0,)),
        ("torus TT mode k=(1,1,0)", _diagonal_tt_mode(), (0, 1)),
        ("cosine", cos_y, (1,)),
        ("cosine k=(0,2,1)", cosine_scalar_field(torus3.domain, (0, 2, 1)), (1, 2)),
        ("s3 first harmonic", s3_first_harmonic(), (0, 1, 2)),
        ("conformal torus", conformal_tensor(torus3, cos_y), (1,)),
        ("conformal s3", conformal_tensor(euler, s3_first_harmonic()), (0, 1, 2)),
        ("linear combination s3", linear_combination_metric(euler, inv, 0.1), (0, 2)),
        ("linear combination torus", linear_combination_metric(torus3, mode, 0.1), (0,)),
        ("random torus tensor", random_torus_sym_tensor(3, rng), None),
        ("random torus metric", random_torus_metric(4, rng), None),
        ("random sphere tensor", random_sphere_sym_tensor(3, rng), (0, 1, 2)),
        ("rescaled sphere", sphere3.rescaled(2.0), (0, 1)),
        ("scaled invariant TT", inv.scaled(0.5), (0, 2)),
    ]
    return out


FIELDS = _builtin_fields()


@pytest.mark.parametrize("name, field, reads", FIELDS, ids=[f[0] for f in FIELDS])
def test_a_jet_is_constant_along_the_coordinates_its_field_does_not_read(name, field, reads):
    n = field.dimension
    if reads is not None:
        assert field.reads == reads
    rng = np.random.default_rng(5)
    X = random_probes(field.domain, rng, count=24)
    unread = [m for m in range(n) if m not in field.reads]
    Y = X.copy()
    Y[:, unread] = random_probes(field.domain, rng, count=24)[:, unread]
    for k, (a, b) in enumerate(zip(field.packed_jet(X, 4), field.packed_jet(Y, 4))):
        assert np.array_equal(a, b), k
    # and every coordinate read moves the jet
    for m in field.reads:
        Z = X.copy()
        Z[:, m] += 0.1
        assert any(not np.array_equal(a, b) for a, b in zip(field.packed_jet(X, 2), field.packed_jet(Z, 2))), m


def test_a_jet_swapped_in_reads_every_coordinate():
    inv = s3_invariant_tt(INVARIANT_TT)
    assert dataclasses.replace(inv, _jet=inv._jet).reads == (0, 2)  # the same jet
    assert reading_all(inv).reads == (0, 1, 2)
    torus = make_model("torus", 3)
    assert reading_all(torus).reads == (0, 1, 2)
    # a combination of an untagged part reads every coordinate too
    assert linear_combination_metric(torus, reading_all(inv), 0.1).reads == (0, 1, 2)


@pytest.mark.parametrize("reads", [(), (0,), (1,), (0, 2), (0, 1, 2)])
def test_distinct_nodes_keep_the_first_node_of_each_value_in_node_order(reads):
    X = build_grid(torus_domain(3), (4, 5, 6)).nodes
    rows, at = distinct_nodes(X, reads)
    if len(reads) == 3:  # nothing repeats
        assert rows == at == slice(None)
        return
    keys = [X[a, list(reads)].tobytes() for a in range(len(X))]
    first = {}
    for a, key in enumerate(keys):
        first.setdefault(key, a)
    # the first node of each value, padded by the first nodes to the matmul floor
    pad = range(MATMUL_MIN_BATCH) if len(first) < MATMUL_MIN_BATCH else ()
    assert rows.tolist() == sorted({*first.values(), *pad})
    # every node gathers the first node of its value
    assert rows[at].tolist() == [first[key] for key in keys]


def test_distinct_nodes_leave_small_batches_whole():
    X = np.zeros((MATMUL_MIN_BATCH, 3))  # one value, but no fewer rows than the matmul floor
    assert distinct_nodes(X, ()) == (slice(None), slice(None))
    rows, at = distinct_nodes(np.zeros((40, 3)), ())
    assert len(rows) == MATMUL_MIN_BATCH and np.array_equal(rows[at], np.zeros(40, dtype=int))


def test_the_functionals_and_the_curvature_check_build_curvature_once_per_distinct_node(
    monkeypatch,
):
    rows = []

    def counted(field, X):
        rows.append(len(X))
        return tensors.curvature(field, X)

    monkeypatch.setattr(functionals, "curvature", counted)
    monkeypatch.setattr(verify, "curvature", counted)
    s4 = make_model("sphere", 4)
    evaluate(s4, build_grid(s4.domain, (6, 6, 6, 8)), COEFF)
    assert rows == [6**3]  # the azimuth is not read
    rows.clear()
    verify.curvature_case("sphere", 5)
    assert sum(rows) == 6**4  # of 12,960 nodes


@pytest.mark.parametrize(
    "kind, n, res",
    [("sphere", 3, (6, 6, 10)), ("sphere", 4, (4, 4, 4, 6)), ("s3-euler", 3, (6, 6, 8)),
     ("torus", 3, 6)],
)
def test_the_functionals_equal_those_of_a_field_reading_every_coordinate(kind, n, res):
    base = make_model(kind, n)
    grid = build_grid(base.domain, res)
    assert len(grid.nodes[distinct_nodes(grid.nodes, base.reads)[0]]) < grid.node_count
    for f in (base, base.rescaled(2.0)):
        assert evaluate(f, grid, COEFF) == evaluate(reading_all(f), grid, COEFF)


def test_the_variations_equal_those_of_fields_reading_every_coordinate():
    euler, inv = make_model("s3-euler", 3), s3_invariant_tt(INVARIANT_TT)
    grid = build_grid(euler.domain, (6, 8, 8))
    pairs = [(euler, inv), (reading_all(euler), reading_all(inv))]
    got = []
    for base, h in pairs:
        p = _gradient_pass(base, grid, COEFF)
        got.append((
            first_variation_numeric(base, grid, h, COEFF),
            second_variation_numeric(PerturbationFamily(base, h), grid, COEFF),
            _first_variation_pairing(p, grid)(h),
            p["c"],
        ))
    assert got[0] == got[1]
    assert got[0][0] != 0  # roundoff, so the comparison has bits to lose
    unit = to_unit_volume(euler, grid)
    assert el_residual(unit, grid, COEFF) == el_residual(reading_all(unit), grid, COEFF)


def test_the_gradient_at_grid_nodes_equals_that_of_a_field_reading_every_coordinate():
    euler = make_model("s3-euler", 3)
    X = build_grid(euler.domain, (6, 8, 8)).nodes
    want = gradient_tensor(reading_all(euler), X, COEFF)
    got = gradient_tensor(euler, X, COEFF)
    for f in dataclasses.fields(got):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    # the generic path: its roundoff is gathered to every node unchanged
    ing = gradient_ingredients(euler, X, use_structure=False)
    full = gradient_ingredients(reading_all(euler), X, use_structure=False)
    rows = distinct_nodes(X, euler.reads)[0]
    assert len(full["lap_R"]) == len(X) and len(ing["lap_R"]) < len(X)
    for key in ("lap_ric", "hess_R", "lap_R"):
        assert np.array_equal(ing[key], full[key][rows]), key
    assert np.abs(full["lap_R"]).max() > 0


def test_the_spectral_reductions_equal_those_of_fields_reading_every_coordinate():
    euler, torus = make_model("s3-euler", 3), make_model("torus", 3)
    cases = [
        (euler, s3_invariant_tt(INVARIANT_TT), build_grid(euler.domain, (6, 6, 8))),
        (torus, torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0])), build_grid(torus.domain, 6)),
        (torus, _diagonal_tt_mode(), build_grid(torus.domain, 6)),
    ]
    for base, h, grid in cases:
        for fn in (rayleigh_lichnerowicz, tt_defect, symmetrization_energies):
            assert fn(base, h, grid) == fn(reading_all(base), reading_all(h), grid), fn.__name__
    s4 = make_model("sphere", 4)
    grid = build_grid(s4.domain, (4, 4, 4, 6))
    assert einstein_criticality_defect(s4, grid) == einstein_criticality_defect(reading_all(s4), grid)


def test_the_complex_step_integrals_keep_their_bits():
    # the suites' and the first variation's complex metric reads what base and h read
    euler, inv = make_model("s3-euler", 3), s3_invariant_tt(INVARIANT_TT)
    grid = build_grid(euler.domain, (6, 6, 8))
    field = linear_combination_metric(euler, inv, 1j * COMPLEX_STEP)
    assert field.reads == (0, 2)
    got = functionals._integrals(field, grid, COEFF)
    want = functionals._integrals(reading_all(field), grid, COEFF)
    assert got.keys() == want.keys() and all(got[k] == want[k] for k in got)
    assert got["F"].imag != 0


def test_every_case_reports_what_it_reports_on_fields_reading_every_coordinate(monkeypatch):
    cases = [
        lambda: curvature_case("sphere", 4, res=(4, 4, 4, 6)),
        lambda: curvature_case("s3-euler", 3),
        lambda: hessian_case("s3-invariant", COEFF),
        lambda: hessian_case("torus-tt", COEFF),
        lambda: hessian_case("torus-conformal", COEFF),
        lambda: gradient_case("s3", 3, COEFF, count=2, seed=3),
        lambda: gradient_case("torus", 3, COEFF, count=2, seed=3),
        lambda: rayleigh_case("s3-invariant", res=12),
        lambda: rayleigh_case("torus-tt", res=8),
        lambda: identity_case("tt"),
        lambda: identity_case("conformal"),
    ]
    got = [case() for case in cases]
    every = property(lambda self: tuple(range(self.dimension)))
    monkeypatch.setattr(fields._TensorValuedField, "reads", every)
    want = [case() for case in cases]
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, i


def test_an_error_names_the_grid_node_not_its_representative(monkeypatch):
    # g = diag(1, 1/2 + cos(2 pi x0)) is not positive definite from x0 = 3/8
    # on: on the 8 x 8 torus grid, whose rows run i * 8 + j, first at node 24
    field = analytic_metric_field(torus_domain(2), {(0, 0): 1.0, (1, 1): 0.5 + wave(0, 2 * np.pi)})
    assert field.reads == (0,)
    grid = build_grid(field.domain, 8)
    for f in (field, reading_all(field)):
        for size in (tensors.GRID_BLOCK, MATMUL_MIN_BATCH):  # one block, then four
            monkeypatch.setattr(tensors, "GRID_BLOCK", size)
            with pytest.raises(DegenerateMetricError, match="node 24,"):
                evaluate(f, grid, COEFF)
        with pytest.raises(DegenerateMetricError, match="node 24,"):
            gradient_ingredients(f, grid.nodes)
