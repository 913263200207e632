import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlab.atlas import (
    StabilityQuery,
    Verdict,
    classify,
    clause,
    conformal_polynomial,
    emit_atlas,
    p1,
    p2,
    tt_polynomial,
)
from curvlab.errors import ConfigurationError
from curvlab.functionals import Coefficients
from curvlab.variations import (
    second_variation_conformal_predicted,
    second_variation_tt_predicted,
)

finite = st.floats(-50, 50, allow_nan=False)


def q(n, lam, mode, s, tau):
    return StabilityQuery(n=n, lam=lam, mode=mode, s=s, tau=tau)


def test_polynomial_values():
    assert p1(4, 0.0, 0.0, 4.0) == 0.0
    assert p1(3, 0.0, 0.0, 6.0) == pytest.approx(60.0, abs=1e-14)
    assert p2(3, 0.0, 0.0, 3.0) == pytest.approx(96.0, abs=1e-14)
    assert p2(3, 0.2, -0.4, -3.0) == 0.0  # formal factor root
    # ns - 4 tau + 4 n tau + 4 = 0 at n = 4, s = -1, tau = 0 kills p2
    for mu in (1.0, 7.3, 40.0):
        assert p2(4, -1.0, 0.0, mu) == 0.0


def test_one_lambda_formula_equals_the_per_lambda_forms():
    # exact polynomial identity in (n, s, tau, lam_L or mu) against the
    # closed forms as written separately for lam = 1, -1 and 0
    n, s, tau, x = sp.symbols("n s tau x")
    c = (n - 1) * (2 * s + n * tau)
    tt = {
        1: (x - 2 * (n - 1)) * ((4 + s) / 2 * x - (2 * n + 4) - c),
        -1: (x + 2 * (n - 1)) * ((4 + s) / 2 * x + (2 * n + 4) + c),
        0: 2 * (1 + s / 4) * x**2,
    }
    a = (n * s - 4 * tau + 4 * n * tau + 4) / 2
    b = (n - 4) * (n**2 * tau + n * s - n * tau - s + 2)
    conformal = {
        1: (n - 1) * (x - n) * (a * x + b),
        -1: (n - 1) * (x + n) * (a * x - b),
        0: sp.Rational(1, 2) * (n - 1) * (s * n + 4 * (n - 1) * tau + 4) * x**2,
    }
    for lam in (-1, 0, 1):
        assert sp.expand(tt_polynomial(n, lam, s, tau, x) - tt[lam]) == 0, lam
        assert sp.expand(conformal_polynomial(n, lam, s, tau, x) - conformal[lam]) == 0, lam
    assert sp.expand(p1(n, s, tau, x) - conformal[1]) == 0
    assert sp.expand(p2(n, s, tau, x) - conformal[-1]) == 0
    # the predicted second variations are these polynomials times the norm
    coeff = Coefficients(0.3, -0.7)
    for lam, x0 in ((1, 13.0), (-1, 2.5), (0, 5.0)):
        tt0 = tt_polynomial(4, lam, coeff.s, coeff.tau, x0)
        conf0 = conformal_polynomial(4, lam, coeff.s, coeff.tau, x0)
        assert second_variation_tt_predicted(4, lam, x0, coeff, 2.0) == 2.0 * tt0
        assert second_variation_conformal_predicted(4, lam, x0, coeff, 2.0) == 2.0 * conf0


@given(s=finite, tau=finite, mu=finite)
@example(s=49.5234375, tau=-16.84120846899652, mu=8.0)  # s + 3 tau + 1 cancels
@settings(max_examples=200, deadline=None)
def test_p1_factorization_n4(s, tau, mu):
    lhs = p1(4, s, tau, mu)
    rhs = 6 * (mu - 4) * (s + 3 * tau + 1) * mu
    # roundoff of the summed terms, not of their sum, which may cancel;
    # below the smallest normal float it is absolute
    size = 6 * abs(mu - 4) * abs(mu) * (abs(s) + 3 * abs(tau) + 1)
    assert abs(lhs - rhs) <= 1e-14 * size + np.finfo(float).tiny


# Every clause against its polynomial, exactly.  Each polynomial is k (x - r)
# g(x) with k (x - r) >= 0 on the spectrum [x0, inf) and g linear in x, so g
# keeps one sign there iff its leading coefficient and g(x0) do.
SPECTRUM = {  # (k, r, x0) per (mode, lam)
    ("tt", 1): lambda n: (1, 2 * (n - 1), 4 * n),
    ("tt", -1): lambda n: (1, -2 * (n - 1), -n),
    ("tt", 0): lambda n: (1, 0, 0),
    ("conformal", 1): lambda n: (n - 1, n, n),
    ("conformal", -1): lambda n: (n - 1, -n, 0),
    ("conformal", 0): lambda n: (n - 1, 0, 0),
}
POLYNOMIAL = {"tt": tt_polynomial, "conformal": conformal_polynomial}
S, TAU, X = sp.symbols("s tau x")
M = sp.Symbol("m", nonnegative=True)


def _nonnegative(e, n_min):
    """e >= 0 for every n >= n_min (e may hold the symbol n)."""
    return sp.factor(sp.sympify(e).subs(sp.Symbol("n"), M + n_min)).is_nonnegative


def _sign_terms(mode, lam, n, n_min):
    """g's leading coefficient and g(x0), less those that vanish identically;
    checks that k (x - r) >= 0 on the spectrum."""
    k, r, x0 = SPECTRUM[mode, lam](n)
    assert _nonnegative(k, n_min) and _nonnegative(x0 - r, n_min)
    g = sp.cancel(POLYNOMIAL[mode](n, lam, S, TAU, X) / (k * (X - r)))
    assert sp.Poly(g, X).degree() <= 1 and X not in sp.denom(g).free_symbols
    return [e for e in (g.coeff(X, 1), g.subs(X, x0)) if sp.expand(e) != 0]


def _combines(e, forms, n_min):
    """e is a combination of the forms, with coefficients >= 0 free of s, tau
    (where the forms are dependent, the one with the free coefficients 0)."""
    c = sp.symbols(f"c:{len(forms)}")
    rest = sp.Poly(sp.expand(e - sum(ci * f for ci, f in zip(c, forms))), S, TAU)
    sols = sp.solve(rest.coeffs(), c, dict=True)
    free = dict.fromkeys(c, 0)
    return len(sols) == 1 and all(_nonnegative(ci.subs(sols[0]).subs(free), n_min) for ci in c)


def _clause_cases():
    # n = 3..8, and symbolic n from the first n that each mode's generic
    # clause covers
    for mode in ("tt", "conformal"):
        for lam in (-1, 0, 1):
            for n in range(3, 9):
                yield mode, lam, sp.Integer(n), n
            yield mode, lam, sp.Symbol("n"), 3 if mode == "tt" else 5


@pytest.mark.parametrize("mode, lam, n, n_min", list(_clause_cases()))
def test_each_clause_against_its_polynomial(mode, lam, n, n_min):
    forms = clause(mode, lam, n, S, TAU)[0]
    terms = _sign_terms(mode, lam, n, n_min)
    # all forms > 0 makes every sign term >= 0, so the polynomial >= 0 on the
    # spectrum; all < 0 makes it <= 0
    assert all(_combines(e, forms, n_min) for e in terms), terms
    if mode == "conformal":
        # and back: off the boundary lines, the polynomial >= 0 on the
        # spectrum makes all forms > 0 (and <= 0 all < 0)
        assert all(_combines(f, terms, n_min) for f in forms), forms


def test_each_form_is_judged_against_its_own_terms():
    # the forms at (s, tau, 1) / max(1, |s|, |tau|) stay finite for every
    # finite s and tau: a = 2 s + 6 tau + 2 > 0 here once overflowed
    assert classify(q(4, 1, "conformal", 1e308, 0.0)) == Verdict("LocalMin", "Thm 1.5(1)")
    # a form with small terms is not judged by the size of another: tau = 0
    # is a unit below the threshold 1 of Thm 1.1 at every s > -4
    for s in (1e11, 2e11, 1e200, 1e308):
        assert classify(q(3, 1, "tt", s, 0.0)) == Verdict("LocalMin", "Thm 1.1(1)"), s
    # points on a line stay on it beside any size of the other coefficient
    for big in (1e3, 2e11, 1e200, 1e308):
        assert classify(q(3, 1, "tt", -4.0, big)).value == "Boundary", big
        assert classify(q(3, 1, "tt", big, 1.0)).value == "Boundary", big


def test_tt_clauses_are_sufficient_only():
    # at n = 3, lam = 1, (s, tau) = (0, 1.5) the TT polynomial is >= 40 on
    # lam_L >= 12, yet tau is above the Thm 1.1 threshold 1
    y = sp.Symbol("y", nonnegative=True)
    shifted = sp.Poly(sp.expand(tt_polynomial(3, 1, sp.Integer(0), sp.Rational(3, 2), 12 + y)), y)
    assert shifted.coeff_monomial(1) == 40 and all(c >= 0 for c in shifted.coeffs())
    assert classify(q(3, 1, "tt", 0.0, 1.5)) == Verdict("Undetermined")


def test_query_validation():
    with pytest.raises(ConfigurationError):
        q(2, 1, "tt", 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        q(3, 2, "tt", 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        q(3, 1, "radial", 0.0, 0.0)


def test_worked_examples():
    v = classify(q(4, 1, "tt", 0.0, 0.0))
    assert (v.value, v.citation) == ("LocalMin", "Thm 1.1(1)")
    v = classify(q(4, 1, "conformal", -1.0, 0.0))
    assert v.value == "Boundary"
    v = classify(q(5, 1, "conformal", 0.0, 1.0))
    assert (v.value, v.citation) == ("LocalMin", "Thm 1.5(3)")
    v = classify(q(3, 1, "conformal", 0.0, 0.0))
    assert (v.value, v.citation) == ("LocalMin", "Thm 1.5(2)")
    v = classify(q(3, 1, "tt", -6.0, 2.0))
    assert (v.value, v.citation) == ("LocalMax", "Thm 1.1(2)")
    v = classify(q(3, -1, "tt", 0.0, 2.0))
    assert (v.value, v.citation) == ("LocalMin", "Thm 1.2(1)")
    v = classify(q(3, 0, "tt", 1.0, 9.0))
    assert v.value == "LocalMin"
    v = classify(q(3, 0, "tt", -4.0, 0.0))
    assert v.value == "Boundary"
    v = classify(q(4, 0, "conformal", -2.0, 0.0))
    assert v.value == "LocalMax"
    v = classify(q(4, -1, "conformal", 1.0, 1.0))
    assert (v.value, v.citation) == ("LocalMin", "Thm 1.6(1)")
    # the TT sufficient regions leave gaps
    assert classify(q(3, 1, "tt", 0.0, 2.0)).value == "Undetermined"
    assert classify(q(3, 1, "tt", -5.0, 0.0)).value == "Undetermined"


def test_negative_curvature_conformal_follows_polynomial():
    # the published clause text is inconsistent with P2; the classifier must
    # agree with the polynomial criterion everywhere
    v = classify(q(3, -1, "conformal", 1.0, 0.0))
    assert v.value == "LocalMin" and "P2" in v.citation
    # P2 changes sign over (0, inf) here, although the printed tau < 2
    # clause would accept the point as a minimizer
    v = classify(q(3, -1, "conformal", -1.2, 0.0))
    assert v.value == "Undetermined"
    # and here P2 <= 0 everywhere while the printed text claims a minimizer
    v = classify(q(3, -1, "conformal", -1.5, 0.0))
    assert v.value == "LocalMax"
    # n >= 5 local max: the strip between the two defining lines
    v = classify(q(5, -1, "conformal", -2.7, 0.5))
    assert v.value == "LocalMax"
    assert classify(q(5, -1, "conformal", -3.0, 0.5)).value == "Boundary"


def test_boundary_tolerance_is_strict():
    v = classify(q(3, 1, "tt", -4.0 + 1e-13, 0.0))
    assert v.value == "Boundary"
    v = classify(q(3, 1, "tt", -4.0 + 1e-9, 0.0))
    assert v.value == "LocalMin"


def test_boundary_tolerance_is_relative_to_the_form_size():
    # on the conformal lam = 0 line s + 4 tau - 4 (tau - 1)/n = 0 at tau = 3e8
    # the form rounds to about 6e-8, far above an absolute 1e-12
    n, tau = 3, 3e8
    s = 4 * (tau - 1) / n - 4 * tau
    assert abs(s + 4 * tau - 4 * (tau - 1) / n) > 1e-12
    assert classify(q(n, 0, "conformal", s, tau)).value == "Boundary"
    # one part in 1e9 off the line is still a verdict
    assert classify(q(n, 0, "conformal", s * (1 - 1e-9), tau)).value == "LocalMin"
    assert classify(q(n, 0, "conformal", s * (1 + 1e-9), tau)).value == "LocalMax"


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 7),
    lam=st.sampled_from([-1, 0, 1]),
    mode=st.sampled_from(["tt", "conformal"]),
    s=st.floats(-10, 6),
    tau=st.floats(-4, 4),
)
def test_classifier_consistent_with_spectra(n, lam, mode, s, tau):
    v = classify(q(n, lam, mode, s, tau))
    if v.value not in ("LocalMin", "LocalMax"):
        return
    coeff = Coefficients(s, tau)
    if mode == "tt":
        grid = {
            1: np.linspace(4 * n, 40 * n, 40),
            -1: np.linspace(-n, 30 * n, 40),
            0: np.linspace(0.5, 150, 30),
        }[lam]
        vals = np.array(
            [second_variation_tt_predicted(n, lam, float(m), coeff, 1.0) for m in grid]
        )
    else:
        if lam == 1:
            vals = p1(n, s, tau, np.linspace(n, 40 * n, 60))
        elif lam == -1:
            vals = p2(n, s, tau, np.linspace(1e-3, 40 * n, 60))
        else:
            mu = np.linspace(0.5, 100, 30)
            vals = 0.5 * (n - 1) * (s * n + 4 * (n - 1) * tau + 4) * mu**2
    tol = 1e-9 * max(1.0, np.abs(vals).max())
    if v.value == "LocalMin":
        assert vals.min() >= -tol
    else:
        assert vals.max() <= tol


def test_emit_atlas_csv():
    text = emit_atlas(4, 1, "conformal", (-4, 2), (-2, 2), 50)
    lines = text.strip().split("\n")
    assert lines[0] == "n,lambda,mode,s,tau,verdict,citation"
    assert len(lines) == 2501
    # the verdict changes exactly across the line s + 3 tau = -1
    for row in lines[1:]:
        n_, lam_, mode_, s_, tau_, verdict, _ = row.split(",", 6)
        form = float(s_) + 3 * float(tau_) + 1
        if abs(form) <= 1e-12:
            assert verdict == "Boundary"
        elif form > 0:
            assert verdict == "LocalMin"
        else:
            assert verdict == "LocalMax"


def test_atlas_tt_split_lines():
    text = emit_atlas(3, 1, "tt", (-8, 0), (0, 2), 9)
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 81
    for row in rows:
        _, _, _, s_, tau_, verdict, _ = row.split(",", 6)
        s, tau = float(s_), float(tau_)
        if abs(s + 4) <= 1e-12 or abs(tau - 1) <= 1e-12:
            assert verdict == "Boundary"
        elif s > -4 and tau < 1:
            assert verdict == "LocalMin"
        elif s < -4 and tau > 1:
            assert verdict == "LocalMax"
        else:
            assert verdict == "Undetermined"


def test_atlas_degenerate_and_json():
    import json

    text = emit_atlas(3, 0, "tt", (-5, -3), (0, 1), 2)
    assert len(text.strip().split("\n")) == 5
    jtext = emit_atlas(3, 0, "tt", (-5, -3), (0, 1), 2, fmt="json")
    rows = json.loads(jtext)
    assert len(rows) == 4 and all(r["verdict"] for r in rows)
    with pytest.raises(ConfigurationError):
        emit_atlas(3, 0, "tt", (-5, -3), (0, 1), 1)
    with pytest.raises(ConfigurationError):
        emit_atlas(3, 0, "tt", (-np.inf, 0), (0, 1), 3)


def test_atlas_refinement_invariance():
    coarse = emit_atlas(5, 1, "conformal", (-6, 2), (-2, 2), 5)
    fine = emit_atlas(5, 1, "conformal", (-6, 2), (-2, 2), 9)

    def parse(text):
        out = {}
        for row in text.strip().split("\n")[1:]:
            _, _, _, s_, tau_, verdict, _ = row.split(",", 6)
            out[(s_, tau_)] = verdict
        return out

    c, f = parse(coarse), parse(fine)
    shared = set(c) & set(f)
    assert shared and all(c[k] == f[k] for k in shared)


def test_verdict_citation_uniqueness():
    v = classify(q(4, 1, "tt", 0.0, 0.0))
    assert isinstance(v, Verdict) and v.citation.count("Thm") == 1
    u = classify(q(3, 1, "tt", 0.0, 2.0))
    assert u.citation == ""
