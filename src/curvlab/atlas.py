"""Stability classification of (s, tau) at constant-curvature critical metrics.

Verdict semantics
-----------------
Every verdict is a *sufficient* statement about the sign of the second
variation over the whole admissible spectrum of the relevant mode family:

* TT mode: sign of :func:`tt_polynomial` (lam_L - 2(n-1) lam) ((4+s)/2 lam_L
  - lam (2n+4 + (n-1)(2s + n tau))) over the admissible -Lap_L eigenvalues
  (lam_L >= 4n for lam = 1, lam_L >= -n for lam = -1, lam_L > 0 for lam = 0).
* Conformal mode: sign of :func:`conformal_polynomial` (n-1)(mu - lam n)
  (a mu + lam b), a and b as in the clause table: P1 (lam = 1) over mu >= n,
  P2 (lam = -1) over mu > 0, and (n-1) a mu^2 (lam = 0) over mu > 0.

Clause table used in citations (LocalMin regions; LocalMax mirrors them):

==========  =========  =====================================================
citation    case       LocalMin region
==========  =========  =====================================================
Thm 1.1(1)  TT,  +1    s > -4 and tau < (6n-12)/(n(n-1))
Thm 1.2(1)  TT,  -1    s > -4 and tau > (6n-12)/(n(n-1))
Thm 1.3     TT,   0    s > -4                       (Cor 3.1)
Thm 1.4     Conf, 0    s + 4 tau > 4(tau-1)/n       (Cor 3.2)
Thm 1.5     Conf,+1    a > 0 and a n + b > 0, where
                       a = (n s - 4 tau + 4 n tau + 4)/2,
                       b = (n-4)(n^2 tau + n s - n tau - s + 2)
Thm 1.6     Conf,-1    a > 0 and b < 0
==========  =========  =====================================================

For the conformal families the inequalities above are exactly equivalent to
"P1 >= 0 on [n, inf)" / "P2 >= 0 on (0, inf)", so classifier verdicts can
never contradict sampled polynomial signs.  For lam = -1 with n != 4 the
published clause text for these regions is internally inconsistent with P2;
the classifier follows the polynomial criterion and flags this in the
citation string.

The table is written once, in :func:`clause`, as one or two linear forms in
(s, tau) per (mode, lam, n), homogeneous in (s, tau, 1).  One rule, in
:func:`classify`, reads each form at (s, tau, 1)/m, m = max(1, |s|, |tau|),
which keeps its sign and every argument in [-1, 1], so the form stays finite
for every finite s and tau: Boundary if any form is within BOUNDARY_TOL of 0
relative to the size of its own terms, sum |coefficient x argument|, LocalMin
if all are positive, LocalMax if all are negative, otherwise Undetermined (the
conditions are sufficient only, so no Indefinite verdict is ever claimed).  A
query whose forms are not finite floats (n beyond the float range) gets no
verdict: ``classify`` raises ConfigurationError.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .errors import ConfigurationError

# A point is on a defining line when the line's linear form is within
# BOUNDARY_TOL of zero relative to the size of the form's own terms, so that
# rounding them cannot move a point on the line to LocalMin or LocalMax.
BOUNDARY_TOL = 1e-12
_OVERFLOWED = "n too large to classify: the clause forms overflow"
# The largest atlas resolution, refused before any row is built: a row
# costs about 600 B, so 512^2 rows take about 160 MB.
MAX_ATLAS_RESOLUTION = 512

LOCAL_MIN = "LocalMin"
LOCAL_MAX = "LocalMax"
BOUNDARY = "Boundary"
UNDETERMINED = "Undetermined"

TT = "tt"
CONFORMAL = "conformal"
MODES = (TT, CONFORMAL)


def _conformal_ab(n, s, tau, one=1):
    """The coefficients a, b of the conformal polynomial (clause table),
    linear in (s, tau, one)."""
    a = (n * s - 4 * tau + 4 * n * tau + 4 * one) / 2
    b = (n - 4) * (n**2 * tau + n * s - n * tau - s + 2 * one)
    return a, b


def tt_polynomial(n, lam, s, tau, lam_L):
    """TT second variation per unit |h|^2 at curvature lam in {-1, 0, 1}."""
    flat = (4 + s) / 2 * lam_L
    if lam == 0:  # no curvature term: 0 * inf at a tau beyond the float range
        return lam_L * flat
    return (lam_L - 2 * (n - 1) * lam) * (
        flat - lam * (2 * n + 4) - lam * (n - 1) * (2 * s + n * tau)
    )


def conformal_polynomial(n, lam, s, tau, mu):
    """Conformal second variation per unit |f|^2 at curvature lam in {-1, 0, 1}."""
    a, b = _conformal_ab(n, s, tau)
    return (n - 1) * (mu - lam * n) * (a * mu + lam * b)


def p1(n, s, tau, mu):
    """P1, the conformal polynomial at lam = 1."""
    return conformal_polynomial(n, 1, s, tau, mu)


def p2(n, s, tau, mu):
    """P2, the conformal polynomial at lam = -1."""
    return conformal_polynomial(n, -1, s, tau, mu)


@dataclass(frozen=True)
class StabilityQuery:
    n: int
    lam: int
    mode: str
    s: float
    tau: float

    def __post_init__(self):
        if self.n < 3:
            raise ConfigurationError("stability queries need n >= 3")
        if self.lam not in (-1, 0, 1):
            raise ConfigurationError("lam must be -1, 0 or 1")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be '{TT}' or '{CONFORMAL}'")
        if not (np.isfinite(self.s) and np.isfinite(self.tau)):
            raise ConfigurationError("s and tau must be finite")


@dataclass(frozen=True)
class Verdict:
    value: str
    citation: str = ""


def clause(mode, lam, n, s, tau, one=1):
    """The clause of Thms 1.1-1.6 that decides (mode, lam, n) at (s, tau), as
    ``(forms, cite_min, cite_max, theorem)``: linear forms in (s, tau) that are
    all positive on the LocalMin region and all negative on the LocalMax one,
    the two citations, and the theorem a Boundary citation names.  Each form
    is linear in (s, tau, one): at (s, tau, 1)/m it is the form divided by m."""
    if mode == TT:
        if lam == 0:
            return (s + 4 * one,), "Thm 1.3 / Cor 3.1", "Thm 1.3 / Cor 3.1", "Thm 1.3"
        thr = (6 * n - 12) / (n * (n - 1))
        if lam == 1:
            return (s + 4 * one, thr * one - tau), "Thm 1.1(1)", "Thm 1.1(2)", "Thm 1.1"
        return (s + 4 * one, tau - thr * one), "Thm 1.2(1)", "Thm 1.2(2)", "Thm 1.2"
    if lam == 0:
        cite = "Thm 1.4 / Cor 3.2"
        return (s + 4 * tau - 4 * (tau - one) / n,), cite, cite, "Thm 1.4"
    a, b = _conformal_ab(n, s, tau, one)
    if n == 4:  # b = 0
        cite = "Thm 1.5(1)" if lam == 1 else "Thm 1.6(1)"
        return (a,), cite, cite, cite
    if lam == 1:  # P1 >= 0 on [n, inf) iff a >= 0 and a n + b >= 0
        cite = "Thm 1.5(2)" if n == 3 else "Thm 1.5(3)"
        return (a, a * n + b), cite, cite, cite
    # P2 >= 0 on (0, inf) iff a >= 0 and b <= 0
    cite = ("Thm 1.6(2)" if n == 3 else "Thm 1.6(3)") + ", regions per P2 criterion"
    return (a, -b), cite, cite, cite


@lru_cache(maxsize=64)
def _table_row(mode, lam, n) -> tuple:
    """The clause of (mode, lam, n) with each form as its coefficients of
    (s, tau, one), the forms at the unit vectors, made in exact integer
    arithmetic where n enters and rounded to floats; raises
    ConfigurationError when n or a coefficient is not a finite float."""
    try:
        float(n)  # beyond the float range, thr = 6/n and its kin round to 0
        rows = [clause(mode, lam, n, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        coefficients = tuple(tuple(map(float, form)) for form in zip(*(r[0] for r in rows)))
    except OverflowError:
        raise ConfigurationError(_OVERFLOWED) from None
    if not all(isfinite(c) for form in coefficients for c in form):
        raise ConfigurationError(_OVERFLOWED)
    return (coefficients,) + rows[0][1:]


def classify(q: StabilityQuery) -> Verdict:
    """Stability verdict for the query, with the clause that fired: the one
    verdict rule read on the clause's forms at (s, tau, 1)/m, each the sum of
    its terms coefficient x argument, judged against their magnitudes."""
    forms, cite_min, cite_max, theorem = _table_row(q.mode, q.lam, q.n)
    m = max(1.0, abs(q.s), abs(q.tau))
    s, tau, one = q.s / m, q.tau / m, 1.0 / m
    positive = negative = boundary = False
    for cs, ct, c1 in forms:
        a, b, c = cs * s, ct * tau, c1 * one
        f, size = a + b + c, abs(a) + abs(b) + abs(c)
        if not isfinite(size):  # |a| + |b| + |c| overflows
            raise ConfigurationError(_OVERFLOWED)
        if abs(f) <= BOUNDARY_TOL * size:
            boundary = True
        elif f > 0:
            positive = True
        else:
            negative = True
    if boundary:
        return Verdict(BOUNDARY, "boundary of " + theorem)
    if not negative:
        return Verdict(LOCAL_MIN, cite_min)
    if not positive:
        return Verdict(LOCAL_MAX, cite_max)
    return Verdict(UNDETERMINED)


def emit_atlas(
    n: int,
    lam: int,
    mode: str,
    s_range: tuple[float, float],
    tau_range: tuple[float, float],
    resolution: int,
    fmt: str = "csv",
) -> str:
    """Classify a (s, tau) grid and serialize it.

    Rows run tau-major (outer loop over tau, inner over s) and are fully
    deterministic.  Returns the serialized text, CSV or JSON; the ``atlas``
    subcommand writes it through the CLI's one report writer.
    """
    if not 2 <= resolution <= MAX_ATLAS_RESOLUTION:
        raise ConfigurationError(
            f"atlas resolution must be between 2 and {MAX_ATLAS_RESOLUTION}, got {resolution}"
        )
    if not np.isfinite([*s_range, *tau_range]).all():
        raise ConfigurationError("atlas ranges must be finite")
    ss = np.linspace(s_range[0], s_range[1], resolution)
    taus = np.linspace(tau_range[0], tau_range[1], resolution)
    rows = []
    for tau in taus:
        for s in ss:
            v = classify(StabilityQuery(n=n, lam=lam, mode=mode, s=float(s), tau=float(tau)))
            rows.append(
                {
                    "n": n,
                    "lambda": lam,
                    "mode": mode,
                    "s": repr(float(s)),
                    "tau": repr(float(tau)),
                    "verdict": v.value,
                    "citation": v.citation,
                }
            )
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=["n", "lambda", "mode", "s", "tau", "verdict", "citation"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(rows, sort_keys=True, indent=None) + "\n"
    else:
        raise ConfigurationError(f"unknown atlas format {fmt!r}")
    return text
