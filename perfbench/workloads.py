"""The benchmark's workloads: set-up, timed cases and the checks on their outputs.

Every call goes through a module attribute (``charts.make_model``,
``cli.run``, ...) so the tracer's rebinding sees it.  Inputs come from the
seed alone; the program receives only the generated arguments.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import curvlab
from curvlab import atlas, charts, cli, fields, spectral, tensors, variations, verify
from curvlab.functionals import Coefficients

# Tolerances of the checks the benchmark makes itself; CLI checks use the
# tolerance written into their report, or the CLI default where none is.
SPACE_FORM_TOL = 1e-6  # `curvature --tol` default
HESSIAN_TOL = 0.01  # `verify-hessian --tol` default
RAYLEIGH_TOL = 1e-3  # `rayleigh --tol` default
IDENTITY_TOL = 1e-4  # `check-identities --tol` default, also for Lap Ric / Hess R
POINTWISE_TOL = 1e-9  # exact identities at a single node, relative to the tensor size
PROBE_MARGIN = 0.08  # as tests/conftest.random_probes


@dataclass
class Check:
    case: str
    name: str
    err: float | None  # the check's own error; None for pass/fail-only checks
    ok: bool
    layer: str | None = None  # per-layer accuracy metric this error feeds
    note: str = ""


class Checks:
    """Outcome of every check a run makes."""

    def __init__(self):
        self.rows: list[Check] = []

    def add(self, case, name, err, tol, layer=None, problem=None):
        err = None if err is None else float(err)
        ok = problem is None and (err is None or (math.isfinite(err) and err <= tol))
        note = problem or ("" if ok else f"error {err!r} above tolerance {tol!r}")
        self.rows.append(Check(case, name, err, ok, layer, note))

    def fail(self, case, name, note):
        self.rows.append(Check(case, name, None, False, None, note))

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.rows)

    @property
    def failed_frac(self) -> float:
        return self.failed / max(1, self.attempted)

    def accuracy_digits(self) -> float:
        """min over checks of -log10(max(err, 1e-16))."""
        errs = [r.err for r in self.rows if r.err is not None and math.isfinite(r.err)]
        return min((-math.log10(max(e, 1e-16)) for e in errs), default=16.0)

    def layer_errors(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.rows:
            if r.layer is not None and r.err is not None:
                out[r.layer] = max(out.get(r.layer, 0.0), r.err)
        return out


@dataclass
class Context:
    """What set-up built, plus the per-run report bookkeeping."""

    seed: int
    workdir: Path
    digests: dict[str, str]  # case -> SHA-256 of its first report
    fields: dict[str, object] = field(default_factory=dict)
    inputs: dict[str, object] = field(default_factory=dict)
    reports: dict[str, dict] = field(default_factory=dict)


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[Context, Checks], None]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Context], None]
    cases: Callable[[Context], list[Case]]
    # whether case times are rescaled to the reference host speed (see
    # child.HostSpeed); off where the kernel was measured not to track them
    rescale: bool = True


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def probes(domain, rng, count):
    """Random chart points keeping a margin from non-periodic boundaries."""
    lo = np.array([b[0] for b in domain.bounds])
    hi = np.array([b[1] for b in domain.bounds])
    margin = np.where(domain.periodic, 0.0, PROBE_MARGIN * (hi - lo))
    return rng.uniform(lo + margin, hi - margin, size=(count, domain.dimension))


def space_form_dev(g, Rm4, lam) -> float:
    """max |Rm - lam (g o g)/2|, relative to the size of the model tensor."""
    model = lam * (np.einsum("...lj,...ik->...lijk", g, g) - np.einsum("...lk,...ij->...lijk", g, g))
    return float(np.max(np.abs(Rm4 - model)) / max(1.0, np.max(np.abs(model))))


def rel_dev(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def run_cli(ctx: Context, case: str, argv: list[str]) -> tuple[bytes, str | None]:
    """Run one CLI command with ``--out``; returns the report and any problem.

    A non-zero exit or a report whose bytes differ from the first report of
    this case (earlier pass, or earlier run with the same seed and source)
    is a problem.
    """
    out = ctx.workdir / f"{case}.out"
    code = cli.run(argv + ["--out", str(out)])
    data = out.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    first = ctx.digests.setdefault(case, digest)
    ctx.reports.setdefault(case, {"argv": argv, "exit": code, "sha256": digest})
    if code != 0:
        return data, f"exit code {code}"
    if digest != first:
        return data, f"report digest {digest[:12]} differs from {first[:12]}"
    return data, None


def cli_check(ctx, checks, case, argv, error_of, tol=None, layer=None):
    data, problem = run_cli(ctx, case, argv)
    report = json.loads(data)
    err = error_of(report)
    checks.add(case, "report", err, report.get("tol", tol), layer, problem)


def verdict_consistent(q: atlas.StabilityQuery, verdict: str) -> bool:
    """A LocalMin/LocalMax verdict must agree with the sign of the closed-form
    second variation on sampled admissible eigenvalues."""
    if verdict not in (atlas.LOCAL_MIN, atlas.LOCAL_MAX):
        return verdict in (atlas.BOUNDARY, atlas.UNDETERMINED)
    n, lam, coeff = q.n, q.lam, Coefficients(q.s, q.tau)
    grid = np.array([0.0, 0.01, 0.5, 1.0, 3.0, 10.0, 100.0])
    if q.mode == atlas.TT:
        start = {1: 4 * n, -1: -n, 0: 0.1}[lam]
        values = [variations.second_variation_tt_predicted(n, lam, start + v, coeff, 1.0) for v in grid]
    else:
        start = {1: n, -1: 0.01, 0: 0.01}[lam]
        values = [variations.second_variation_conformal_predicted(n, lam, start + v, coeff, 1.0) for v in grid]
    sign = 1.0 if verdict == atlas.LOCAL_MIN else -1.0
    scale = max(1.0, max(abs(v) for v in values))
    return all(sign * v >= -1e-12 * scale for v in values)


def random_query(rng) -> atlas.StabilityQuery:
    return atlas.StabilityQuery(
        n=int(rng.integers(3, 7)),
        lam=int(rng.integers(-1, 2)),
        mode=(atlas.TT, atlas.CONFORMAL)[int(rng.integers(0, 2))],
        s=round(float(rng.uniform(-8.0, 4.0)), 4),
        tau=round(float(rng.uniform(-2.0, 2.0)), 4),
    )


def default_of(fn, param):
    return inspect.signature(fn).parameters[param].default


# ---------------------------------------------------------------------------
# identity-suites: nested finite differences of computed curvature
# ---------------------------------------------------------------------------


def identity_setup(ctx: Context) -> None:
    ctx.fields["s3-euler"] = charts.make_model("s3-euler", 3)
    ctx.fields["s3-invariant-tt"] = spectral.s3_invariant_tt((2.0, -1.0, -1.0))
    ctx.fields["s3-first-harmonic"] = verify.s3_first_harmonic()


def _identity_cli(mode):
    def run(ctx, checks):
        cli_check(
            ctx, checks, f"check-identities-{mode}", ["check-identities", "--mode", mode],
            lambda r: max(c["rel_err"] for c in r["checks"]),
            layer="variations.identity_rel_err",
        )
    return Case(f"check-identities-{mode}", run)


def _generic_ingredients(ctx, checks):
    base = ctx.fields["s3-euler"]
    grid = charts.build_grid(base.domain, default_of(verify.identity_case, "res"))
    ing = variations.gradient_ingredients(base, grid.nodes, use_structure=False)
    err = max(float(np.max(np.abs(ing["lap_ric"]))), float(np.max(np.abs(ing["hess_R"]))))
    checks.add("gradient-ingredients-generic", "lap_ric_hess_R", err, IDENTITY_TOL,
               "variations.generic_lap_ric")
    b = ing["bundle"]
    checks.add("gradient-ingredients-generic", "space_form", space_form_dev(b.g, b.Rm4, base.lam),
               SPACE_FORM_TOL, "tensors.spaceform_dev")


def identity_cases(ctx: Context) -> list[Case]:
    cases = [_identity_cli("tt"), _identity_cli("conformal"),
             Case("gradient-ingredients-generic", _generic_ingredients)]
    # the suites run at their CLI defaults; the seed only fixes the case order
    order = np.random.default_rng(ctx.seed).permutation(len(cases))
    return [cases[i] for i in order]


# ---------------------------------------------------------------------------
# space-form-checks: every other CLI subcommand on space-form bases
# ---------------------------------------------------------------------------


def spaceform_setup(ctx: Context) -> None:
    rng = np.random.default_rng(ctx.seed)
    for n in (3, 4, 5):
        ctx.fields[f"sphere-{n}"] = charts.make_model("sphere", n)
    ctx.fields["s3-euler"] = charts.make_model("s3-euler", 3)
    ctx.fields["torus-3"] = charts.make_model("torus", 3)
    ctx.fields["s3-invariant-tt"] = spectral.s3_invariant_tt((2.0, -1.0, -1.0))
    ctx.fields["torus-tt"] = spectral.torus_tt_mode(3, (1, 0, 0), np.diag([0.0, 1.0, -1.0]))
    # fills the S^3 embedding-jet cache that verify-gradient --model s3 uses
    ctx.fields["sphere-pullback"] = fields.random_sphere_sym_tensor(3, rng)
    a, b = (int(v) for v in rng.integers(1, 4, size=2))
    q = random_query(rng)
    ctx.inputs.update(
        gradient_seed=int(rng.integers(0, 2**31 - 1)),
        s=round(float(rng.uniform(-2.0, 2.0)), 3),
        tau=round(float(rng.uniform(-1.0, 1.0)), 3),
        d=(a, -b, b - a) if a != b else (a, -2 * b, b),
        query=q,
        atlas=(int(rng.integers(3, 7)), int(rng.integers(-1, 2)),
               (atlas.TT, atlas.CONFORMAL)[int(rng.integers(0, 2))]),
    )


def _curvature_cli(model, n):
    case = f"curvature-{model}-{n}"

    def run(ctx, checks):
        cli_check(ctx, checks, case, ["curvature", "--model", model, "--n", str(n)],
                  lambda r: max(r["max_rm_dev"], r["max_ric_dev"], r["max_r_dev"]),
                  layer="tensors.spaceform_dev")
    return Case(case, run)


# Random torus directions lose 6-11 digits about one time in three, so the
# torus case samples enough of them that every run sees that tail.
GRADIENT_COUNT = {"s3": 3, "torus": 30}


def _gradient_cli(model):
    case = f"verify-gradient-{model}"

    def run(ctx, checks):
        argv = ["verify-gradient", "--model", model, "--n", "3",
                "--count", str(GRADIENT_COUNT[model]), "--seed", str(ctx.inputs["gradient_seed"])]
        cli_check(ctx, checks, case, argv, lambda r: max(row["rel_err"] for row in r["rows"]))
    return Case(case, run)


def _hessian_cli(model, nonzero):
    case = f"verify-hessian-{model}" + ("-st" if nonzero else "")

    def run(ctx, checks):
        argv = ["verify-hessian", "--model", model]
        if nonzero:
            argv += ["--s", repr(ctx.inputs["s"]), "--tau", repr(ctx.inputs["tau"])]
        cli_check(ctx, checks, case, argv, lambda r: r["rel_err_d2"], HESSIAN_TOL,
                  "variations.d2_rel_err")
    return Case(case, run)


def _rayleigh_cli(model):
    case = f"rayleigh-{model}"

    def run(ctx, checks):
        argv = ["rayleigh", "--model", model]
        if model == "s3-invariant":
            argv += ["--d", ",".join(str(v) for v in ctx.inputs["d"])]
        cli_check(ctx, checks, case, argv,
                  lambda r: abs(r["quotient"] - r["expected_quotient"]), RAYLEIGH_TOL,
                  "spectral.quotient_err")
    return Case(case, run)


def _classify_cli(ctx, checks):
    q = ctx.inputs["query"]
    argv = ["classify", "--n", str(q.n), "--lambda", str(q.lam), "--mode", q.mode,
            "--s", repr(q.s), "--tau", repr(q.tau), "--format", "json"]
    data, problem = run_cli(ctx, "classify", argv)
    if problem is None and not verdict_consistent(q, json.loads(data)["verdict"]):
        problem = "verdict contradicts the closed-form second variation"
    checks.add("classify", "verdict", None, None, problem=problem)


def _atlas_cli(ctx, checks):
    n, lam, mode = ctx.inputs["atlas"]
    res = 21
    argv = ["atlas", "--n", str(n), "--lambda", str(lam), "--mode", mode,
            "--s-min", "-8", "--s-max", "4", "--tau-min", "-2", "--tau-max", "2",
            "--res", str(res), "--format", "csv"]
    data, problem = run_cli(ctx, "atlas", argv)
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if problem is None and len(rows) != res * res:
        problem = f"{len(rows)} atlas rows, expected {res * res}"
    if problem is None:
        for row in rows:
            q = atlas.StabilityQuery(n, lam, mode, float(row["s"]), float(row["tau"]))
            if not verdict_consistent(q, row["verdict"]):
                problem = f"verdict at s={row['s']} tau={row['tau']} contradicts the closed form"
                break
    checks.add("atlas", "rows", None, None, problem=problem)


def spaceform_cases(ctx: Context) -> list[Case]:
    return (
        [_curvature_cli("sphere", n) for n in (3, 4, 5)]
        + [_curvature_cli("s3-euler", 3)]
        + [_gradient_cli("s3"), _gradient_cli("torus")]
        + [_hessian_cli(m, nz) for m in verify.HESSIAN_MODELS for nz in (False, True)]
        + [_rayleigh_cli("s3-invariant"), _rayleigh_cli("torus-tt")]
        + [Case("classify", _classify_cli), Case("atlas", _atlas_cli)]
    )


# ---------------------------------------------------------------------------
# pointwise-probes: single-node calls where per-call overhead dominates
# ---------------------------------------------------------------------------

PROBES = {"space_form": 16, "tt_mode": 8, "gradient_s4": 8, "gradient_torus": 2, "queries": 64}


def pointwise_setup(ctx: Context) -> None:
    rng = np.random.default_rng(ctx.seed)
    f = ctx.fields
    f["sphere-4"] = charts.make_model("sphere", 4)
    f["poincare-3"] = charts.make_model("poincare", 3)
    f["s3-euler"] = charts.make_model("s3-euler", 3)
    f["s3-invariant-tt"] = spectral.s3_invariant_tt((2.0, -1.0, -1.0))
    f["random-torus"] = fields.random_torus_metric(3, rng)
    k = PROBES
    ctx.inputs.update(
        sphere=probes(f["sphere-4"].domain, rng, k["space_form"]),
        poincare=probes(f["poincare-3"].domain, rng, k["space_form"]),
        euler=probes(f["s3-euler"].domain, rng, k["tt_mode"]),
        gradient_s4=probes(f["sphere-4"].domain, rng, k["gradient_s4"]),
        gradient_torus=probes(f["random-torus"].domain, rng, k["gradient_torus"]),
        coeff=Coefficients(round(float(rng.uniform(-2, 2)), 3), round(float(rng.uniform(-1, 1)), 3)),
        queries=[random_query(rng) for _ in range(k["queries"])],
    )


def _curvature_probe(key, field_key):
    def run(ctx, checks):
        base = ctx.fields[field_key]
        for x in ctx.inputs[key]:
            b = tensors.curvature(base, x)
            checks.add(f"curvature-{key}", "space_form", space_form_dev(b.g, b.Rm4, base.lam),
                       SPACE_FORM_TOL, "tensors.spaceform_dev")
    return Case(f"curvature-{key}", run)


def _tt_probe(name, residual):
    def run(ctx, checks):
        base, h = ctx.fields["s3-euler"], ctx.fields["s3-invariant-tt"]
        for x in ctx.inputs["euler"]:
            checks.add(name, "residual", residual(base, h, x), POINTWISE_TOL)
    return Case(name, run)


def _cov_deriv_residual(base, h, x):
    # on the unit S^3 the invariant TT mode has Lap h = -6 h
    D2h = tensors.covariant_derivative(base, h, x, order=2)
    lap = np.einsum("kl,ijkl->ij", np.linalg.inv(base.metric(x)), D2h)
    return rel_dev(lap, -6.0 * h.components(x))


def _lichnerowicz_residual(base, h, x):
    return rel_dev(tensors.lichnerowicz(base, h, x), -12.0 * h.components(x))


def _variation_residual(base, h, x):
    # TT on the unit S^3: Ric' = -Lap_L h / 2 = 6 h and R' = 0
    v = variations.curvature_variations(base, h, x)
    return max(rel_dev(v["dRic"], 6.0 * h.components(x)), abs(float(v["dR"])))


def _gradient_s4(ctx, checks):
    base = ctx.fields["sphere-4"]
    for x in ctx.inputs["gradient_s4"]:
        G = variations.gradient_tensor(base, x, ctx.inputs["coeff"]).grad_total
        g = base.metric(x)
        trace = np.einsum("ij,ij", np.linalg.inv(g), G)
        # a space form is critical: the gradient is a multiple of g
        checks.add("gradient-s4", "trace_free", rel_dev(G - trace / 4 * g, G), POINTWISE_TOL)


def _gradient_torus(ctx, checks):
    base = ctx.fields["random-torus"]
    for x in ctx.inputs["gradient_torus"]:
        G = variations.gradient_tensor(base, x, ctx.inputs["coeff"]).grad_total
        # generic nested-FD path: no closed form, but G must be symmetric
        checks.add("gradient-torus", "symmetry", rel_dev(G, G.T), 1e-6)


def _classify_probe(ctx, checks):
    for q in ctx.inputs["queries"]:
        v = atlas.classify(q)
        problem = None if verdict_consistent(q, v.value) else f"{v.value} at {q}"
        checks.add("classify", "verdict", None, None, problem=problem)


def pointwise_cases(ctx: Context) -> list[Case]:
    return [
        _curvature_probe("sphere", "sphere-4"),
        _curvature_probe("poincare", "poincare-3"),
        _tt_probe("covariant-derivative-tt", _cov_deriv_residual),
        _tt_probe("lichnerowicz-tt", _lichnerowicz_residual),
        _tt_probe("curvature-variations-tt", _variation_residual),
        Case("gradient-s4", _gradient_s4),
        Case("gradient-torus", _gradient_torus),
        Case("classify", _classify_probe),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # three cases of 3-10 s on large arrays: over ten seeds their raw
        # times spread 0.10 and the rescaled ones 0.21, so they stay raw
        Workload("identity-suites", identity_setup, identity_cases, rescale=False),
        Workload("space-form-checks", spaceform_setup, spaceform_cases),
        Workload("pointwise-probes", pointwise_setup, pointwise_cases),
    )
}


def provenance(ctx: Context) -> dict:
    """Program constants and field derivative modes the run used."""
    return {
        "curvlab": curvlab.__version__,
        "DEFAULT_FD_REL_STEP": fields.DEFAULT_FD_REL_STEP,
        "FIELD_FD_REL_STEP": tensors.FIELD_FD_REL_STEP,
        "t_step": {
            "verify.hessian_case": default_of(verify.hessian_case, "t_step"),
            "variations.first_variation_numeric": default_of(variations.first_variation_numeric, "t_step"),
        },
        "deriv_mode": {k: getattr(v, "deriv_mode", None) for k, v in ctx.fields.items()},
        "inputs": {k: f"{len(v)} items" if isinstance(v, (list, np.ndarray)) else
                   v if isinstance(v, (int, float, str, tuple)) else repr(v)
                   for k, v in ctx.inputs.items()},
    }
