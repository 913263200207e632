"""Command-line interface.

Subcommands: curvature, check-identities, verify-gradient, verify-hessian,
rayleigh, classify, atlas.  Exit codes: 0 success, 1 usage or configuration
error, 2 tolerance failure (the report is still written).  Reports are
byte-identical across runs with the same configuration, and across calls of
:func:`run` in one process, which share one parser.

Each ``_cmd_*`` handler builds its report from what its case returns and
hands back ``(text, ok)``; every report leaves through one writer,
:func:`_write`, to stdout or to the ``--out`` file.  An ``--out`` that cannot
be written (a missing directory, a directory) is a configuration error:
exit 1 with one ``error:`` line.

``--config`` names a JSON object of defaults for the subcommand's flags
(keys as the flag names, e.g. ``"lambda"``, ``"s-min"``); values pass
through the same type conversion and choices as on the command line, and an
unknown key is a usage error; a flag given on the command line wins.  Flags
are spelled in full (``--ta`` for ``--tau`` is a usage error).  Float flags
accept finite values only, and ``--tol`` no negative one.  The computations
are vectorized numpy; cap the BLAS thread pool with ``OMP_NUM_THREADS`` in
the environment before starting the process.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from . import atlas as atlas_mod
from .charts import MODEL_CURVATURE_SIGN
from .errors import ConfigurationError, CurvlabError
from .functionals import Coefficients
from .variations import SECOND_VARIATION_STEP
from .verify import (
    GRADIENT_MODELS,
    HESSIAN_MODELS,
    IDENTITY_MODES,
    RAYLEIGH_MODELS,
    curvature_case,
    gradient_case,
    hessian_case,
    identity_case,
    rayleigh_case,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no abbreviated flags: _merge_config knows a flag was given only by
        # its full option string, so a config value would override --ta 5
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a minus and a digit (or a dot and a digit) start a value: -1e-3, -1,2,-1
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write(text: str, out: str | None) -> None:
    """The one writer of every report: the ``--out`` file, else stdout."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write report to {out}: {exc}") from exc


def finite_float(text: str) -> float:
    """The type of every float flag: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def tolerance(text: str) -> float:
    """The type of every --tol flag: a finite float, at least 0."""
    value = finite_float(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def finite_float_list(text: str) -> tuple[float, ...]:
    return tuple(finite_float(v) for v in text.split(","))


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="curvlab", description="quadratic curvature functional lab")
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    c = sub.add_parser("curvature", help="space-form curvature deviations")
    c.add_argument("--model", default="sphere", choices=list(MODEL_CURVATURE_SIGN))
    c.add_argument("--n", type=int, default=3)
    c.add_argument("--radius", type=finite_float, default=1.0)
    c.add_argument("--tol", type=tolerance, default=1e-6)
    c.add_argument("--out")

    ci = sub.add_parser("check-identities", help="TT/conformal integral identity battery")
    ci.add_argument("--mode", required=True, choices=list(IDENTITY_MODES))
    ci.add_argument("--tol", type=tolerance, default=1e-4)
    ci.add_argument("--out")

    vg = sub.add_parser("verify-gradient", help="first variation vs complex-step derivative")
    vg.add_argument("--model", default="torus", choices=list(GRADIENT_MODELS))
    vg.add_argument("--n", type=int, default=3)
    vg.add_argument("--count", type=int, default=10)
    vg.add_argument("--seed", type=int, default=0)
    vg.add_argument("--s", type=finite_float, default=0.0)
    vg.add_argument("--tau", type=finite_float, default=0.0)
    vg.add_argument("--tol", type=tolerance, default=1e-4)
    vg.add_argument("--out")

    vh = sub.add_parser("verify-hessian", help="second variation vs closed form")
    vh.add_argument("--model", default="s3-invariant", choices=list(HESSIAN_MODELS))
    vh.add_argument("--s", type=finite_float, default=0.0)
    vh.add_argument("--tau", type=finite_float, default=0.0)
    vh.add_argument("--t-step", type=finite_float, default=SECOND_VARIATION_STEP,
                    help="rotated complex step: F at t = +-t_step exp(i pi/4), error O(t_step^4)")
    vh.add_argument("--tol", type=tolerance, default=0.01)
    vh.add_argument("--out")

    r = sub.add_parser("rayleigh", help="Rayleigh quotient of the Lichnerowicz operator")
    r.add_argument("--model", default="s3-invariant", choices=list(RAYLEIGH_MODELS))
    r.add_argument("--d", type=finite_float_list, help="comma-separated invariant-mode coefficients")
    r.add_argument("--k", type=int_list, help="comma-separated torus wave vector")
    r.add_argument("--res", type=int)
    r.add_argument("--tol", type=tolerance, default=1e-6,
                   help="relative: pass when |quotient - expected| <= tol * |expected|")
    r.add_argument("--out")

    cl = sub.add_parser("classify", help="stability verdict at a single (s, tau)")
    cl.add_argument("--n", type=int)
    cl.add_argument("--lambda", dest="lam", type=int)
    cl.add_argument("--mode", choices=list(atlas_mod.MODES))
    cl.add_argument("--s", type=finite_float)
    cl.add_argument("--tau", type=finite_float)
    cl.add_argument("--format", default="text", choices=["text", "json"])
    cl.add_argument("--out")

    at = sub.add_parser("atlas", help="classify an (s, tau) grid to CSV/JSON")
    at.add_argument("--n", type=int)
    at.add_argument("--lambda", dest="lam", type=int)
    at.add_argument("--mode", choices=list(atlas_mod.MODES))
    at.add_argument("--s-min", type=finite_float)
    at.add_argument("--s-max", type=finite_float)
    at.add_argument("--tau-min", type=finite_float)
    at.add_argument("--tau-max", type=finite_float)
    at.add_argument("--res", type=int)
    at.add_argument("--out")
    at.add_argument("--format", default="csv", choices=["csv", "json"])
    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`, built once per process: parsing returns a
    fresh namespace and leaves the parser as it was, and nothing else
    writes to it."""
    return build_parser()


def _cmd_curvature(args) -> tuple[str, bool]:
    rep = curvature_case(args.model, args.n, radius=args.radius, tol=args.tol)
    return _json(rep), rep["pass"]


def _cmd_identities(args) -> tuple[str, bool]:
    checks = identity_case(args.mode)
    ok = all(c.rel_err <= args.tol for c in checks)
    rows = [c._asdict() for c in checks]
    return _json({"mode": args.mode, "tol": args.tol, "pass": ok, "checks": rows}), ok


def _cmd_gradient(args) -> tuple[str, bool]:
    rows = gradient_case(
        args.model, args.n, Coefficients(args.s, args.tau), args.count, args.seed
    )
    ok = all(r["rel_err"] <= args.tol for r in rows)
    report = {
        "model": args.model,
        "n": args.n,
        "s": args.s,
        "tau": args.tau,
        "seed": args.seed,
        "tol": args.tol,
        "pass": ok,
        "rows": rows,
    }
    return _json(report), ok


def _cmd_hessian(args) -> tuple[str, bool]:
    report = asdict(hessian_case(args.model, Coefficients(args.s, args.tau), args.t_step))
    report["lambda"] = report.pop("lam")
    # one line, unlike the other JSON reports
    return json.dumps(report, sort_keys=True) + "\n", report["rel_err_d2"] <= args.tol


def _cmd_rayleigh(args) -> tuple[str, bool]:
    report, meta = rayleigh_case(args.model, res=args.res, d=args.d, k=args.k)
    expected = meta["expected_quotient"]
    ok = abs(report.quotient - expected) <= args.tol * abs(expected)
    return _json(asdict(report) | meta | {"pass": ok}), ok


def _cmd_classify(args) -> tuple[str, bool]:
    q = atlas_mod.StabilityQuery(n=args.n, lam=args.lam, mode=args.mode, s=args.s, tau=args.tau)
    v = atlas_mod.classify(q)
    if args.format == "text":
        return (f"{v.value} ({v.citation})" if v.citation else v.value) + "\n", True
    report = {
        "n": args.n,
        "lambda": args.lam,
        "mode": args.mode,
        "s": args.s,
        "tau": args.tau,
        "verdict": v.value,
        "citation": v.citation,
    }
    return _json(report), True


def _cmd_atlas(args) -> tuple[str, bool]:
    text = atlas_mod.emit_atlas(
        n=args.n,
        lam=args.lam,
        mode=args.mode,
        s_range=(args.s_min, args.s_max),
        tau_range=(args.tau_min, args.tau_max),
        resolution=args.res,
        fmt=args.format,
    )
    return text, True


_REQUIRED = {
    "classify": ("n", "lam", "mode", "s", "tau"),
    "atlas": ("n", "lam", "mode", "s_min", "s_max", "tau_min", "tau_max", "res"),
}

_HANDLERS = {
    "curvature": _cmd_curvature,
    "check-identities": _cmd_identities,
    "verify-gradient": _cmd_gradient,
    "verify-hessian": _cmd_hessian,
    "rayleigh": _cmd_rayleigh,
    "classify": _cmd_classify,
    "atlas": _cmd_atlas,
}


def _merge_config(parser, args, defaults, argv: list) -> None:
    """Apply config values for flags not given on the command line, converted
    and checked as argparse would; raises UsageError on a bad key or value."""
    if not isinstance(defaults, dict):
        raise UsageError("config must be a JSON object")
    # a key names a flag of the subcommand, by option string or by dest
    actions = {
        name.lstrip("-").replace("_", "-"): action
        for action in parser.commands[args.command]._actions
        if action.dest != "help"
        for name in action.option_strings + [action.dest]
    }
    given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    for key, value in defaults.items():
        action = actions.get(str(key).replace("_", "-"))
        if action is None:
            raise UsageError(f"unknown config key {key!r} for {args.command}")
        if given & set(action.option_strings):
            continue
        items = value if isinstance(value, list) else [value]  # --d and --k take lists
        text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config value for {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"config value {value!r} for {key!r} is not one of {list(action.choices)}"
            )
        setattr(args, action.dest, value)


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if args.config:
        try:
            defaults = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"error: cannot read config: {exc}\n")
            return EXIT_USAGE
        try:
            _merge_config(parser, args, defaults, sys.argv[1:] if argv is None else argv)
        except UsageError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
    missing = [f for f in _REQUIRED.get(args.command, ()) if getattr(args, f) is None]
    if missing:
        flags = ", ".join("--" + f.replace("_", "-").replace("lam", "lambda") for f in missing)
        sys.stderr.write(f"error: missing required arguments: {flags}\n")
        return EXIT_USAGE
    try:
        text, ok = _HANDLERS[args.command](args)
        _write(text, args.out)
    except CurvlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_TOLERANCE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
