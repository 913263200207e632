"""The sha256, exit code and argv of each CLI report, one line per argv, to
check that a change leaves every report byte-identical.

Run it from the repository root on each of two trees and diff the output:

    PYTHONPATH=src python tests/report_digests.py > digests.txt

Each argv runs in-process through ``curvlab.cli.run`` with ``--out`` in a
temporary directory; the digest covers the report's bytes and everything
written to stderr.  The list holds every subcommand at its defaults, every
model and mode its flags offer, the round spheres of dimension 3 to 5 and
an invariant mode as the benchmark checks them, curvature at non-unit
radii (one whose det g underflows), a torus mode off the default wave
vector, the torus gradient in dimensions 4 and 5, the S^3 gradient at a
nonzero (s, tau) and at the benchmark's count of directions, nonzero
(s, tau) forms of ``verify-hessian`` as the benchmark draws them (one
inside and one beyond max(|s|, |tau|) = 1), and a ``classify`` query and
an ``atlas`` grid per mode.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from curvlab import atlas, cli
from curvlab.charts import MODEL_CURVATURE_SIGN
from curvlab.verify import GRADIENT_MODELS, HESSIAN_MODELS, IDENTITY_MODES, RAYLEIGH_MODELS

NONZERO = (("-0.7", "0.4"), ("1.5", "0.3"))
QUERY = ["--n", "4", "--lambda", "1", "--s", "-1", "--tau", "0.5"]
GRID = ["--n", "4", "--lambda", "-1", "--s-min", "-8", "--s-max", "4",
        "--tau-min", "-2", "--tau-max", "2", "--res", "11"]

ARGVS = (
    [["curvature"], ["verify-gradient"], ["verify-hessian"], ["rayleigh"]]
    + [["curvature", "--model", m] for m in MODEL_CURVATURE_SIGN]
    # S^4 and S^5, which the benchmark checks beside S^3, an invariant mode
    # of the kind it draws, and the torus gradient in dimension 4
    + [["curvature", "--n", "4"], ["curvature", "--n", "5"], ["rayleigh", "--d", "3,-1,-2"],
       ["verify-gradient", "--model", "torus", "--n", "4", "--count", "2"]]
    # non-unit radii of both round models (det g underflows at 1e-60, the
    # curvature is 1e-60 at 1e30) and a torus mode off the default k
    + [["curvature", "--radius", "1e-60"], ["curvature", "--n", "5", "--radius", "2"],
       ["curvature", "--n", "4", "--radius", "1e30"],
       ["curvature", "--model", "s3-euler", "--radius", "0.5"],
       ["rayleigh", "--model", "torus-tt", "--k", "2,0,0"]]
    + [["check-identities", "--mode", m] for m in IDENTITY_MODES]
    + [["verify-gradient", "--model", m] for m in GRADIENT_MODELS]
    # S^3 at nonzero (s, tau), where G is not zero and its multiplier enters
    + [["verify-gradient", "--model", "s3", "--s", "-0.7", "--tau", "0.4"]]
    # the torus gradient at n = 5 (315 jet entries on 10^5 nodes) and the
    # S^3 gradient at the benchmark's count
    + [["verify-gradient", "--model", "torus", "--n", "5", "--count", "1"],
       ["verify-gradient", "--model", "s3", "--count", "3"]]
    + [["verify-hessian", "--model", m] for m in HESSIAN_MODELS]
    + [["verify-hessian", "--model", m, "--s", s, "--tau", t]
       for m in HESSIAN_MODELS for s, t in NONZERO]
    + [["rayleigh", "--model", m] for m in RAYLEIGH_MODELS]
    + [["classify", *QUERY, "--mode", m, "--format", f]
       for m in atlas.MODES for f in ("text", "json")]
    + [["atlas", *GRID, "--mode", m] for m in atlas.MODES]
)


def digest(argv: list, out: Path) -> tuple[str, int]:
    """(sha256 of the report and stderr, exit code) of one run writing to ``out``."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.run([*argv, "--out", str(out)])
    report = out.read_bytes() if out.exists() else b""
    return hashlib.sha256(report + b"\0" + err.getvalue().encode()).hexdigest(), code


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ARGVS:
            sha, code = digest(argv, Path(tmp) / "report")
            sys.stdout.write(f"{sha} {code} {' '.join(argv)}\n")


if __name__ == "__main__":
    main()
