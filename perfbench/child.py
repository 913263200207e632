"""Run one workload in a fresh process; started by run.py with threads pinned.

Set-up (importing curvlab and building every model and field the workload
uses) is timed from the first line of this file, before numpy is imported.
With ``--setup-only`` the process stops after set-up.  Otherwise the cases run
in passes until ``--seconds`` have elapsed (at least one pass); with
``--trace 1`` each case runs again, traced, right after its untraced run.
The result goes to ``--result`` as JSON.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


# Time of HostSpeed.sample() at the host speed timings are quoted at (close to
# an unloaded 2-core x86-64 host): a fixed constant, so that timings compare
# across runs and commits.
KERNEL_REF_S = 0.0033
SAMPLE_SHARE = 0.05


class HostSpeed:
    """Follows the shared host's changing speed with a fixed numpy kernel.

    The kernel uses no curvlab code, so a change to the program cannot move
    it; only the host can.  A time measured between two samples is rescaled
    by KERNEL_REF_S over their mean.  The host's speed also flips within
    milliseconds, so a sample averages kernel runs over about SAMPLE_SHARE of
    the time it follows.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((512, 4, 4, 4))
        self._g = rng.standard_normal((512, 4, 4))
        self._eye = 10 * np.eye(4)
        self.sample()  # first calls of einsum/inv carry one-off costs
        self.last = self.sample(30)

    def _kernel(self) -> float:
        np, a = self._np, self._a
        start = time.perf_counter()
        for _ in range(4):
            b = np.einsum("aijk,aljk->ail", a, a)
            np.einsum("akl,alij->akij", self._g, a)
            np.linalg.inv(b + self._eye)
            sum(i * i for i in range(2000))
        return time.perf_counter() - start

    def sample(self, runs: int = 3) -> float:
        return statistics.fmean(self._kernel() for _ in range(runs))

    def sample_after(self, seconds: float) -> float:
        """A sample sized to the time it follows."""
        return self.sample(max(3, round(SAMPLE_SHARE * seconds / KERNEL_REF_S)))

    def rescale(self, seconds: float) -> float:
        """Rescale a time that ended just now and began after the last sample."""
        before, self.last = self.last, self.sample_after(seconds)
        return seconds * KERNEL_REF_S / ((before + self.last) / 2)


def run_case(case, ctx, checks, speed, times, raw):
    """Run one case; ``speed`` rescales its time, or None keeps it raw."""
    start = time.perf_counter()
    try:
        case.run(ctx, checks)
    except Exception as exc:  # a raising case is a failed check, not a crash
        checks.fail(case.name, "raised", f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    raw.setdefault(case.name, []).append(seconds)
    times.setdefault(case.name, []).append(seconds if speed is None else speed.rescale(seconds))


def run_pass(cases, ctx, checks, speed, times, raw):
    for case in cases:
        run_case(case, ctx, checks, speed, times, raw)


def run_paired_pass(cases, ctx, checks, speed, tracer, untraced, traced, raw):
    """Each case untraced, then traced, so both see the host at one speed."""
    for case in cases:
        run_case(case, ctx, checks, speed, untraced, raw)
        tracer.install()
        run_case(case, ctx, checks, speed, traced, {})
        tracer.uninstall()


def case_summary(t: list[float]) -> dict:
    """Median, extremes, sample count and the highest percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(t), "min": min(t), "max": max(t), "n": len(t)}
    if len(t) > 10:
        out[f"p{100 * (len(t) - 10) // len(t)}"] = sorted(t)[len(t) - 11]
    return out


def pass_wall(times) -> float:
    """Time of one pass: the sum over cases of each case's median time."""
    return sum(statistics.median(t) for t in times.values())


def record_grids(grids):
    """Keep (resolution, nodes) of every grid the program builds."""
    from tracer import Rebinder

    def wrap(fn):
        def build_grid(*args, **kwargs):
            grid = fn(*args, **kwargs)
            grids.add((grid.resolution, grid.node_count))
            return grid
        return build_grid

    rebinder = Rebinder()
    rebinder.add("charts", "build_grid", wrap)
    rebinder.apply()
    return rebinder


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--digests", required=True, help="JSON file of report digests")
    p.add_argument("--src", required=True, help="directory that must hold curvlab")
    p.add_argument("--result", required=True)
    args = p.parse_args()

    import numpy as np
    import sympy

    import curvlab
    import workloads
    from tracer import ACCURACY, Tracer, per_layer_catalogue

    if not Path(curvlab.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"curvlab imported from {curvlab.__file__}, not {args.src}")

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=args.workdir))
    digest_file = Path(args.digests)
    stored = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    ctx = workloads.Context(args.seed, workdir, dict(stored))
    grids: set = set()
    grid_rebinder = record_grids(grids)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        workload.setup(ctx)
        setup_raw_s = time.perf_counter() - T0
        if tracer:
            tracer.uninstall()
        speed = HostSpeed()
        setup_s = setup_raw_s * KERNEL_REF_S / speed.sample_after(setup_raw_s)
        if args.setup_only:
            Path(args.result).write_text(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        cases = workload.cases(ctx)
        if not workload.rescale:
            speed = None
        checks = workloads.Checks()
        times: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        traced: dict[str, list[float]] = {}
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < args.seconds:
            if tracer:
                run_paired_pass(cases, ctx, checks, speed, tracer, times, traced, raw)
                if passes == 0:  # per-layer figures of set-up and one pass
                    layer = tracer.layer_metrics()
                    inclusive = tracer.inclusive_s()
                    captured = dict(tracer.accuracy)
                tracer.spans.clear()
            else:
                run_pass(cases, ctx, checks, speed, times, raw)
            passes += 1
        wall_s = pass_wall(times)
        result = {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "wall_s": wall_s,
            "raw_wall_s": pass_wall(raw),
            "passes": passes,
            "case_s": {k: case_summary(v) for k, v in times.items()},
            "case_raw_s": {k: case_summary(v) for k, v in raw.items()},
        }
        if tracer:
            acc = dict.fromkeys(ACCURACY, 0.0)
            for src in (checks.layer_errors(), captured):
                for k, v in src.items():
                    acc[k] = max(acc[k], v)
            layer.update(acc)
            layer["failed_frac"] = checks.failed_frac
            layer["trace_overhead_s"] = pass_wall(traced) - wall_s
            result["layer"] = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                               for m in per_layer_catalogue()}
            result["traced_pass_s"] = pass_wall(traced)
            result["inclusive_s"] = inclusive
        grid_rebinder.restore()

        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=checks.attempted,
            failed=checks.failed,
            failed_frac=checks.failed_frac,
            accuracy_digits=checks.accuracy_digits(),
            failures=[vars(r) for r in checks.rows if not r.ok][:20],
            reports=ctx.reports,
            provenance=dict(
                workloads.provenance(ctx),
                grids=[{"resolution": list(r), "nodes": n} for r, n in sorted(grids)],
                threads={k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                          "CURVLAB_THREADS")},
                python=sys.version.split()[0],
                numpy=np.__version__,
                sympy=sympy.__version__,
                blas=blas_build(np),
                nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
            ),
        )
        if not digest_file.exists():
            digest_file.write_text(json.dumps(ctx.digests, sort_keys=True))
        Path(args.result).write_text(json.dumps(result, default=str))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
