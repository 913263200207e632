"""curvlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload identity-suites --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each workload runs in fresh child
processes with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set
to 1 before numpy is imported.  With ``--trace 0`` the last line of stdout is
a JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced pass.  Work files go under ``.bench_build/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("identity-suites", "space-form-checks", "pointwise-probes")
# fresh processes that only set up; with the workload's own process, setup_s
# is the median of five set-up times taken before and after the workload runs
SETUP_BEFORE, SETUP_AFTER = 2, 2
DEADLINE_S = 170.0  # every run ends within 180 s

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curvlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CURVLAB_THREADS"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(base: list[str], extra: list[str], deadline: float, tag: str) -> dict:
    result = WORKDIR / f"result-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py")] + base + ["--result", str(result)] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "curvlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no curvlab sources under {SRC}\n")
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)

    base = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(WORKDIR), "--src", str(SRC),
        "--digests", str(WORKDIR / f"digests-{args.workload}-{args.seed}-{source_digest()}.json"),
    ]

    def setup_times(count, tag):
        if args.trace:  # set-up is not reported by a traced run
            return []
        return [run_child(base, ["--setup-only"], deadline, f"{tag}{i}") for i in range(count)]

    try:
        setups = setup_times(SETUP_BEFORE, "before")
        main_run = run_child(base, [], deadline, "main")
        setups += [main_run] + setup_times(SETUP_AFTER, "after")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    detail = {k: main_run[k] for k in ("passes", "raw_wall_s", "case_s", "case_raw_s", "attempted",
                                       "failed", "failures", "reports", "provenance")}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  setup_samples_s=[r["setup_s"] for r in setups],
                  setup_raw_samples_s=[r["setup_raw_s"] for r in setups])
    if args.trace:
        metrics = main_run["layer"]
        detail.update(traced_pass_s=main_run["traced_pass_s"], inclusive_s=main_run["inclusive_s"])
    else:
        values = {
            "wall_s": main_run["wall_s"],
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
            "accuracy_digits": main_run["accuracy_digits"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        detail["failed_frac"] = main_run["failed_frac"]
    print(json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:52s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
