"""The tracemalloc peak (MiB) and argv of each CLI run that
``tests/report_digests.py`` hashes, one line per argv, to compare the memory
of two trees.

Run it from the repository root on each of two trees and diff the output:

    PYTHONPATH=src python tests/report_peaks.py > peaks.txt

Each argv runs in-process as the digests run it, once to warm numpy and the
jet plans' index tables and once under tracemalloc; the figure is the peak
of the traced allocations of the second run (numpy's arrays included), not
the resident size of the process.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

from report_digests import ARGVS, digest


def peak_mib(argv: list, out: Path) -> float:
    """The traced peak of one warm run of ``argv`` writing to ``out``."""
    digest(argv, out)
    tracemalloc.start()
    try:
        digest(argv, out)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ARGVS:
            sys.stdout.write(f"{peak_mib(argv, Path(tmp) / 'report'):.2f} {' '.join(argv)}\n")


if __name__ == "__main__":
    main()
