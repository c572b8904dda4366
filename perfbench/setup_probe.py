"""One set-up sample for the campaign benchmark.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR``

Imports what the benchmark imports, builds the workload's modules, makes a
fresh artifact-cache directory under WORK_DIR, and prints the
``time.monotonic()`` reading at which all that is done.  ``CLOCK_MONOTONIC``
is system-wide on Linux, so the parent's reading taken before it started
this process gives the set-up time from process start.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(name, seed, work_dir):
    workload = workloads.WORKLOADS[name](int(seed), work_dir)
    workload.fresh_cache("setup")
    print(time.monotonic())


if __name__ == "__main__":
    main(*sys.argv[1:4])
