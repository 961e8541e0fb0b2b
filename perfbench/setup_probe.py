"""One cold set-up of a workload, for the ``setup_s`` metric.

Usage::

    python3 perfbench/setup_probe.py --workload NAME --seed N \\
        --run-dir DIR --jobs J

Imports the program, runs the workload's warm-up campaign per vendor
and, for ``service_mixed``, starts a daemon and waits for its first
ping.  Prints the ``perf_counter_ns`` instant at which set-up was
complete (one clock for every process of the machine), so the caller
can time the whole set-up from the moment it launched this process;
then tears down and exits.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    args = parser.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.run_dir, args.jobs)
    try:
        workload.setup()
        print(time.perf_counter_ns(), flush=True)
    finally:
        workload.teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
