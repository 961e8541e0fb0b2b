"""Reduced-size self-test of the benchmark harness.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs every workload at the reduced sizes of ``workloads.TINY`` with a
one-second window, through the same ``run.main`` the benchmark command
uses, and checks that:

* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) named in ``BENCHMARK.json`` is emitted with its unit;
* the correctness gate fails when the expected distance set is wrong;
* the default seed and a held-out seed both give ``error_rate`` 0.

Prints one line per check and exits 0 only if all pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402  (after the path set-up above)

DEFAULT_SEED = 2016
HELD_OUT_SEED = 7


def bench(workload: str, seed: int, trace: int,
          expected: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One tiny benchmark run; returns its result line."""
    import workloads

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)],
                        sizes=workloads.TINY, expected=expected)
    if code != 0:
        raise RuntimeError(f"{workload}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check(failures: List[str], ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    import workloads

    contract = run.load_contract()
    failures: List[str] = []
    for name in run.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, DEFAULT_SEED, trace)
            wanted = {m["name"]: m["unit"] for m in contract[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(failures, got == wanted,
                  f"{name} --trace {trace}: every {key} metric with its "
                  f"unit")
            check(failures, all(isinstance(v["value"], (int, float))
                                for v in result["metrics"].values()),
                  f"{name} --trace {trace}: every value is a number")
            check(failures, result["correct"] and result["failed"] == 0,
                  f"{name} --trace {trace} seed {DEFAULT_SEED}: "
                  f"error_rate 0")
        result = bench(name, HELD_OUT_SEED, 0)
        check(failures, result["correct"] and result["failed"] == 0,
              f"{name} seed {HELD_OUT_SEED} (held out): error_rate 0")

    wrong = dict(workloads.expected_magnitudes(), A=(8, 16))
    result = bench("characterize", DEFAULT_SEED, 0, expected=wrong)
    check(failures, not result["correct"] and result["failed"] > 0,
          "characterize with a wrong expected distance set for vendor A: "
          "the correctness gate fails")
    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
