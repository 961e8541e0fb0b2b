"""PARBOR benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``characterize``, ``compare_fleet``,
``service_mixed``, ``ecc_recover`` (see ``workloads.py`` for what each
runs and why).  With ``--trace 0`` the workload runs untraced for
``S`` seconds and the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it runs untraced for ``S/2``
seconds, then traced for ``S`` seconds, and the result carries every
per-layer metric.  Every output is checked; a failed check counts
against ``error_rate`` and makes ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print every metric by name with its unit and sample count,
and the run facts (git sha, nproc, jobs, Python and numpy versions,
seed, ``src/`` line count).  A fuller record, including the signature
digest of the workload's fixed set, lands in ``.perfbench_out/``;
traced runs also write their spans there.

Set-up time is measured five times, each in a fresh process
(``setup_probe.py``), and reported as the median.
"""

from __future__ import annotations

import argparse
import glob
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
NAMES = ("characterize", "compare_fleet", "service_mixed", "ecc_recover")


# -- statistics --------------------------------------------------------------


def p50(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def p90(values: Sequence[float]) -> Optional[float]:
    """The 90th percentile, only where at least 100 samples exist."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


# -- run facts ---------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def run_facts(workload: str, seed: int, jobs: int) -> Dict[str, Any]:
    import numpy
    return {"git_sha": git_sha(), "nproc": nproc(), "jobs": jobs,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "workload": workload,
            "seed": seed, "src_lines": src_lines()}


# -- resources ---------------------------------------------------------------


def tree_rss_bytes(root_pid: int) -> int:
    """Resident memory of ``root_pid`` and all its descendants.

    Sums proportional set sizes, so pages a forked fleet worker still
    shares copy-on-write with its parent count once, not per process.
    """
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                parent[int(entry)] = int(fh.read().rsplit(")", 1)[1]
                                         .split()[1])
        except (OSError, IndexError, ValueError):
            continue
    tree = {root_pid}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total_kb = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between the two scans
    return total_kb * 1024


class RssSampler:
    """Samples the process tree's RSS every 0.2 s; keeps the peak."""

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss",
                                        daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while True:
            self.peak = max(self.peak, tree_rss_bytes(pid))
            if self._stop.wait(0.2):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()


# -- set-up ------------------------------------------------------------------


def setup_seconds(workload: str, seed: int, run_dir: str, jobs: int
                  ) -> List[float]:
    """Time ``SETUP_SAMPLES`` cold set-ups, each in a fresh process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        launched = time.perf_counter_ns()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             "--workload", workload, "--seed", str(seed),
             "--run-dir", run_dir, "--jobs", str(jobs)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        ready = int(done.stdout.strip().splitlines()[-1])
        samples.append((ready - launched) / 1e9)
    return samples


# -- the run -----------------------------------------------------------------


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(name: str, win, setup: List[float], rss_peak: int,
               fixed: Dict[str, Any]
               ) -> Dict[str, Dict[str, Any]]:
    """Every metric of the issue's table: value, raw value, unit, n.

    On the serial workloads (``characterize``, ``ecc_recover``) the
    campaign times in ``value`` are at reference host speed (see
    ``hostspeed.py``) and ``raw`` holds them as measured; everywhere
    else the two are equal.  ``value`` is None where the
    metric does not apply to the workload.  ``campaign_s`` on
    ``service_mixed`` is the turnaround of a service campaign: from
    when it was due to its last streamed result.
    """
    rows: Dict[str, Dict[str, Any]] = {}

    def put(metric: str, value: Optional[float], unit: str,
            n: Optional[int] = None, raw: Optional[float] = None) -> None:
        rows[metric] = {"value": value, "unit": unit, "n": n,
                        "raw": value if raw is None else raw}

    def timing(metric: str, sample: str, unit: str) -> None:
        raw = win.samples.get(sample, [])
        ref = win.reference(sample)
        put(f"{metric}.p50", p50(ref), unit, len(ref), p50(raw))
        put(f"{metric}.p90", p90(ref), unit, len(ref), p90(raw))

    put("setup_s", p50(setup), "s", len(setup))
    put("targets_per_s", win.targets_per_s() or None, "1/s", win.targets,
        win.targets_per_s(reference=False))
    timing("campaign_s", "turnaround_s" if name == "service_mixed"
           else "campaign_s", "s")
    timing("ack_ms", "ack_ms", "ms")
    timing("read_ms", "read_ms", "ms")
    timing("turnaround_s", "turnaround_s", "s")
    put("error_rate", win.failed / win.attempted if win.attempted
        else None, "fraction", win.attempted)
    put("peak_rss_mb", rss_peak / 2 ** 20, "MB")
    put("sim_test_time_s", fixed.get("sim_test_time_s"), "s")
    put("detected_cells", fixed.get("detected_cells"), "count")
    put("extra_failures_pct", fixed.get("extra_failures_pct"), "%")
    lag = win.samples.get("lag_ms", [])
    put("loadgen.lag_ms.max", max(lag) if lag else None, "ms", len(lag))
    return rows


def traced_run(workload, seconds: float):
    """Untraced then traced windows: ``(window, layers, spans)``, the
    per-layer metrics coming from the traced window."""
    import tracing

    base = workload.window(seconds / 2)
    tracer = tracing.install()
    jobs1 = None
    try:
        if workload.name == "service_mixed":
            workload.start_daemon(traced=True)
        win = workload.window(seconds)
        spans = list(tracer.spans)
        if workload.name == "service_mixed":
            spans += workload.stop_daemon() or []
        if workload.name == "compare_fleet":
            mark = len(tracer.spans)
            jobs1 = workload.window(seconds, jobs=1, max_fleets=1)
            jobs1_spans = tracer.spans[mark:]
    finally:
        tracing.uninstall()

    layers = tracing.layer_metrics(spans)
    tps = win.targets_per_s()
    base_tps = base.targets_per_s()
    layers["trace.overhead_frac"] = (1.0 - tps / base_tps
                                     if base_tps else 0.0)
    lag = win.samples.get("lag_ms", [])
    layers["loadgen.lag_ms.max"] = max(lag) if lag else 0.0
    layers["service.rejected"] = win.rejected
    if jobs1 is not None:
        tps1 = jobs1.targets_per_s()
        layers["runtime.fleet.speedup"] = tps / tps1 if tps1 else 0.0
        layers["runtime.fleet.busy_frac.jobs1"] = tracing.layer_metrics(
            jobs1_spans)["runtime.fleet.busy_frac"]
        win.attempted += jobs1.attempted
        win.failed += jobs1.failed
        win.problems += jobs1.problems
    win.attempted += base.attempted
    win.failed += base.failed
    win.problems += base.problems
    return win, layers, spans


def print_rows(rows: Dict[str, Dict[str, Any]]) -> None:
    print(f"  {'metric':28s} {'value':>12s} {'raw':>12s} unit")
    for metric, row in rows.items():
        value, raw = row["value"], row["raw"]
        shown = "n/a" if value is None else f"{value:.6g}"
        shown_raw = "n/a" if raw is None else f"{raw:.6g}"
        n = "" if row.get("n") is None else f"n={row['n']}"
        print(f"  {metric:28s} {shown:>12s} {shown_raw:>12s} "
              f"{row['unit']:9s} {n}")


def attribution(layers: Dict[str, float], win) -> List[str]:
    """Which layer carried the time (the acceptance summary)."""
    total = layers.get("campaign.s") or 0.0
    shares = {
        "dram.test_rows_patched": layers["dram.test_rows_patched.s"],
        "dram.test_pattern": layers["dram.test_pattern.s"],
        "core.random_baseline+dram.test_pattern_per_row":
            layers["core.random_baseline.self_s"]
            + layers["dram.test_pattern_per_row.s"],
        "ecc.infer+ecc.validate":
            layers["ecc.infer.s"] + layers["ecc.validate.s"],
        "dram.make_chip": layers["dram.make_chip.s"],
    }
    lines = [f"  {name:48s} {value / total:7.1%} of campaign time"
             for name, value in sorted(shares.items(),
                                       key=lambda kv: -kv[1])
             if total]
    turnaround = sum(win.samples.get("turnaround_s", []))
    if turnaround:
        compute = (layers["runtime.fleet.s"]
                   - layers["runtime.fleet.overhead_s"])
        lines.append(
            f"  service turnaround {turnaround:.3f} s in all: campaign "
            f"compute on the critical path {compute:.3f} s "
            f"({compute / turnaround:.1%}), fleet and service overhead "
            f"{turnaround - compute:.3f} s "
            f"({1 - compute / turnaround:.1%})")
    return lines


def main(argv: Optional[Sequence[str]] = None, sizes: Any = None,
         expected: Optional[Dict[str, Sequence[int]]] = None) -> int:
    """Run one workload; ``sizes``/``expected`` serve the self-test."""
    parser = argparse.ArgumentParser(
        description="PARBOR benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir)
    # Temporary files of the program (fleet start markers) stay inside
    # the checkout, in this run's directory.
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = run_dir
    try:
        return run(args, run_dir, sizes, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass


def run(args: argparse.Namespace, run_dir: str, sizes: Any,
        expected: Optional[Dict[str, Sequence[int]]]) -> int:
    import workloads

    contract = load_contract()
    jobs = nproc()
    facts = run_facts(args.workload, args.seed, jobs)
    setup = setup_seconds(args.workload, args.seed, run_dir, jobs)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, run_dir, jobs, sizes=sizes or workloads.FULL,
        expected=expected)
    layers: Dict[str, float] = {}
    spans: List[Any] = []
    try:
        workload.setup()
        with RssSampler() as rss:
            if args.trace:
                win, layers, spans = traced_run(workload, args.seconds)
            else:
                win = workload.window(args.seconds)
        fixed = workload.verify(win)
    finally:
        workload.teardown()

    rows = end_to_end(args.workload, win, setup, rss.peak, fixed)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        if args.trace:
            value = layers.get(spec["name"], 0.0)
        else:
            value = rows[spec["name"]]["value"]
            value = 0.0 if value is None else value
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = win.failed == 0 and win.attempted > 0

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print("end-to-end metrics (value: serial campaign times at "
          "reference host speed; raw: as measured)"
          + (" of the traced window" if args.trace else "") + ":")
    print_rows(rows)
    print(f"signature digest of the fixed set: {fixed.get('digest')}")
    for problem in win.problems:
        print(f"  FAILED: {problem}")
    if args.trace:
        print("per-layer metrics (traced window):")
        for name in sorted(layers):
            print(f"  {name:40s} {layers[name]:.6g}")
        print("attribution:")
        for line in attribution(layers, win):
            print(line)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"facts": facts, "end_to_end": rows, "layers": layers,
                   "digest": fixed.get("digest"),
                   "problems": win.problems, "setup_samples": setup},
                  fh, indent=1, sort_keys=True)
    if spans:
        with gzip.open(stem + ".spans.jsonl.gz", "wt") as fh:
            for s in spans:
                fh.write(json.dumps(
                    {"id": s[0], "parent": s[1], "name": s[2],
                     "trace": s[3], "start_ns": s[4], "end_ns": s[5],
                     "pid": s[6], "tid": s[7]}) + "\n")
    print(json.dumps({"correct": correct, "attempted": win.attempted,
                      "failed": win.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
