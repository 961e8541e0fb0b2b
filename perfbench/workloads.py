"""The benchmark's four workloads: inputs from a seed, drivers, checks.

Every input is a :class:`repro.runtime.CampaignSpec` whose seeds are
derived from the workload seed through ``chip_seed``/``module_seed``/
``ladder_seed``; the program only ever receives the specs.

* ``characterize`` - full characterize campaigns (sweep on, default
  geometry), vendors A/B/C in turn, run serially in this process.
  In-process recursion work dominates; no baseline, fleet, service or
  ECC runs.
* ``compare_fleet`` - fig12 module comparisons (PARBOR plus the
  equal-budget random test) through ``run_fleet(jobs=nproc)`` with a
  fresh checkpoint journal and a per-target timeout, as ``repro fleet
  --checkpoint --timeout`` runs them.  The module population is fixed
  (built from :data:`FLEET_ROOT`, like the paper's fixed 18 modules):
  a module's cost scales with its lognormal vulnerability draw, so
  modules drawn from the workload seed would make the run-to-run
  spread a property of the draw, not of the code.  The workload seed
  drives every campaign's own randomness.
* ``service_mixed`` - an open loop against a real ``repro serve``
  daemon: small 2-target campaigns at a fixed rate, each submission
  paired with one read (a status poll or an idempotent resubmission).
* ``ecc_recover`` - ECC-recover campaigns; every chip is profiled
  twice with different run seeds, so half the campaigns repeat a
  ``(vendor, build_seed)``.

A *window* runs a workload for a set time and records its samples.
The first few results of every window form the workload's *fixed
set*: they are the same for every run of a seed, so the simulated
metrics and the signature digest are computed over them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from hostspeed import HostSpeed
from repro.dram.vendors import vendor as vendor_profile
from repro.ecc import (EccCampaignSpec, HammingSecDed, attach_on_die_ecc,
                       infer_ecc)
from repro.runtime import (CampaignSpec, chip_seed, ladder_seed,
                           module_seed)
from repro.runtime import fleet as fleet_module
from repro.runtime.resilience import signature_json
from repro.service import client

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
VENDORS = "ABC"
#: Root seed of the fixed compare_fleet module population.
FLEET_ROOT = 2016
#: Per-target watchdog of the fleet and the daemon, and the longest
#: wait for one service reply (seconds); a run must end within 180 s.
TIMEOUT_S = 60.0

Expected = Dict[str, Sequence[int]]


def expected_magnitudes() -> Expected:
    """The program's ground truth: each vendor's neighbour distances."""
    return {v: tuple(vendor_profile(v).expected_magnitudes)
            for v in VENDORS}


def magnitudes_ok(vendor: str, distances: Sequence[int],
                  expected: Expected) -> bool:
    return sorted({abs(int(d)) for d in distances}) == sorted(
        expected[vendor])


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; :data:`TINY` is the self-test's reduced set."""

    characterize_rows: int = 128
    characterize_sample: int = 2000
    characterize_fixed: int = 12
    compare_rows: int = 32
    compare_modules: int = 2
    service_rows: int = 48
    service_sample: int = 400
    service_rate: float = 1.5
    service_fixed: int = 5
    ecc_rows: int = 128
    ecc_sample: int = 2000
    ecc_fixed: int = 4


FULL = Sizes()
TINY = Sizes(characterize_rows=48, characterize_sample=400,
             characterize_fixed=3, compare_modules=1, service_fixed=1,
             ecc_rows=64, ecc_sample=400, ecc_fixed=2)


@dataclass
class Window:
    """What one timed window of a workload measured.

    ``samples`` hold raw host times; ``scaled`` the same samples at
    reference host speed (see ``hostspeed.py``).  ``busy_s`` is the
    host time the program itself ran (serial campaigns, whole fleets);
    it stays 0 for the open loop, whose throughput is set by its rate.
    """

    attempted: int = 0
    failed: int = 0
    targets: int = 0
    rejected: int = 0
    elapsed_s: float = 0.0
    busy_s: float = 0.0
    busy_ref_s: float = 0.0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    scaled: Dict[str, List[float]] = field(default_factory=dict)
    fixed: List[Any] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def scale(self, name: str, scales: Sequence[float]) -> None:
        self.scaled[name] = [v * f for v, f in
                             zip(self.samples.get(name, []), scales)]

    def reference(self, name: str) -> List[float]:
        """Samples at reference host speed (raw where not scaled)."""
        return self.scaled.get(name, self.samples.get(name, []))

    def targets_per_s(self, reference: bool = True) -> float:
        """Targets per host second of program time (the open loop:
        per wall second of the window)."""
        busy = (self.busy_ref_s if reference and self.busy_ref_s
                else self.busy_s)
        if busy:
            return self.targets / busy
        return self.targets / self.elapsed_s if self.elapsed_s else 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def fixed_set_metrics(outcomes: Sequence[Any]) -> Dict[str, Any]:
    """Simulated metrics and digest of a window's fixed set.

    The digest covers every outcome's signature and its I/O counters,
    so two commits can be checked for exact simulated equality.
    """
    signatures = [[signature_json(o.signature()),
                   [o.stats.tests, o.stats.rows_written,
                    o.stats.rows_read, o.stats.retention_waits]]
                  for o in outcomes]
    digest = hashlib.sha256(json.dumps(signatures, sort_keys=True)
                            .encode("utf-8")).hexdigest()
    return {
        "sim_test_time_s": sum(o.stats.estimated_time_ns()
                               for o in outcomes) / 1e9,
        "detected_cells": sum(len(o.detected) for o in outcomes),
        "digest": digest[:32],
    }


def _now() -> float:
    return time.perf_counter()


class Workload:
    """Common shape: set up, run timed windows, verify, tear down."""

    name = ""

    def __init__(self, seed: int, run_dir: str, jobs: int,
                 sizes: Sizes = FULL,
                 expected: Optional[Expected] = None) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.jobs = jobs
        self.sizes = sizes
        self.expected = expected or expected_magnitudes()

    def warm_up_specs(self) -> List[CampaignSpec]:
        return []

    def setup(self) -> None:
        """Warm-up campaign per vendor: fills schedule/mapping memos."""
        for spec in self.warm_up_specs():
            spec.run()

    def teardown(self) -> None:
        pass

    def window(self, seconds: float) -> Window:
        raise NotImplementedError

    def verify(self, window: Window) -> Dict[str, Any]:
        """Checks outside the timed window; returns fixed-set metrics."""
        return fixed_set_metrics([o for o in window.fixed if o is not None])

    def _warm(self, n_rows: int, sample_size: int,
              run_sweep: bool = True) -> List[CampaignSpec]:
        return [CampaignSpec("characterize", v,
                             build_seed=ladder_seed(self.seed, "warm-up",
                                                    v),
                             run_seed=ladder_seed(self.seed, "warm-up",
                                                  "run", v),
                             n_rows=n_rows, sample_size=sample_size,
                             run_sweep=run_sweep)
                for v in VENDORS]

    def _serial_window(self, specs: Iterator[CampaignSpec],
                       seconds: float, fixed_n: int,
                       check: Callable[[Any, Any], str]) -> Window:
        """Run specs one after another for ``seconds`` (and at least
        the fixed set), timing each campaign."""
        win = Window()
        timed: List[int] = []  # calibration sample index before each
        start = _now()
        for spec in specs:
            if win.attempted >= fixed_n and _now() - start >= seconds:
                break
            win.speed.sample()
            t0 = _now()
            try:
                outcome = spec.run()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcome = None
                win.attempted += 1
                win.fail(f"{spec.label()}: {exc!r}")
            else:
                win.attempted += 1
                win.targets += 1
                win.sample("campaign_s", _now() - t0)
                timed.append(len(win.speed.samples) - 1)
                problem = check(spec, outcome)
                if problem:
                    win.fail(f"{spec.label()}: {problem}")
            if len(win.fixed) < fixed_n:
                win.fixed.append(outcome)
        win.elapsed_s = _now() - start
        win.speed.sample()
        win.scale("campaign_s", [win.speed.local_scale(k) for k in timed])
        win.busy_s = sum(win.samples.get("campaign_s", []))
        win.busy_ref_s = sum(win.scaled["campaign_s"])
        return win

    def _check_distances(self, spec: CampaignSpec, outcome: Any) -> str:
        if not magnitudes_ok(spec.vendor, outcome.distances, self.expected):
            return (f"distances {sorted(outcome.distances)} != expected "
                    f"{sorted(self.expected[spec.vendor])}")
        return ""


class Characterize(Workload):
    name = "characterize"

    def spec(self, i: int) -> CampaignSpec:
        v, k = VENDORS[i % 3], i // 3
        return CampaignSpec(
            "characterize", v, index=k + 1,
            build_seed=chip_seed(self.seed, v, k),
            run_seed=ladder_seed(self.seed, "characterize", "run", v, k),
            n_rows=self.sizes.characterize_rows,
            sample_size=self.sizes.characterize_sample)

    def warm_up_specs(self) -> List[CampaignSpec]:
        return self._warm(self.sizes.characterize_rows,
                          self.sizes.characterize_sample)

    def window(self, seconds: float) -> Window:
        specs = (self.spec(i) for i in itertools.count())
        return self._serial_window(specs, seconds,
                                   self.sizes.characterize_fixed,
                                   self._check_distances)


class CompareFleet(Workload):
    name = "compare_fleet"

    def specs(self, fleet_index: int) -> List[CampaignSpec]:
        return [CampaignSpec(
            "compare", v, index=i,
            build_seed=module_seed(FLEET_ROOT, v, i),
            run_seed=ladder_seed(self.seed, "compare", fleet_index, v, i),
            n_rows=self.sizes.compare_rows)
            for v in VENDORS
            for i in range(1, self.sizes.compare_modules + 1)]

    def warm_up_specs(self) -> List[CampaignSpec]:
        return self._warm(self.sizes.compare_rows, 2000)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._journals = itertools.count()

    def window(self, seconds: float, jobs: Optional[int] = None,
               max_fleets: Optional[int] = None) -> Window:
        """Whole fleets, each with a fresh journal: at least one, and
        another only while the last one's duration still fits."""
        jobs = jobs or self.jobs
        win = Window()
        start = _now()
        fleet_index = 0
        while True:
            specs = self.specs(fleet_index)
            journal = os.path.join(self.run_dir,
                                   f"fleet-{next(self._journals)}.ckpt")
            t0 = _now()
            try:
                result = fleet_module.run_fleet(
                    specs, jobs=jobs, timeout_s=TIMEOUT_S,
                    checkpoint=journal)
                outcomes = result.outcomes
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcomes = []
                win.problems.append(f"fleet {fleet_index}: {exc!r}")
            took = _now() - t0
            win.sample("campaign_s", took)
            win.attempted += len(specs)
            win.targets += len(outcomes)
            for _ in range(len(specs) - len(outcomes)):
                win.fail(f"fleet {fleet_index}: target without outcome")
            for spec, outcome in zip(specs, outcomes):
                problem = self._check_distances(spec, outcome)
                if not problem and outcome.comparison is None:
                    problem = "no PARBOR/random comparison"
                if problem:
                    win.fail(f"{spec.label()}: {problem}")
            if fleet_index == 0:
                win.fixed = list(outcomes)
            fleet_index += 1
            if max_fleets is not None and fleet_index >= max_fleets:
                break
            if _now() - start + took > seconds:
                break
        win.elapsed_s = _now() - start
        win.busy_s = sum(win.samples["campaign_s"])
        return win

    def verify(self, window: Window) -> Dict[str, Any]:
        metrics = super().verify(window)
        comparisons = [o.comparison for o in window.fixed
                       if o is not None and o.comparison is not None]
        if comparisons:
            metrics["extra_failures_pct"] = (
                sum(c.extra_percent for c in comparisons)
                / len(comparisons))
        return metrics


class EccRecover(Workload):
    name = "ecc_recover"

    def spec(self, i: int) -> EccCampaignSpec:
        chip, repeat = divmod(i, 2)
        v, k = VENDORS[chip % 3], chip // 3
        return EccCampaignSpec(
            experiment="characterize", vendor=v, index=k + 1,
            build_seed=chip_seed(self.seed, v, k, "ecc"),
            run_seed=ladder_seed(self.seed, "ecc", "run", v, k, repeat),
            n_rows=self.sizes.ecc_rows, sample_size=self.sizes.ecc_sample,
            ecc="recover")

    def warm_up_specs(self) -> List[CampaignSpec]:
        return self._warm(self.sizes.ecc_rows, self.sizes.ecc_sample)

    def _check(self, spec: EccCampaignSpec, outcome: Any) -> str:
        reasons = (outcome.quarantine.reasons.values()
                   if outcome.quarantine is not None else ())
        if "ecc-unrecovered" in reasons:
            return "ECC inference failed validation (degraded)"
        return self._check_distances(spec, outcome)

    def window(self, seconds: float) -> Window:
        specs = (self.spec(i) for i in itertools.count())
        return self._serial_window(specs, seconds, self.sizes.ecc_fixed,
                                   self._check)

    def verify(self, window: Window) -> Dict[str, Any]:
        """BEER must recover the exact secret code, and the recovered
        profile must equal the ECC-off profile of the same chip."""
        for i, outcome in enumerate(window.fixed):
            if outcome is None:
                continue
            spec = self.spec(i)
            code = HammingSecDed.for_vendor(spec.vendor, spec.build_seed)
            probe = vendor_profile(spec.vendor).make_chip(
                seed=ladder_seed(spec.build_seed, "ecc", "probe-chip"),
                n_rows=spec.n_rows)
            attach_on_die_ecc(probe, code)
            inferred = infer_ecc(probe, seed=ladder_seed(
                spec.run_seed, "beer", spec.vendor))
            if not (inferred.ok and inferred.matches(code)):
                window.fail(f"{spec.label()}: inferred matrix does not "
                            f"match the secret code")
            off = CampaignSpec(
                spec.experiment, spec.vendor, index=spec.index,
                build_seed=spec.build_seed, run_seed=spec.run_seed,
                n_rows=spec.n_rows, sample_size=spec.sample_size).run()
            # Distances, test counts and detected cells must be the
            # ECC-off ones.  Words the inversion cannot pin down are
            # quarantined "ecc-ambiguous" instead (documented,
            # fail-closed); any other quarantine reason is a failure.
            if off.signature()[1:5] != outcome.signature()[1:5]:
                window.fail(f"{spec.label()}: recovered profile differs "
                            f"from the ECC-off profile")
            reasons = (set(outcome.quarantine.reasons.values())
                       if outcome.quarantine is not None else set())
            if reasons - {"ecc-ambiguous"}:
                window.fail(f"{spec.label()}: quarantine reasons "
                            f"{sorted(reasons)}")
        return super().verify(window)


class ServiceMixed(Workload):
    """Open loop against a daemon, at most two connections at a time.

    Connection one sends, in due order, each new submission and the
    read paired with it half a period later; connection two waits for
    each admitted campaign's streamed results in turn.  Latencies run
    from when the request was *due*, so a stall counts against every
    request behind it; ``lag_ms`` records how late the generator ran.
    """

    name = "service_mixed"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.proc: Optional[subprocess.Popen] = None
        self.socket_path = ""
        self.spans_path: Optional[str] = None
        self._launches = 0
        self._log = None
        self._streamed: Dict[str, Dict[str, Any]] = {}

    def specs(self, k: int) -> List[CampaignSpec]:
        return [CampaignSpec(
            "characterize", VENDORS[(2 * k + j) % 3], index=k + 1,
            build_seed=chip_seed(self.seed, VENDORS[(2 * k + j) % 3],
                                 2 * k + j, "service"),
            run_seed=ladder_seed(self.seed, "service", "run", k, j),
            n_rows=self.sizes.service_rows,
            sample_size=self.sizes.service_sample, run_sweep=False)
            for j in range(2)]

    def warm_up_specs(self) -> List[CampaignSpec]:
        return self._warm(self.sizes.service_rows,
                          self.sizes.service_sample, run_sweep=False)

    def setup(self) -> None:
        super().setup()
        self.start_daemon(traced=False)

    def start_daemon(self, traced: bool) -> None:
        """Launch ``repro serve`` (fresh state) and wait for a ping."""
        self.stop_daemon()
        self._launches += 1
        tag = f"d{os.getpid()}-{self._launches}"
        # Relative to the checkout root (the cwd of both processes):
        # unix socket paths are limited to ~100 bytes.
        rel = os.path.relpath(self.run_dir)
        self.socket_path = os.path.join(rel, f"{tag}.sock")
        state = os.path.join(rel, f"{tag}.state")
        cmd = [sys.executable, os.path.join(BENCH_DIR,
                                            "daemon_launcher.py"),
               "--socket", self.socket_path, "--state", state,
               "--jobs", str(self.jobs), "--shard-size", "2",
               "--timeout", str(TIMEOUT_S)]
        self.spans_path = None
        if traced:
            self.spans_path = os.path.join(rel, f"{tag}.spans.pickle")
            cmd += ["--spans", self.spans_path]
        self._log = open(os.path.join(rel, f"{tag}.log"), "w")
        self.proc = subprocess.Popen(cmd, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        try:
            client.wait_for_service(self.socket_path, timeout=60.0,
                                    poll_s=0.01)
        except Exception:
            self.stop_daemon()
            raise

    def stop_daemon(self) -> Optional[List[Any]]:
        """Drain the daemon and reap it; return its spans if traced."""
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        try:
            if proc.poll() is None:
                try:
                    client.drain(self.socket_path, timeout=60.0)
                except (OSError, client.ServiceError):
                    pass
                proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if self._log is not None:
                self._log.close()
                self._log = None
        if self.spans_path and os.path.exists(self.spans_path):
            with open(self.spans_path, "rb") as fh:
                return pickle.load(fh)
        return None

    def teardown(self) -> None:
        self.stop_daemon()

    def window(self, seconds: float) -> Window:
        rate = self.sizes.service_rate
        n = max(1, int(round(seconds * rate)))
        win = Window()
        rng = random.Random(ladder_seed(self.seed, "service", "reads"))
        acked: "queue.Queue[Optional[tuple]]" = queue.Queue()
        admitted: List[tuple] = []
        last_result = [0.0]
        streamed: Dict[str, Dict[str, Any]] = {}

        def collect() -> None:
            while True:
                item = acked.get()
                if item is None:
                    return
                cid, due, specs = item
                try:
                    res = client.wait_results(self.socket_path, cid,
                                              timeout=TIMEOUT_S)
                except (OSError, client.ServiceError) as exc:
                    win.fail(f"results {cid}: {exc!r}")
                    continue
                now = _now()
                last_result[0] = now
                problem = self._check_results(specs, res)
                if problem:
                    win.fail(f"campaign {cid}: {problem}")
                    continue
                win.targets += len(specs)
                win.sample("turnaround_s", now - due)
                streamed[cid] = res

        waiter = threading.Thread(target=collect, name="results")
        waiter.start()
        start = _now()
        try:
            for k in range(n):
                due = start + k / rate
                self._sleep_until(due, win)
                specs = self.specs(k)
                tenant = f"tenant{k % 3}"
                win.attempted += 1
                try:
                    resp = client.submit(self.socket_path, specs,
                                         tenant=tenant)
                except (OSError, client.ServiceError) as exc:
                    win.rejected += isinstance(exc, client.ServiceRejected)
                    win.fail(f"submit {k}: {exc!r}")
                else:
                    win.sample("ack_ms", (_now() - due) * 1e3)
                    if resp.get("attached"):
                        win.fail(f"submit {k}: new campaign attached")
                    else:
                        admitted.append((resp["campaign"], tenant, specs))
                        acked.put((resp["campaign"], due, specs))
                        if k < self.sizes.service_fixed:
                            win.fixed.append((resp["campaign"], specs))
                due = start + (k + 0.5) / rate
                self._sleep_until(due, win)
                if admitted:
                    win.attempted += 1
                    self._read(k, rng.choice(admitted), due, win)
        finally:
            acked.put(None)
            waiter.join()
        win.elapsed_s = max(last_result[0], _now()) - start
        self._streamed = streamed
        return win

    def _sleep_until(self, due: float, win: Window) -> None:
        delay = due - _now()
        if delay > 0:
            time.sleep(delay)
        win.sample("lag_ms", max(0.0, _now() - due) * 1e3)

    def _read(self, k: int, target: tuple, due: float,
              win: Window) -> None:
        """A status poll (even k) or an idempotent resubmission."""
        cid, tenant, specs = target
        try:
            if k % 2 == 0:
                resp = client.status(self.socket_path, campaign=cid)
                ok = [c["id"] for c in resp["campaigns"]] == [cid]
            else:
                resp = client.submit(self.socket_path, specs,
                                     tenant=tenant)
                ok = resp.get("attached") is True and \
                    resp.get("campaign") == cid
        except (OSError, client.ServiceError) as exc:
            win.fail(f"read {k}: {exc!r}")
            return
        win.sample("read_ms", (_now() - due) * 1e3)
        if not ok:
            win.fail(f"read {k}: wrong campaign in reply")

    def _check_results(self, specs: Sequence[CampaignSpec],
                       res: Dict[str, Any]) -> str:
        if not res["end"].get("ok"):
            return f"end record not ok: {res['end']}"
        records = res["results"]
        if len(records) != len(specs):
            return f"{len(records)} results for {len(specs)} targets"
        for spec, record in zip(specs, records):
            if record.get("missing") or "signature" not in record:
                return f"missing result for {spec.label()}"
            if record["key"] != spec.checkpoint_key():
                return f"result key mismatch for {spec.label()}"
            if not magnitudes_ok(spec.vendor, record["signature"][1],
                                 self.expected):
                return (f"{spec.label()} distances "
                        f"{record['signature'][1]} != expected")
        return ""

    def verify(self, window: Window) -> Dict[str, Any]:
        """Re-run the fixed set in-process: the daemon's streamed
        signatures must be byte-identical to the serial ones."""
        outcomes = []
        for cid, specs in window.fixed:
            res = self._streamed.get(cid)
            for j, spec in enumerate(specs):
                outcome = spec.run()
                outcomes.append(outcome)
                if res is not None and (res["results"][j]["signature"]
                                        != signature_json(
                                            outcome.signature())):
                    window.fail(f"campaign {cid}: streamed signature of "
                                f"{spec.label()} differs from in-process")
        return fixed_set_metrics(outcomes)


WORKLOADS = {cls.name: cls for cls in (Characterize, CompareFleet,
                                       ServiceMixed, EccRecover)}
