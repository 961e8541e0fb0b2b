"""Fleet-campaign execution engine.

:func:`run_fleet` runs a list of :class:`~repro.runtime.specs.CampaignSpec`
targets through one scheduling loop and guarantees that every ``jobs``
setting produces **identical** outcomes:

* every target's randomness comes from seeds embedded in its spec, so
  scheduling order cannot leak into results;
* outcomes are keyed by submission index and returned in submission
  order, regardless of completion order;
* per-target statistics travel back with the outcome and are merged
  with :meth:`repro.dram.controller.TestStats.merge`, so the fleet's
  aggregate counters match a serial run exactly.

The loop's only choice is where targets execute: in killable child
processes (a ``ProcessPoolExecutor``) whenever ``timeout_s`` is set or
more than one target runs at a time, and in the calling process only
when there is no deadline and capacity is 1 - nothing to kill.

On top of that sits the resilience layer
(:mod:`repro.runtime.resilience`):

* **retries with deterministic backoff** - a target that raises is
  given ``retries`` more attempts, delayed by seed-ladder-jittered
  exponential backoff, so retry timing is as reproducible as the
  results;
* **checkpoints** - with ``checkpoint=...`` every completed outcome is
  journaled immediately; ``resume=True`` loads finished targets from
  the journal instead of re-running them, and ``resume="verify"``
  re-runs them and requires byte-identical signatures (catching
  silently corrupted results);
* **deadlines** - with ``timeout_s=...`` a watchdog SIGKILLs the child
  process of a target that overruns and the target is retried; this
  works from any thread and at any ``jobs``;
* **graceful degradation** - with ``strict=False`` a target that
  exhausts its budget becomes a :class:`TargetError` on the result
  instead of aborting the fleet (bounded by ``max_failures``);
* **crash isolation** - a dead worker poisons every outstanding future
  with ``BrokenProcessPool``; the innocent casualties are requeued
  *without* being charged an attempt, and the suspects are re-run one
  at a time so only a target that crashes alone is charged.

Since specs are pure functions of their seeds, a retry cannot change
the result - only recover it.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, \
    ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

from .. import obs
from ..dram.controller import TestStats
from .resilience import (DEFAULT_BACKOFF_BASE, DEFAULT_BACKOFF_CAP,
                         CheckpointJournal, CheckpointMismatch,
                         TargetError, TargetTimeout, backoff_delay)
from .specs import CampaignOutcome, CampaignSpec

__all__ = ["FleetResult", "FleetExecutionError", "run_fleet"]


class FleetExecutionError(RuntimeError):
    """A target kept failing after exhausting its retry budget."""

    def __init__(self, spec: CampaignSpec, attempts: int,
                 cause: BaseException) -> None:
        super().__init__(
            f"campaign {spec.label()} failed {attempts} time(s); "
            f"last error: {cause!r}")
        self.spec = spec
        self.attempts = attempts


@dataclass
class FleetResult:
    """Ordered outcomes of a fleet run plus aggregate counters.

    Attributes:
        outcomes: one :class:`CampaignOutcome` per *successful* input
            spec, in the input order.  In strict mode (the default)
            every spec succeeds or the fleet raises, so this is one
            outcome per spec; in degraded mode the targets listed in
            ``errors`` have no outcome.
        stats: fleet-wide merged I/O counters (successes only).
        jobs: worker count the fleet ran with.
        attempts: total executions *started* (== number of targets
            when nothing had to be retried).  Distinct from the
            per-target retry budget, which is only charged for
            failures attributable to that target - pool-break
            casualties and checkpoint hits consume neither.
        errors: per-target failure records (empty unless the fleet ran
            with ``strict=False`` and a target exhausted its budget).
        checkpoint_hits: targets restored from the checkpoint journal
            instead of being executed.
        metrics: merged worker metrics registries (None unless some
            spec ran with ``trace=True`` in a worker process); merged
            with :meth:`~repro.obs.MetricsRegistry.merge`, the same
            aggregation path as :meth:`TestStats.merge`.
    """

    outcomes: List[CampaignOutcome]
    stats: TestStats = field(default_factory=TestStats)
    jobs: int = 1
    attempts: int = 0
    errors: List[TargetError] = field(default_factory=list)
    checkpoint_hits: int = 0
    metrics: Optional[obs.MetricsRegistry] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> bool:
        """Whether every target produced an outcome."""
        return not self.errors

    def trace_records(self) -> List[dict]:
        """Worker-collected trace records, in fleet order."""
        return [record for outcome in self.outcomes
                for record in (outcome.trace_records or [])]

    def signatures(self) -> List[tuple]:
        """Per-target digests for equivalence checks across ``jobs``."""
        return [o.signature() for o in self.outcomes]

    def comparisons(self) -> List[object]:
        """The non-None ``comparison`` records, in fleet order."""
        return [o.comparison for o in self.outcomes
                if o.comparison is not None]


#: Free (uncharged) watchdog passes granted to a submission whose
#: worker never provably started before the deadline.  Under heavy
#: machine load a forked worker can take seconds to begin executing;
#: charging the *target* for that would burn its retry budget on a
#: scheduler problem.  Bounded so a pathological host still converges.
MAX_STALL_PASSES = 3


def _execute_target(spec: CampaignSpec,
                    started_path: Optional[str] = None) -> CampaignOutcome:
    """Worker entry point; must stay module-level for pickling.

    ``started_path`` is the watchdog's start marker: touching it
    proves this submission actually began executing, so an expired
    deadline can be attributed to the target rather than to a worker
    that never got scheduled.
    """
    if started_path is not None:
        try:
            with open(started_path, "w"):
                pass
        except OSError:
            pass
    return spec.run()


class _InlineExecutor:
    """Capacity-1 executor running each submission in this process.

    Used only when nothing could ever need killing (no deadline, one
    target at a time); ``submit`` runs the target to completion and
    returns an already-settled future, so the scheduling loop treats
    it exactly like a pool.  Only ``Exception`` is captured: an
    interrupt propagates as it would from any in-process call.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - settled on the future
            future.set_exception(exc)
        return future


@contextmanager
def _executor(killable: bool, capacity: int) -> Iterator[object]:
    """The executor one scheduling round runs on.

    Killable rounds fork a ``ProcessPoolExecutor`` with the gc heap
    frozen: on fork-start platforms every tracked object the parent
    holds is shared copy-on-write with the workers, and the first
    collection in a worker would touch all of their headers and copy
    the pages.  ``obs.detach`` keeps forked workers from recording into
    the parent session's inherited (and discarded) copy.
    """
    if not killable:
        yield _InlineExecutor()
        return
    gc.collect()
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=capacity,
                                 initializer=obs.detach) as pool:
            yield pool
    finally:
        gc.unfreeze()


def _kill_pool(pool: object) -> None:
    """SIGKILL every pool worker (the watchdog's hammer).

    Outstanding futures settle with ``BrokenProcessPool``; the caller
    decides who gets charged.  Reaches into ``_processes`` because the
    executor API deliberately offers no way to kill a hung worker.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.kill()


def _take_eligible(queue: List[int], gates: Dict[int, float]
                   ) -> Optional[int]:
    """Pop the first queued target whose backoff gate has passed."""
    now = time.monotonic()
    for position, i in enumerate(queue):
        if gates.get(i, 0.0) <= now:
            return queue.pop(position)
    return None


@dataclass
class _Flight:
    """One submitted execution: its target, start time and marker."""

    index: int
    submitted: float
    marker: Optional[str]

    def started(self) -> bool:
        return os.path.exists(self.marker)


class _FleetRun:
    """The fleet's whole state machine, driven by one scheduling loop.

    Owns the per-target attempt ledger, the checkpoint journal, the
    degraded-mode error list, the ready and isolation queues with
    their backoff gates, and the watchdog's start markers and stall
    passes.  The only choice :meth:`execute` makes is *where* targets
    run, taken from the inputs alone:

    * in killable child processes whenever a deadline is set or
      capacity exceeds 1, so the watchdog can SIGKILL a hung target
      from any thread;
    * in the calling process only with no deadline and capacity 1,
      because then there is nothing to kill.
    """

    def __init__(self, specs: Sequence[CampaignSpec], capacity: int,
                 retries: int, timeout_s: Optional[float], strict: bool,
                 max_failures: Optional[int],
                 journal: Optional[CheckpointJournal], verify: bool,
                 backoff_base: float, backoff_cap: float) -> None:
        self.specs = specs
        self.capacity = capacity
        self.killable = bool(timeout_s) or capacity > 1
        self.retries = retries
        self.timeout_s = timeout_s
        self.strict = strict
        self.max_failures = max_failures
        self.journal = journal
        self.verify = verify
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.outcomes: Dict[int, CampaignOutcome] = {}
        self.errors: List[TargetError] = []
        self.attempts: Dict[int, int] = {i: 0 for i in range(len(specs))}
        self.attempts_total = 0
        self.checkpoint_hits = 0
        self.ready: List[int] = []
        # Targets implicated in an ambiguous pool break are re-run one
        # at a time: a crash with a single target in flight has an
        # unambiguous culprit, so only repeat-crashers are ever charged.
        self.isolate: List[int] = []
        self.gates: Dict[int, float] = {}
        # Start markers: per-submission files a worker touches before
        # it runs the target, so an expired deadline can distinguish
        # "the target hung" from "the worker never started" (slow fork
        # under load).  Only started executions are charged a timeout.
        self.marker_dir: Optional[str] = None
        self.marker_seq = 0
        self.stall_passes: Dict[int, int] = {}

    def load_checkpointed(self) -> List[int]:
        """Restore journaled targets; return the indices left to run.

        In ``verify`` mode nothing is restored - every journaled
        target is re-executed and checked against its journal entry.
        """
        remaining: List[int] = []
        for i, spec in enumerate(self.specs):
            if (self.journal is not None and not self.verify
                    and self.journal.has(spec)):
                self.outcomes[i] = self.journal.outcome(spec)
                self.checkpoint_hits += 1
                obs.event("fleet.checkpoint_hit", target=spec.label())
                obs.inc("proc.fleet.checkpoint_hits")
            else:
                remaining.append(i)
        return remaining

    def charge(self, i: int) -> None:
        """Charge one budgeted attempt against target ``i``.

        Called only for executions whose fate is attributable to the
        target itself - success, exception, timeout, or a crash with
        the target alone in flight.  Pool-break casualties are never
        charged.
        """
        self.attempts[i] += 1

    def complete(self, i: int, outcome: CampaignOutcome) -> None:
        """Verify against the journal, record, and store an outcome."""
        spec = self.specs[i]
        if self.journal is not None and self.journal.has(spec):
            if not self.journal.signature_matches(spec, outcome):
                raise CheckpointMismatch(spec.label())
            obs.inc("proc.fleet.verified")
        elif self.journal is not None:
            self.journal.record(spec, outcome)
        self.outcomes[i] = outcome

    def fail(self, i: int, exc: BaseException, kind: str,
             queue: List[int]) -> None:
        """Record a charged failed attempt; requeue it onto ``queue``
        behind its backoff gate while budget remains."""
        spec = self.specs[i]
        if self.attempts[i] <= self.retries:
            obs.event("fleet.retry", target=spec.label(),
                      attempt=self.attempts[i], error=repr(exc))
            obs.inc("proc.fleet.retries")
            self.gates[i] = time.monotonic() + backoff_delay(
                spec, self.attempts[i], self.backoff_base,
                self.backoff_cap)
            queue.append(i)
            return
        if self.strict:
            raise FleetExecutionError(spec, self.attempts[i], exc)
        self.errors.append(TargetError(
            index=i, label=spec.label(), attempts=self.attempts[i],
            kind=kind, error=repr(exc)))
        obs.event("fleet.degraded", target=spec.label(),
                  attempts=self.attempts[i], kind=kind, error=repr(exc))
        obs.inc("proc.fleet.degraded_targets")
        if (self.max_failures is not None
                and len(self.errors) > self.max_failures):
            raise FleetExecutionError(spec, self.attempts[i], exc)

    def result(self) -> FleetResult:
        ordered = [self.outcomes[i] for i in sorted(self.outcomes)]
        return FleetResult(outcomes=ordered, jobs=self.capacity,
                           attempts=self.attempts_total,
                           errors=list(self.errors),
                           checkpoint_hits=self.checkpoint_hits)

    # -- the scheduling loop ----------------------------------------------

    def execute(self) -> FleetResult:
        """Run every target not restored from the journal."""
        self.ready = self.load_checkpointed()
        if self.timeout_s:
            self.marker_dir = tempfile.mkdtemp(prefix="repro-fleet-start-")
        try:
            while self.ready or self.isolate:
                if self.isolate:
                    self._round(self.isolate, 1)
                else:
                    self._round(self.ready, self.capacity)
        finally:
            if self.marker_dir is not None:
                shutil.rmtree(self.marker_dir, ignore_errors=True)
        return self.result()

    def _round(self, queue: List[int], capacity: int) -> None:
        """Drain ``queue`` on one executor, or stop when it breaks."""
        in_flight: Dict[Future, _Flight] = {}
        with _executor(self.killable, capacity) as pool:
            try:
                while queue or in_flight:
                    self._submit(pool, queue, capacity, in_flight)
                    if not in_flight:
                        # Everything runnable is behind a backoff
                        # gate; sleep until the earliest one opens.
                        wake = min(self.gates[i] for i in queue)
                        time.sleep(max(0.0, wake - time.monotonic()))
                        continue
                    done, _ = wait(set(in_flight),
                                   timeout=self._next_wake(
                                       queue, capacity, in_flight),
                                   return_when=FIRST_COMPLETED)
                    if (self._settle(done, in_flight)
                            or self._watchdog(pool, in_flight)):
                        return
            except BaseException:
                # Strict failure or interrupt: do not let pool
                # shutdown block on a worker that may be hung.
                _kill_pool(pool)
                raise

    def _submit(self, pool, queue: List[int], capacity: int,
                in_flight: Dict[Future, _Flight]) -> None:
        # Never more submissions than workers: every submitted target
        # is executing, so its deadline is meaningful.
        while queue and len(in_flight) < capacity:
            i = _take_eligible(queue, self.gates)
            if i is None:
                return
            self.gates.pop(i, None)
            marker = None
            if self.marker_dir is not None:
                self.marker_seq += 1
                marker = os.path.join(self.marker_dir,
                                      f"{self.marker_seq}.started")
            submitted = time.monotonic()
            future = pool.submit(_execute_target, self.specs[i], marker)
            self.attempts_total += 1
            in_flight[future] = _Flight(i, submitted, marker)
            if self.killable:
                obs.event("fleet.submit", target=self.specs[i].label())

    def _next_wake(self, queue: List[int], capacity: int,
                   in_flight: Dict[Future, _Flight]) -> Optional[float]:
        """Seconds until the earliest deadline or open backoff gate."""
        timeout = None
        if self.timeout_s:
            first = min(f.submitted for f in in_flight.values())
            timeout = max(0.0, first + self.timeout_s - time.monotonic())
        gated = [self.gates[i] for i in queue if i in self.gates]
        if gated and len(in_flight) < capacity:
            wake = max(0.0, min(gated) - time.monotonic())
            timeout = wake if timeout is None else min(timeout, wake)
        return timeout

    def _settle(self, done, in_flight: Dict[Future, _Flight]) -> bool:
        """Account for finished futures; True if the pool broke."""
        crashed: List[int] = []
        crash_exc: Optional[BaseException] = None
        for future in done:
            flight = in_flight.pop(future)
            i = flight.index
            if flight.marker is not None:
                try:
                    os.unlink(flight.marker)
                except OSError:
                    pass
            try:
                outcome = future.result()
            except BrokenProcessPool as exc:
                crashed.append(i)
                crash_exc = exc
                continue
            except Exception as exc:  # noqa: BLE001 - retried
                self.charge(i)
                self.fail(i, exc, "exception", self.ready)
                continue
            self.charge(i)
            try:
                self.complete(i, outcome)
            except CheckpointMismatch as exc:
                obs.event("fleet.corrupt", target=self.specs[i].label(),
                          attempt=self.attempts[i])
                obs.inc("proc.fleet.corrupt_outcomes")
                self.fail(i, exc, "corrupt", self.ready)
                continue
            if self.killable:
                obs.event("fleet.done", target=self.specs[i].label(),
                          attempt=self.attempts[i])
        if not crashed:
            return False
        casualties = sorted(crashed
                            + [f.index for f in in_flight.values()])
        in_flight.clear()
        obs.inc("proc.fleet.pool_rebuilds")
        if len(casualties) == 1:
            # Alone in flight: unambiguous crasher.
            self.charge(casualties[0])
            self.fail(casualties[0], crash_exc, "crash", self.isolate)
        else:
            # Ambiguous: requeue everyone uncharged, isolated so the
            # next crash convicts.
            self.isolate.extend(casualties)
        return True

    def _watchdog(self, pool, in_flight: Dict[Future, _Flight]) -> bool:
        """Kill the workers if a submission is overdue; True if so.

        The executor cannot cancel a running task, so the watchdog
        kills every worker and the next round rebuilds the pool.  Only
        the overdue targets are charged; co-killed ones requeue free.
        An overdue submission whose start marker was never touched
        provably never began executing (slow fork under machine load)
        - that is not the target's fault, so it requeues uncharged, up
        to MAX_STALL_PASSES times.
        """
        if not self.timeout_s:
            return False
        now = time.monotonic()
        expired = [f for f, flight in in_flight.items()
                   if flight.submitted + self.timeout_s <= now]
        if not expired:
            return False
        _kill_pool(pool)
        killed = time.monotonic()
        obs.inc("proc.fleet.pool_rebuilds")
        overdue: List[_Flight] = []
        stalled: List[int] = []
        for future in expired:
            flight = in_flight.pop(future)
            i = flight.index
            if (flight.started()
                    or self.stall_passes.get(i, 0) >= MAX_STALL_PASSES):
                overdue.append(flight)
            else:
                self.stall_passes[i] = self.stall_passes.get(i, 0) + 1
                stalled.append(i)
        survivors = sorted(f.index for f in in_flight.values())
        in_flight.clear()
        for flight in sorted(overdue, key=lambda f: f.index):
            i = flight.index
            self.charge(i)
            latency_ms = (killed - flight.submitted) * 1e3
            obs.event("fleet.timeout", target=self.specs[i].label(),
                      attempt=self.attempts[i], timeout_s=self.timeout_s,
                      kill_latency_ms=latency_ms)
            obs.inc("proc.fleet.timeouts")
            obs.observe("proc.fleet.kill_latency_ms", latency_ms)
            self.fail(i, TargetTimeout(self.timeout_s), "timeout",
                      self.ready)
        for i in sorted(stalled):
            obs.event("fleet.stalled_start", target=self.specs[i].label(),
                      passes=self.stall_passes[i])
            obs.inc("proc.fleet.stalled_starts")
        self.ready.extend(sorted(stalled))
        self.ready.extend(survivors)
        return True


def run_fleet(targets: Sequence[CampaignSpec], jobs: int = 1,
              retries: int = 2, *,
              timeout_s: Optional[float] = None,
              strict: bool = True,
              max_failures: Optional[int] = None,
              checkpoint: Optional[str] = None,
              resume: Union[bool, str] = False,
              checkpoint_fsync: bool = False,
              backoff_base: float = DEFAULT_BACKOFF_BASE,
              backoff_cap: float = DEFAULT_BACKOFF_CAP) -> FleetResult:
    """Run a fleet of campaign targets, serially or in parallel.

    Args:
        targets: campaign specs to execute.
        jobs: targets executed at a time, capped at ``len(targets)``.
            Capacity 1 without ``timeout_s`` runs everything in the
            calling process; otherwise targets run in child processes.
        retries: extra attempts granted to a failing target before it
            is declared failed.
        timeout_s: per-target deadline; a target exceeding it has its
            child process killed (from any thread, at any ``jobs``)
            and is charged a ``timeout`` attempt.  ``None`` disables
            the watchdog.
        strict: with ``True`` (default) the first target to exhaust
            its budget raises :class:`FleetExecutionError`; with
            ``False`` it becomes a :class:`TargetError` on the result
            and the fleet keeps going.
        max_failures: in non-strict mode, abort once more than this
            many targets have failed (``None`` = unlimited).
        checkpoint: path of the JSON Lines checkpoint journal; every
            completed outcome is flushed to it immediately.
        resume: ``False`` starts a fresh journal; ``True`` loads
            completed targets from ``checkpoint`` instead of
            re-running them; ``"verify"`` re-runs them and requires
            byte-identical signatures (a mismatch is a retryable
            ``corrupt`` failure).
        checkpoint_fsync: fsync the journal after every record, so
            completed targets survive power-loss-style kills (the
            service daemon runs in this mode).
        backoff_base: base delay of the deterministic exponential
            retry backoff (seconds); ``0`` disables sleeping.
        backoff_cap: upper bound on a single backoff delay.

    Returns:
        A :class:`FleetResult` whose ``outcomes`` are in the order of
        ``targets`` and identical for every value of ``jobs``.
    """
    specs = list(targets)
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    if max_failures is not None and max_failures < 0:
        raise ValueError("max_failures must be non-negative")
    if resume not in (False, True, "verify"):
        raise ValueError('resume must be False, True, or "verify"')
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint path")
    if not specs:
        return FleetResult(outcomes=[], jobs=max(1, jobs))

    journal = (CheckpointJournal(checkpoint, resume=bool(resume),
                                 fsync=checkpoint_fsync)
               if checkpoint else None)
    run = _FleetRun(specs, capacity=max(1, min(jobs, len(specs))),
                    retries=retries, timeout_s=timeout_s,
                    strict=strict, max_failures=max_failures,
                    journal=journal, verify=(resume == "verify"),
                    backoff_base=backoff_base, backoff_cap=backoff_cap)
    try:
        with obs.span("fleet", targets=len(specs),
                      jobs=jobs) as fleet_span:
            result = run.execute()
            fleet_span.set(attempts=result.attempts)
    finally:
        # Journaled progress survives any exit - including interrupts
        # and strict failures - so the next run can resume from it.
        if journal is not None:
            journal.close()
    result.stats = TestStats.merge(o.stats for o in result.outcomes
                                   if o.stats is not None)
    worker_metrics = [o.metrics for o in result.outcomes
                      if o.metrics is not None]
    if worker_metrics:
        result.metrics = obs.MetricsRegistry.merge(worker_metrics)
    return result
