"""Span tracing of the program's layers, installed from outside it.

Nothing here edits the program: :func:`install` replaces a layer's
public function *at the name its caller looks up* (a module global or
a class attribute) with a wrapper that records one span per call, and
:func:`uninstall` puts the originals back.  Spans live in memory as
tuples and are written out once, when the run ends.

A span is ``(id, parent, name, trace, start_ns, end_ns, pid, tid,
info)``.  ``trace`` is shared by every span of one request: the
campaign's ``trace_id()`` inside a campaign, the service campaign id
on the daemon side.  Times come from ``time.perf_counter_ns`` -
``CLOCK_MONOTONIC`` on Linux, one clock for every process of the
machine - so worker and daemon spans line up with the parent's.

Worker processes of ``run_fleet`` are forked from a process that has
the wrappers installed, so they inherit them.  The pool class the
fleet looks up is swapped for :class:`TracedPool`, which stamps each
submission, runs the target through :func:`_traced_call` in the
worker, and brings the worker's spans back on the returned outcome.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, Optional[int], str, Optional[str], int, int, int, int,
             Any]

#: Attribute names the worker side attaches to a returned outcome.
SPANS_ATTR = "_perfbench_spans"
STAMPS_ATTR = "_perfbench_stamps"

#: Data kernels of ``repro._kernels``, wrapped at each module that
#: imports them by name (``(module, function)``).
KERNEL_SITES = (
    ("repro.dram.bank", "gather_bits"),
    ("repro.dram.bank", "scatter_assign_bits"),
    ("repro.dram.bank", "scatter_flip_bits"),
    ("repro.dram.bank", "scatter_span_masks"),
    ("repro.dram.bank", "or_rows_masks"),
    ("repro.dram.bank", "clear_rows_masks"),
    ("repro.dram.bank", "pack_rows"),
    ("repro.dram.bank", "unpack_rows"),
    ("repro.dram.faults", "gather_bits"),
    ("repro.dram.mapping", "pack_rows"),
    ("repro.ecc.secded", "popcount"),
)
KERNELS = sorted({fn for _, fn in KERNEL_SITES})


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Parent/trace of top-level spans (set in a fleet worker to the
        # submitting process's open span).
        self.root: Tuple[Optional[int], Optional[str]] = (None, None)

    def new_id(self) -> int:
        return self.pid * 1_000_000_000 + next(self._ids)

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[Optional[int], Optional[str]]:
        stack = self.stack()
        return stack[-1] if stack else self.root

    def restart_in_worker(self, parent: Optional[int],
                          trace: Optional[str]) -> None:
        """Forget the spans inherited through fork; adopt a parent.

        The id counter carries on: ids are prefixed with the pid, and
        one worker runs many targets.
        """
        self.pid = os.getpid()
        self._local = threading.local()
        self.spans = []
        self.root = (parent, trace)


#: The tracer of this process while wrappers are installed.  Module
#: level because forked fleet workers must find it by import path.
_TRACER: Optional[Tracer] = None
_INSTALLED: List[Tuple[Any, str, Any]] = []


def _wrap(tracer: Tracer, name: str, fn: Callable,
          trace_of: Optional[Callable] = None,
          info_of: Optional[Callable] = None) -> Callable:
    def traced(*args, **kwargs):
        parent, trace = tracer.current()
        if trace_of is not None:
            trace = trace_of(args, kwargs) or trace
        sid = tracer.new_id()
        stack = tracer.stack()
        stack.append((sid, trace))
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            info = (info_of(args, kwargs, result)
                    if info_of is not None else None)
            tracer.spans.append((sid, parent, name, trace, start, end,
                                 tracer.pid, threading.get_ident(), info))
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    return traced


def _traced_call(fn: Callable, parent: Optional[int],
                 trace: Optional[str], submit_ns: int, *args: Any) -> Any:
    """Fleet-worker entry: run one target, ship its spans back."""
    tracer = _TRACER
    tracer.restart_in_worker(parent, trace)
    start = time.perf_counter_ns()
    outcome = _wrap(tracer, "runtime.fleet.task", fn)(*args)
    end = time.perf_counter_ns()
    outcome.__dict__[SPANS_ATTR] = tracer.spans
    outcome.__dict__[STAMPS_ATTR] = (submit_ns, start, end, tracer.pid)
    tracer.spans = []
    return outcome


def _harvest(outcome: Any) -> None:
    """Move worker spans off an outcome into this process's tracer.

    Called from the future's done-callback and from the journal
    wrapper, whichever runs first; ``dict.pop`` is atomic, so the
    spans are taken exactly once and never pickled into a journal.
    """
    spans = getattr(outcome, "__dict__", {}).pop(SPANS_ATTR, None)
    if spans and _TRACER is not None:
        _TRACER.spans.extend(spans)


class TracedPool(ProcessPoolExecutor):
    """The fleet's process pool, with dispatch/return stamps."""

    def submit(self, fn, /, *args, **kwargs):
        tracer = _TRACER
        parent, trace = tracer.current()
        submit_ns = time.perf_counter_ns()
        future = super().submit(_traced_call, fn, parent, trace,
                                submit_ns, *args, **kwargs)
        future.add_done_callback(
            lambda f: _on_done(tracer, parent, trace, f))
        return future


def _on_done(tracer: Tracer, parent: Optional[int], trace: Optional[str],
             future) -> None:
    received = time.perf_counter_ns()
    if future.cancelled() or future.exception() is not None:
        return
    outcome = future.result()
    stamps = getattr(outcome, "__dict__", {}).get(STAMPS_ATTR)
    if stamps is None:
        return
    submit_ns, start, end, worker = stamps
    # Cross-process intervals: tid 0 keeps them out of self-time math.
    tracer.spans.append((tracer.new_id(), parent, "runtime.fleet.dispatch",
                         trace, submit_ns, start, tracer.pid, 0, worker))
    tracer.spans.append((tracer.new_id(), parent, "runtime.fleet.return",
                         trace, end, received, tracer.pid, 0, worker))
    _harvest(outcome)


def _patch(owner: Any, attr: str, value: Any) -> None:
    _INSTALLED.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def _fleet_info(args, kwargs, result) -> Tuple[int, int, int]:
    """``(workers, targets, attempts)`` of one ``run_fleet`` call."""
    targets = len(args[0])
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    workers = 1 if jobs <= 1 else min(jobs, targets)
    attempts = result.attempts if result is not None else 0
    return workers, targets, attempts


def install() -> Tracer:
    """Wrap every traced layer of this process; return the tracer."""
    global _TRACER
    import importlib

    from repro.analysis import experiments
    from repro.core import detector
    from repro.dram.controller import MemoryController
    from repro.dram.vendors import VendorProfile
    from repro.ecc import spec as ecc_spec
    from repro.ecc.ondie import OnDieEcc
    from repro.runtime import fleet
    from repro.runtime.resilience import CheckpointJournal
    from repro.runtime.specs import CampaignSpec
    from repro.service import daemon
    from repro.service.protocol import campaign_id
    from repro.service.queue import DurableQueue
    from repro.service.scheduler import FairShareScheduler

    if _INSTALLED:
        raise RuntimeError("tracing is already installed")
    tracer = _TRACER = Tracer()

    def method(owner, attr, name, **hooks):
        _patch(owner, attr, _wrap(tracer, name, getattr(owner, attr),
                                  **hooks))

    method(CampaignSpec, "run", "campaign",
           trace_of=lambda a, k: a[0].trace_id(),
           info_of=lambda a, k, r: a[0].experiment)
    method(VendorProfile, "make_chip", "dram.make_chip")
    method(detector, "find_initial_victims", "core.discovery")
    method(detector, "recursive_neighbour_search", "core.recursion")
    method(detector, "neighbour_aware_sweep", "core.sweep")
    method(experiments, "random_pattern_test", "core.random_baseline")
    for attr in ("test_rows_patched", "test_pattern",
                 "test_pattern_per_row"):
        method(MemoryController, attr, f"dram.{attr}")
    for module_name, fn in KERNEL_SITES:
        method(importlib.import_module(module_name), fn, f"kernels.{fn}")
    method(ecc_spec, "infer_ecc", "ecc.infer")
    method(ecc_spec, "validate_inference", "ecc.validate")
    method(OnDieEcc, "transform_read", "ecc.transform_read")

    # A service shard's journal is named after its campaign id.
    fleet_hooks = dict(
        trace_of=lambda a, k: (os.path.basename(k["checkpoint"])
                               .rsplit(".", 1)[0]
                               if k.get("checkpoint") else None),
        info_of=_fleet_info)
    method(fleet, "run_fleet", "runtime.fleet", **fleet_hooks)
    method(daemon, "run_fleet", "runtime.fleet", **fleet_hooks)
    _patch(fleet, "ProcessPoolExecutor", TracedPool)

    record = CheckpointJournal.record

    def journal_record(self, spec, outcome):
        _harvest(outcome)
        return record(self, spec, outcome)
    _patch(CheckpointJournal, "record",
           _wrap(tracer, "runtime.journal.record", journal_record))
    method(DurableQueue, "submit", "service.queue.submit",
           trace_of=lambda a, k: campaign_id(a[1], a[3]))
    method(FairShareScheduler, "next_shard", "service.next_shard")
    return tracer


def uninstall() -> Optional[Tracer]:
    """Restore every wrapped name; return the tracer that was active."""
    global _TRACER
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)
    tracer, _TRACER = _TRACER, None
    return tracer


# -- per-layer metrics -------------------------------------------------------


def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"calls", "s", "self_s"}}`` over all spans.

    Self time is a span's duration minus its direct children in the
    same thread: children in another process or thread run beside it,
    not inside it.
    """
    where = {s[0]: (s[6], s[7]) for s in spans}
    child_ns: Dict[int, int] = {}
    for s in spans:
        if s[1] is not None and where.get(s[1]) == (s[6], s[7]):
            child_ns[s[1]] = child_ns.get(s[1], 0) + (s[5] - s[4])
    totals: Dict[str, Dict[str, float]] = {}
    for s in spans:
        entry = totals.setdefault(s[2], {"calls": 0, "s": 0.0,
                                         "self_s": 0.0})
        dur = s[5] - s[4]
        entry["calls"] += 1
        entry["s"] += dur / 1e9
        entry["self_s"] += (dur - child_ns.get(s[0], 0)) / 1e9
    return totals


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """The per-layer metrics this benchmark defines, from one trace."""
    totals = layer_totals(spans)

    def total(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def durations(name: str, scale: float) -> List[float]:
        return [(s[5] - s[4]) / scale for s in spans if s[2] == name]

    out: Dict[str, float] = {}
    campaigns = [s for s in spans if s[2] == "campaign"]
    out["campaign.calls"] = len(campaigns)
    out["campaign.s"] = total("campaign", "s")
    for name in ("dram.make_chip", "dram.test_rows_patched",
                 "dram.test_pattern", "dram.test_pattern_per_row",
                 "ecc.infer"):
        out[f"{name}.calls"] = total(name, "calls")
        out[f"{name}.s"] = total(name, "s")
    for fn in KERNELS:
        out[f"kernels.{fn}.calls"] = total(f"kernels.{fn}", "calls")
        out[f"kernels.{fn}.s"] = total(f"kernels.{fn}", "s")
    for name in ("core.discovery", "core.recursion", "core.sweep",
                 "core.random_baseline"):
        out[f"{name}.self_s"] = total(name, "self_s")
    out["ecc.validate.s"] = total("ecc.validate", "s")
    out["ecc.transform_read.s"] = total("ecc.transform_read", "s")
    ecc_campaigns = sum(1 for s in campaigns
                        if "+ecc" in (s[3] or ""))
    out["ecc.infer_per_campaign"] = (total("ecc.infer", "calls")
                                     / ecc_campaigns
                                     if ecc_campaigns else 0.0)

    fleets = [s for s in spans if s[2] == "runtime.fleet"]
    fleet_ids = {s[0] for s in fleets}
    # Busy time: worker tasks, plus campaigns a serial fleet ran inline.
    busy = [s for s in spans if s[2] == "runtime.fleet.task"
            or (s[2] == "campaign" and s[1] in fleet_ids)]
    capacity_s = sum((s[5] - s[4]) / 1e9 * s[8][0] for s in fleets)
    targets = sum(s[8][1] for s in fleets)
    # Overhead: a fleet's wall time beyond its compute critical path,
    # the longer of its longest target and its targets' time spread
    # evenly over its workers.
    longest: Dict[int, int] = {}
    summed: Dict[int, int] = {}
    for s in busy:
        longest[s[1]] = max(longest.get(s[1], 0), s[5] - s[4])
        summed[s[1]] = summed.get(s[1], 0) + (s[5] - s[4])
    wall_ns = sum(s[5] - s[4] for s in fleets)
    critical_ns = sum(max(longest.get(s[0], 0),
                          summed.get(s[0], 0) / s[8][0]) for s in fleets)
    out["runtime.fleet.calls"] = len(fleets)
    out["runtime.fleet.s"] = wall_ns / 1e9
    out["runtime.fleet.overhead_s"] = (wall_ns - critical_ns) / 1e9
    out["runtime.fleet.busy_frac"] = (
        sum((s[5] - s[4]) / 1e9 for s in busy) / capacity_s
        if capacity_s else 0.0)
    out["runtime.fleet.attempts_per_target"] = (
        sum(s[8][2] for s in fleets) / targets if targets else 0.0)
    out["runtime.fleet.dispatch_ms.p50"] = _p50(
        durations("runtime.fleet.dispatch", 1e6))
    out["runtime.fleet.return_ms.p50"] = _p50(
        durations("runtime.fleet.return", 1e6))
    out["runtime.journal.record_ms.p50"] = _p50(
        durations("runtime.journal.record", 1e6))

    submits = {s[3]: s for s in spans if s[2] == "service.queue.submit"}
    first_shard: Dict[str, int] = {}
    for s in fleets:
        if s[3] in submits:
            first_shard[s[3]] = min(first_shard.get(s[3], s[4]), s[4])
    out["service.queue.submit_ms.p50"] = _p50(
        durations("service.queue.submit", 1e6))
    out["service.queue_wait_s.p50"] = _p50(
        [(first_shard[c] - submits[c][5]) / 1e9 for c in first_shard])
    out["service.shard_s.p50"] = _p50(
        [(s[5] - s[4]) / 1e9 for s in fleets if s[3] in submits])
    out["service.next_shard.calls"] = total("service.next_shard", "calls")
    return out
