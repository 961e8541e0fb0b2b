"""Deterministic fault injection for the test suites.

Real memory-testing campaigns die in four characteristic ways: a
worker crashes outright, a worker hangs past any useful deadline, a
transient infrastructure error surfaces as an exception, and - nastiest
- a run completes but returns a silently corrupted result.  This module
injects all four from a **seeded schedule**, so a chaos run is exactly
as reproducible as a clean one and the recovery tests can assert
byte-identical outcomes.  None of it ships in :mod:`repro`: production
code has no fault field, no fault-only hook and no fault on the wire.

* :class:`ChaosSpec` wraps a :class:`~repro.runtime.specs.CampaignSpec`
  with a per-attempt fault *plan*; attempts are counted in files under
  ``chaos_dir`` because a crashed worker cannot remember anything.
  Once the plan is exhausted the spec runs clean, and since the wrapped
  seeds are untouched the recovered outcome equals an unperturbed run.
  :func:`chaos_schedule` derives every plan from a root seed.
* :func:`ecc_fault` and :func:`daemon_faults` install faults from
  outside, the way :func:`repro._oracle.reference` installs the
  reference loops: each replacement goes where its caller looks the
  name up, the originals come back on exit, and nesting is refused.
* :class:`NoisySpec` perturbs the device instead of the process: a
  seeded :class:`~repro.dram.faults.DeviceNoiseModel` on every bank of
  the rebuilt chip (:func:`device_noise_schedule` draws one per target).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dram.faults import DeviceNoiseModel, NoiseSpec
from repro.ecc import spec as ecc_spec
from repro.runtime.resilience import CheckpointJournal
from repro.runtime.seeds import ladder_seed
from repro.runtime.specs import CampaignOutcome, CampaignSpec
from repro.service import daemon

FAULT_KINDS = ("crash", "hang", "transient", "corrupt")

#: On-die-ECC inference faults (see :func:`corrupt_inferred_ecc`):
#: ``stuck-syndrome`` zeroes one recovered parity-check row (a stuck
#: syndrome bit - structurally detectable: the basis loses rank),
#: ``wrong-matrix`` flips a single bit of one row (a plausible but
#: wrong inference - only behavioral validation can catch it).
ECC_FAULT_KINDS = ("stuck-syndrome", "wrong-matrix")

#: Service-level failure modes (see :func:`service_chaos_plan`):
#: ``kill-daemon`` takes the whole daemon down mid-shard,
#: ``hang-shard`` stalls one target past the shard watchdog,
#: ``corrupt-queue`` tampers with a durable queue record on disk.
SERVICE_FAULT_KINDS = ("kill-daemon", "hang-shard", "corrupt-queue")

CRASH_EXIT_CODE = 23


class ChaosError(RuntimeError):
    """An injected (deliberate) failure."""


def _respec(cls, spec: CampaignSpec, **fields):
    """A ``cls`` carrying every ``CampaignSpec`` field of ``spec``."""
    base = {f.name: getattr(spec, f.name)
            for f in dataclasses.fields(CampaignSpec)}
    return cls(**{**base, **fields})


@dataclass(frozen=True)
class ChaosSpec(CampaignSpec):
    """A campaign spec that injects scheduled faults when executed.

    Attributes:
        plan: fault to inject on each execution attempt (1-based);
            ``""`` means the attempt runs clean, and attempts beyond
            the plan always run clean.
        chaos_dir: directory holding the cross-process attempt
            counters (one file per spec); must exist.  An empty value
            disables injection entirely.
        hang_s: how long the ``"hang"`` fault sleeps; finite, so an
            unwatched hang eventually fails loudly.

    The identity fields are inherited unchanged, so ``label()``,
    ``checkpoint_key()`` and the outcome signature all match the
    wrapped spec's.
    """

    plan: Tuple[str, ...] = ()
    chaos_dir: str = ""
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        super().__post_init__()
        for fault in self.plan:
            if fault and fault not in FAULT_KINDS:
                raise ValueError(f"unknown chaos fault {fault!r}; "
                                 f"expected one of {FAULT_KINDS}")

    def _next_attempt(self) -> int:
        """Increment and return this spec's execution count (1-based).

        Write-to-temp + ``os.replace``: a worker killed mid-update only
        loses its own increment, so a plan slot never fires twice.
        """
        path = os.path.join(self.chaos_dir,
                            self.checkpoint_key().replace(":", "_")
                            + ".attempts")
        try:
            with open(path) as fh:
                count = int(fh.read().strip() or 0)
        except (FileNotFoundError, ValueError):
            count = 0
        count += 1
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            fh.write(str(count))
        os.replace(tmp, path)
        return count

    def run(self) -> CampaignOutcome:
        if not self.chaos_dir:
            return super().run()
        attempt = self._next_attempt()
        fault = self.plan[attempt - 1] if attempt <= len(self.plan) else ""
        if fault == "crash":
            os._exit(CRASH_EXIT_CODE)  # simulates a segfaulting worker
        if fault == "hang":
            time.sleep(self.hang_s)
            raise ChaosError(f"injected hang survived {self.hang_s:g} s "
                             f"without a watchdog")
        if fault == "transient":
            raise ChaosError("injected transient fault")
        outcome = super().run()
        if fault == "corrupt":
            # A silently wrong result: plausible shape, different
            # signature.  Only checkpoint verification can catch it.
            outcome.distances = list(outcome.distances) + [9999]
        return outcome


def wrap_spec(spec: CampaignSpec, plan: Sequence[str], chaos_dir: str,
              hang_s: float = 60.0) -> ChaosSpec:
    """A :class:`ChaosSpec` carrying ``spec``'s identity plus ``plan``."""
    return _respec(ChaosSpec, spec, plan=tuple(plan), chaos_dir=chaos_dir,
                   hang_s=hang_s)


def chaos_schedule(seed: int, specs: Sequence[CampaignSpec],
                   chaos_dir: str,
                   faults: Sequence[str] = FAULT_KINDS,
                   max_faults_per_target: int = 2,
                   fault_rate: float = 0.75,
                   hang_s: float = 60.0) -> list:
    """Wrap ``specs`` with a seeded, scheduling-independent fault plan.

    Every draw comes from ``ladder_seed(seed, "chaos", <target
    identity>, ...)``, so the schedule depends only on the root seed
    and each target's identity - never on list order or process
    layout.  Keep ``max_faults_per_target`` at or below the fleet's
    ``retries`` so recovery is guaranteed; leave ``"crash"`` out of
    ``faults`` for in-process fleets and ``"corrupt"`` out when no
    verifying checkpoint will catch it.
    """
    if not 0 <= fault_rate <= 1:
        raise ValueError("fault_rate must be in [0, 1]")
    if max_faults_per_target < 0:
        raise ValueError("max_faults_per_target must be non-negative")
    faults = tuple(faults)
    for fault in faults:
        if fault not in FAULT_KINDS:
            raise ValueError(f"unknown chaos fault {fault!r}")
    scale = float(2 ** 63)
    wrapped = []
    for spec in specs:
        identity = (spec.experiment, spec.vendor, spec.index,
                    spec.run_seed)
        plan = []
        for slot in range(max_faults_per_target):
            roll = ladder_seed(seed, "chaos", *identity, "fire",
                               slot) / scale
            if roll < fault_rate and faults:
                pick = ladder_seed(seed, "chaos", *identity, "kind",
                                   slot) % len(faults)
                plan.append(faults[pick])
            else:
                plan.append("")
        wrapped.append(wrap_spec(spec, plan, chaos_dir, hang_s=hang_s))
    return wrapped


# -- faults installed from outside ----------------------------------------

_installed: List[Tuple[object, str, object]] = []


@contextmanager
def _patched(*sites: Tuple[object, str, object]) -> Iterator[None]:
    """Install ``(owner, attr, replacement)`` sites; restore on exit."""
    if _installed:
        raise RuntimeError("a fault is already injected")
    try:
        for owner, attr, replacement in sites:
            _installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        while _installed:
            owner, attr, original = _installed.pop()
            setattr(owner, attr, original)


def corrupt_inferred_ecc(inferred, kind: str, seed: int):
    """Corrupt a BEER inference result with a seeded ECC fault.

    Models the two failure modes of code recovery on real silicon: a
    stuck syndrome bit in the probe path (one parity-check row reads
    all-zero) and a subtly wrong recovered matrix (one bit off).
    Returns a new :class:`repro.ecc.beer.InferredEcc`.
    """
    if kind not in ECC_FAULT_KINDS:
        raise ValueError(f"unknown ecc fault {kind!r}; expected one "
                         f"of {ECC_FAULT_KINDS}")
    basis = list(inferred.basis)
    if not basis:
        return inferred
    row = ladder_seed(seed, "ecc-fault", "row") % len(basis)
    if kind == "stuck-syndrome":
        basis[row] = 0
    else:
        bit = ladder_seed(seed, "ecc-fault", "bit") % 64
        basis[row] ^= 1 << bit
    return dataclasses.replace(inferred, basis=tuple(basis),
                               note=f"chaos:{kind}@row{row}")


@contextmanager
def ecc_fault(kind: str, seed: int = 0) -> Iterator[None]:
    """Corrupt every BEER inference an ``EccCampaignSpec`` makes in the
    block, by wrapping ``repro.ecc.spec.infer_ecc``."""
    if kind not in ECC_FAULT_KINDS:
        raise ValueError(f"unknown ecc fault {kind!r}")
    infer = ecc_spec.infer_ecc

    def infer_ecc(*args, **kwargs):
        return corrupt_inferred_ecc(infer(*args, **kwargs), kind, seed)
    with _patched((ecc_spec, "infer_ecc", infer_ecc)):
        yield


# -- service-level chaos ---------------------------------------------------


@dataclass(frozen=True)
class ServiceFaultPlan:
    """One seeded service-level fault: what fires, and where.

    ``shard`` / ``target`` locate the victim in *checkpoint-key
    order* - the service's shard layout
    (:func:`repro.service.queue.partition_shards`) - so a plan names
    the identical victim on every replay, resubmission, or restart.
    """

    kind: str
    shard: int
    target: int

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(f"unknown service fault {self.kind!r}; "
                             f"expected one of {SERVICE_FAULT_KINDS}")


def service_chaos_plan(seed: int, n_targets: int, shard_size: int,
                       kinds: Sequence[str] = SERVICE_FAULT_KINDS
                       ) -> ServiceFaultPlan:
    """Draw one seeded service fault for a campaign of ``n_targets``.

    Every draw comes from ``ladder_seed(seed, "service-chaos", ...)``:
    same seed, same fault, same victim; distinct seeds move the fault
    around the shard layout.
    """
    if n_targets < 1:
        raise ValueError("n_targets must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in SERVICE_FAULT_KINDS:
            raise ValueError(f"unknown service fault {kind!r}")
    n_shards = (n_targets + shard_size - 1) // shard_size
    kind = kinds[ladder_seed(seed, "service-chaos", "kind")
                 % len(kinds)]
    shard = ladder_seed(seed, "service-chaos", "shard") % n_shards
    width = min(shard_size, n_targets - shard * shard_size)
    target = ladder_seed(seed, "service-chaos", "target") % width
    return ServiceFaultPlan(kind=kind, shard=shard, target=target)


def apply_service_fault(plan: ServiceFaultPlan,
                        specs: Sequence[CampaignSpec],
                        chaos_dir: str, shard_size: int,
                        hang_s: float = 60.0) -> Dict:
    """The ``faults`` (see :func:`daemon_faults`) realising ``plan``.

    * ``kill-daemon``: the daemon exits as it journals the victim,
      between two fsync'd checkpoint appends, at any ``jobs``.
    * ``hang-shard``: the victim's first attempt sleeps past the
      watchdog; its attempt counter lives in ``chaos_dir``.
    * ``corrupt-queue`` tampers with the journal file instead (see
      :func:`corrupt_queue_record`); no fault is armed.
    """
    if plan.kind == "corrupt-queue":
        return {}
    ordered = sorted(spec.checkpoint_key() for spec in specs)
    victim = ordered[plan.shard * shard_size + plan.target]
    if plan.kind == "kill-daemon":
        return {"kill": [victim]}
    return {"dir": chaos_dir, "hang_s": hang_s, "plans": {victim: ["hang"]}}


@contextmanager
def daemon_faults(faults: Dict) -> Iterator[None]:
    """Arm ``faults`` in this (daemon) process for the block.

    ``faults`` is JSON, ``{"plans": {<checkpoint key>: [<fault>, ...]},
    "dir": <counter dir>, "hang_s": <s>, "kill": [<checkpoint key>]}``
    with every entry optional: targets in ``plans`` run as
    :class:`ChaosSpec`, and journaling a target in ``kill`` exits with
    :data:`CRASH_EXIT_CODE`.
    """
    plans = faults.get("plans", {})
    kill = set(faults.get("kill", ()))
    fleet, record = daemon.run_fleet, CheckpointJournal.record

    def run_fleet(specs, **kwargs):
        specs = [wrap_spec(spec, plans[spec.checkpoint_key()],
                           faults["dir"], faults.get("hang_s", 60.0))
                 if spec.checkpoint_key() in plans else spec
                 for spec in specs]
        return fleet(specs, **kwargs)

    def journal_record(journal, spec, outcome):
        if spec.checkpoint_key() in kill:
            os._exit(CRASH_EXIT_CODE)
        return record(journal, spec, outcome)
    with _patched((daemon, "run_fleet", run_fleet),
                  (CheckpointJournal, "record", journal_record)):
        yield


def corrupt_queue_record(path: str, seed: int,
                         kinds: Sequence[str] = ("shard_done",)
                         ) -> int:
    """Tamper with one seeded record of a service queue journal.

    Rewrites the victim line as still-valid JSON whose content no
    longer matches its CRC stamp (bit rot or a torn overwrite, as
    opposed to a truncated tail).  Returns the zero-based line index
    that was corrupted; raises ValueError when the journal holds no
    record of ``kinds``.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    victims = []
    for idx, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("kind") in kinds:
            victims.append((idx, record))
    if not victims:
        raise ValueError(f"{path}: no record of kind {tuple(kinds)} "
                         f"to corrupt")
    pick = ladder_seed(seed, "service-chaos", "corrupt") % len(victims)
    idx, record = victims[pick]
    record["tampered"] = True  # content changes, stale CRC stays
    lines[idx] = json.dumps(record, sort_keys=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return idx


# -- substrate chaos -------------------------------------------------------


@dataclass(frozen=True)
class NoisySpec(CampaignSpec):
    """A campaign spec whose rebuilt chips carry injected device noise.

    Attributes:
        noise: the :class:`~repro.dram.faults.NoiseSpec` describing the
            injected populations; ``None`` (or an empty spec) runs
            clean, leaving the spec byte-equivalent to its base.
        noise_seed: root of the per-bank noise seed ladder
            (``ladder_seed(noise_seed, "device-noise", chip, bank)``),
            so the injected cell set is a pure function of
            ``(noise_seed, geometry)`` - never of scheduling.

    The injected noise changes what the campaign measures, so it joins
    the checkpoint key (unlike :class:`ChaosSpec`'s process faults).
    """

    noise: Optional[NoiseSpec] = None
    noise_seed: int = 0

    def _identity_extras(self) -> Tuple:
        if self.noise is None or self.noise.empty:
            return ()
        return ("device-noise", repr(self.noise), self.noise_seed)

    def _prepare_chips(self, chips) -> None:
        if self.noise is None or self.noise.empty:
            return
        for chip_idx, chip in enumerate(chips):
            for bank_idx, bank in enumerate(chip.banks):
                bank.noise = DeviceNoiseModel(
                    self.noise, n_rows=bank.n_rows,
                    row_bits=bank.row_bits,
                    seed=ladder_seed(self.noise_seed, "device-noise",
                                     chip_idx, bank_idx))

    def injected_cells(self):
        """Ground truth: every injected cell as ``(chip, bank, row,
        sys_col)`` sweep coordinates, comparable with detections."""
        from repro.dram.vendors import make_module, vendor

        if self.noise is None or self.noise.empty:
            return set()
        if self.experiment == "characterize":
            chips = [vendor(self.vendor).make_chip(seed=self.build_seed,
                                                   n_rows=self.n_rows)]
        else:
            chips = list(make_module(self.vendor, self.index,
                                     seed=self.build_seed,
                                     n_rows=self.n_rows).chips)
        self._prepare_chips(chips)
        coords = set()
        for chip_idx, chip in enumerate(chips):
            for bank_idx, bank in enumerate(chip.banks):
                rows, phys = bank.noise.cells()
                sys_cols = bank.mapping.phys_to_sys()[phys]
                coords.update(
                    (chip_idx, bank_idx, int(r), int(c))
                    for r, c in zip(rows.tolist(), sys_cols.tolist()))
        return coords


def device_noise_schedule(seed: int, specs: Sequence[CampaignSpec],
                          noise: NoiseSpec,
                          rounds: Optional[int] = None) -> list:
    """Wrap ``specs`` with seeded device noise (substrate chaos).

    Each target keeps its identity seeds; only its noise seed is drawn
    (``ladder_seed(seed, "device-noise", <target identity>)``), so the
    injected populations never depend on list order, ``--jobs`` or
    platform.  ``rounds`` optionally overrides every spec's
    repeat-and-vote rounds (``None`` keeps each spec's own).
    """
    return [
        _respec(NoisySpec, spec, noise=noise,
                rounds=spec.rounds if rounds is None else rounds,
                noise_seed=ladder_seed(seed, "device-noise",
                                       spec.experiment, spec.vendor,
                                       spec.index, spec.run_seed))
        for spec in specs
    ]
