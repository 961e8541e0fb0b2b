"""Deterministic chaos harness for the fleet runtime.

Real memory-testing campaigns die in four characteristic ways: a
worker process crashes outright, a worker hangs past any useful
deadline, a transient infrastructure error surfaces as an exception,
and - nastiest - a run completes but returns a silently corrupted
result.  This module injects all four from a **seeded schedule**, so a
chaos run is exactly as reproducible as a clean one and the recovery
tests in ``tests/chaos`` can assert byte-identical outcomes.

A :class:`ChaosSpec` wraps a normal
:class:`~repro.runtime.specs.CampaignSpec` with an injection *plan*: a
tuple naming the fault to fire on each execution attempt (``""`` for a
clean attempt).  Attempt counting crosses process boundaries through a
counter file under ``chaos_dir``, because a crashed worker cannot
remember anything in memory.  Once the plan is exhausted the spec runs
clean, so a fleet whose ``retries`` budget covers the plan always
recovers - and because the wrapped spec's seeds are untouched, the
recovered outcome is identical to an unperturbed run.

:func:`chaos_schedule` derives a plan for every target from a root
seed via the SHA-256 seed ladder: same seed, same faults, regardless
of scheduling, ``--jobs``, or platform.

**Substrate chaos** perturbs the device instead of the process:
:class:`NoisySpec` attaches a seeded
:class:`~repro.dram.faults.DeviceNoiseModel` (VRT flips, marginal
cells, soft errors - optionally activating mid-campaign) to every bank
of the rebuilt chip, and :func:`device_noise_schedule` derives one
such spec per target from a root seed.  Combined with ``rounds > 1``
this drives the robustness invariant tests: the ``definite`` cells of
a noisy campaign match the noise-free profile, and every injected cell
ends in quarantine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..dram.faults import DeviceNoiseModel, NoiseSpec
from .seeds import ladder_seed
from .specs import CampaignOutcome, CampaignSpec

__all__ = ["ECC_FAULT_KINDS", "FAULT_KINDS", "SERVICE_FAULT_KINDS",
           "ChaosError", "ChaosSpec", "NoisySpec", "ServiceFaultPlan",
           "apply_service_fault", "chaos_schedule",
           "corrupt_inferred_ecc", "corrupt_queue_record",
           "device_noise_schedule", "service_chaos_plan", "wrap_spec"]

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
        hang_s: how long the ``"hang"`` fault sleeps.  Kept finite so
            an unwatched chaos run eventually fails loudly instead of
            stalling forever; a watchdog is expected to kill it first.

    The identity fields (seeds, geometry) are inherited unchanged, so
    ``label()``, ``checkpoint_key()`` and the outcome signature all
    match the wrapped spec's - a recovered chaos target is
    indistinguishable from a clean run of the original.
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

    def _counter_path(self) -> str:
        return os.path.join(self.chaos_dir,
                            self.checkpoint_key().replace(":", "_")
                            + ".attempts")

    def _next_attempt(self) -> int:
        """Increment and return this spec's execution count (1-based).

        The count lives on disk so it survives worker crashes.  The
        update must be write-to-temp + ``os.replace``: a worker can be
        SIGKILLed at any point (watchdog kill, pool-break collateral),
        and an in-place truncating rewrite killed between open and
        flush would leave an *empty* counter, rewinding the count and
        replaying already-fired faults until the retry budget drains.
        With the atomic replace a killed update merely loses its own
        increment - the count is monotonic, so a plan slot can never
        fire twice.
        """
        path = self._counter_path()
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
    return ChaosSpec(
        experiment=spec.experiment, vendor=spec.vendor, index=spec.index,
        build_seed=spec.build_seed, run_seed=spec.run_seed,
        n_rows=spec.n_rows, sample_size=spec.sample_size,
        run_sweep=spec.run_sweep, rounds=spec.rounds, config=spec.config,
        trace=spec.trace, plan=tuple(plan), chaos_dir=chaos_dir,
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
    layout.

    Args:
        seed: chaos root seed.
        specs: targets to perturb.
        chaos_dir: scratch directory for the attempt counters.
        faults: fault kinds to draw from (e.g. exclude ``"crash"`` for
            in-process serial fleets, ``"corrupt"`` when no verifying
            checkpoint will catch it).
        max_faults_per_target: plan-length cap; keep it at or below
            the fleet's ``retries`` so recovery is guaranteed.
        fault_rate: probability (per plan slot) that a fault fires.
        hang_s: sleep length of injected hangs.

    Returns:
        One :class:`ChaosSpec` per input spec, in input order.
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


def corrupt_inferred_ecc(inferred, kind: str, seed: int):
    """Corrupt a BEER inference result with a seeded ECC fault.

    Models the two failure modes of code recovery on real silicon: a
    stuck syndrome bit in the probe path (one parity-check row reads
    all-zero) and a subtly wrong recovered matrix (one bit off).  The
    campaign must never turn either into wrong definite verdicts - the
    validation gate has to catch both and degrade to quarantine, which
    is exactly what ``tests/chaos/test_ecc_chaos.py`` asserts.

    Returns a new :class:`repro.ecc.beer.InferredEcc`; the input is
    untouched (it is frozen).
    """
    import dataclasses

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
    return dataclasses.replace(
        inferred, basis=tuple(basis),
        note=f"chaos:{kind}@row{row}")


# -- service-level chaos ---------------------------------------------------


@dataclass(frozen=True)
class ServiceFaultPlan:
    """One seeded service-level fault: what fires, and where.

    ``shard`` / ``target`` locate the victim in *checkpoint-key
    order* - the same pure-function shard layout the service's queue
    uses (:func:`repro.service.queue.partition_shards`) - so a plan
    names the identical victim on every replay, resubmission, or
    restart.
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
    same seed, same fault, same victim shard/target - regardless of
    platform or scheduling.  Distinct seeds move the fault around, so
    a test sweeping a handful of seeds exercises kills in different
    shards and positions.
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
                        hang_s: float = 60.0) -> list:
    """Arm a service fault by wrapping the plan's victim target.

    The victim (located in checkpoint-key order, mirroring the
    service's shard layout) is wrapped so its *first* execution
    realises the service-level failure:

    * ``kill-daemon`` -> a ``"crash"`` fault.  Under the daemon's
      in-process shard execution (``jobs=1``, no ``timeout_s``) the
      ``os._exit`` takes the whole daemon down mid-shard - the moral
      equivalent of a SIGKILL between two checkpoint appends, and
      exactly as deterministic as the seed.
    * ``hang-shard`` -> a ``"hang"`` fault: the target sleeps past
      the shard watchdog.  A daemon with ``timeout_s`` runs every
      target in a killable child process at any ``jobs``, so
      ``run_fleet``'s watchdog kills it within ``timeout_s + 1`` s.
    * ``corrupt-queue`` targets the journal file, not a spec - use
      :func:`corrupt_queue_record`; the specs pass through unwrapped.

    The attempt counter in ``chaos_dir`` survives the daemon (put it
    inside the service's state dir), so after a restart the retry
    runs clean and recovery can be asserted byte-identical.

    Returns the specs in their input order, victim wrapped.
    """
    if plan.kind == "corrupt-queue":
        return list(specs)
    ordered = sorted(specs, key=lambda s: s.checkpoint_key())
    victim = ordered[plan.shard * shard_size + plan.target]
    fault = "crash" if plan.kind == "kill-daemon" else "hang"
    wrapped = wrap_spec(victim, (fault,), chaos_dir, hang_s=hang_s)
    return [wrapped if spec is victim else spec for spec in specs]


def corrupt_queue_record(path: str, seed: int,
                         kinds: Sequence[str] = ("shard_done",)
                         ) -> int:
    """Tamper with one seeded record of a service queue journal.

    Rewrites the victim line as still-valid JSON whose content no
    longer matches its CRC stamp (the signature of bit rot or a torn
    overwrite, as opposed to a truncated tail).  Replay must *detect*
    the mismatch and drop only that record; dropping a ``shard_done``
    merely re-runs the shard, which the checkpoint journal then
    verifies.

    Returns the zero-based line index that was corrupted.

    Raises ValueError when the journal holds no record of ``kinds``.
    """
    import json

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


@dataclass(frozen=True)
class NoisySpec(CampaignSpec):
    """A campaign spec whose rebuilt chips carry injected device noise.

    Attributes:
        noise: the :class:`~repro.dram.faults.NoiseSpec` describing the
            injected populations; ``None`` (or an empty spec) runs
            clean, leaving the spec byte-equivalent to its base.
        noise_seed: root of the per-bank noise seed ladder.  Each bank
            gets its own :class:`~repro.dram.faults.DeviceNoiseModel`
            seeded by ``ladder_seed(noise_seed, "device-noise",
            chip, bank)``, so the injected cell set is a pure function
            of ``(noise_seed, geometry)`` - never of scheduling.

    The injected noise *does* change what the campaign measures, so it
    joins the checkpoint key (unlike :class:`ChaosSpec`'s process
    faults, which must not).
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
        """Ground truth: every injected cell as sweep coordinates.

        Rebuilds the per-bank noise models (cheap - position draws
        only) and maps their physical columns through each bank's
        address scrambling, yielding ``(chip, bank, row, sys_col)``
        tuples comparable with campaign detections.
        """
        from ..dram.vendors import make_module, vendor

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

    Every target keeps its own identity seeds; only the *noise* seed
    is drawn from the ladder (``ladder_seed(seed, "device-noise",
    <target identity>)``), so the injected populations depend on the
    root seed and the target - never on list order, ``--jobs``, or
    platform.

    Args:
        seed: noise root seed.
        specs: targets to perturb.
        noise: the population spec shared by every target (use
            ``active_after`` to arm the noise mid-campaign).
        rounds: optionally override every spec's repeat-and-vote
            rounds at the same time (``None`` keeps each spec's own).

    Returns:
        One :class:`NoisySpec` per input spec, in input order.
    """
    wrapped = []
    for spec in specs:
        identity = (spec.experiment, spec.vendor, spec.index,
                    spec.run_seed)
        wrapped.append(NoisySpec(
            experiment=spec.experiment, vendor=spec.vendor,
            index=spec.index, build_seed=spec.build_seed,
            run_seed=spec.run_seed, n_rows=spec.n_rows,
            sample_size=spec.sample_size, run_sweep=spec.run_sweep,
            rounds=spec.rounds if rounds is None else rounds,
            config=spec.config, trace=spec.trace, noise=noise,
            noise_seed=ladder_seed(seed, "device-noise", *identity)))
    return wrapped
