"""Frozen fuzz scenarios and their seeded generator.

A :class:`Scenario` is everything the differential harness needs to
reproduce one point of the protocol state space: workload (plus kernel
parameter overrides), process count, communication mode, eager
threshold, checkpoint interval, network seed and fault schedule, plus
the fields of whichever adversary bands (:mod:`repro.fuzz.bands`) set
them.  It is frozen, hashable and JSON-serialisable — the same object
drives live fuzz runs, shrinking, and corpus replay years later.

:func:`generate_scenario` maps an integer seed to a scenario
deterministically (``random.Random`` with a fixed salt), so a failing
seed printed by one fuzz campaign regenerates the identical scenario in
any other checkout of the same version.

The generator is biased toward the regions where message-logging bugs
historically live: faults are present ~85% of the time, wildcard
(``MPI_ANY_SOURCE``) workloads are common, and the *nasty-timing* fault
kind aims kills at the fragile instants — time zero, mid-checkpoint
windows, and the restart boundary right after a recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Any

from repro.config import SimulationConfig
from repro.faults.injector import (EventSpec, FaultSpec, GrayFaultSpec,
                                   JoinSpec, LeaveSpec, check_schedule)
from repro.fuzz.bands import BANDS, pick_bands
from repro.protocols.checkpoint import StorageConfig
from repro.simnet.network import NetworkConfig, PartitionWindow
from repro.simnet.transport import TransportConfig
from repro.workloads.presets import workload_factory

#: workloads the generator draws from, weighted toward the wildcard-heavy
#: ones (causal-delivery bugs need nondeterministic receives to surface)
WORKLOAD_WEIGHTS = (
    ("synthetic", 0.35),
    ("reduce", 0.20),
    ("lu", 0.25),
    ("cg", 0.20),
)

#: the kernel parameter that bounds each workload's horizon
LENGTH_KWARG = {
    "synthetic": "rounds",
    "reduce": "iterations",
    "lu": "iterations",
    "cg": "iterations",
    "mg": "iterations",
    "is": "iterations",
}

#: fault-schedule kinds, and their default generator weights (a band's
#: ``kinds`` replaces the weights, in this order)
FAULT_KINDS = ("none", "single", "staggered", "simultaneous", "nasty")
FAULT_KIND_WEIGHTS = (0.15, 0.35, 0.20, 0.15, 0.15)

#: engine backstop for fuzz runs: far above any legal fast-preset run
#: (~10^4–10^5 events), far below the engine default, so a mutant that
#: livelocks recovery fails fast instead of spinning for minutes
FUZZ_MAX_EVENTS = 2_000_000

#: largest fast-preset message each generator workload sends (synthetic
#: is parameterised, so its size comes from the drawn kwargs instead)
_FAST_MAX_MSG_BYTES = {"reduce": 256, "lu": 2 * 1024, "cg": 16 * 1024}


def _pairs(items) -> tuple:
    return tuple((int(r), float(t)) for r, t in items)


def _grays(items) -> tuple:
    return tuple((int(r), float(t), str(k), float(d), float(f),
                  tuple(int(x) for x in targets), float(delay), bool(drop))
                 for r, t, k, d, f, targets, delay, drop in items)


def _partitions(items) -> tuple:
    return tuple((float(start), float(end), tuple(int(r) for r in side_a),
                  tuple(int(r) for r in side_b))
                 for start, end, side_a, side_b in items)


def _kwargs(items) -> tuple:
    # sorted so equal scenarios hash equal; the JSON form is a dict
    pairs = items.items() if isinstance(items, dict) else items
    return tuple(sorted(tuple(kv) for kv in pairs))


def _normalised(norm, **meta):
    """A tuple field normalised by ``norm`` on every construction."""
    return field(default=(), metadata={"norm": norm, **meta})


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class Scenario:
    """One reproducible point of the protocol state space.

    Tuple fields are normalised on construction by their ``norm``
    metadata, so a scenario built from JSON, by the generator or by the
    shrinker compares and hashes by value; JSON scalars are coerced to
    their declared type on load.
    """

    name: str
    workload: str
    nprocs: int
    seed: int
    comm_mode: str = "nonblocking"
    checkpoint_interval: float = 0.005
    eager_threshold_bytes: int = 8192
    #: ``(rank, at_time)`` pairs, in schedule order
    faults: tuple = _normalised(_pairs)
    #: gray (non-fail-stop) faults as normalised tuples
    #: ``(rank, at_time, kind, duration, factor, targets, delay, drop)``
    #: — see :class:`~repro.faults.injector.GrayFaultSpec`
    grays: tuple = _normalised(_grays)
    #: arm the accrual failure detector on the faulted legs (the gray
    #: band always sets this; kill-only scenarios may too, exercising
    #: condemnation-initiated restart instead of scheduled incarnation)
    detect: bool = False
    #: membership churn as ``(rank, at_time)`` pairs: a join whose rank
    #: has no earlier event is a deferred start; one after a leave is a
    #: rejoin
    joins: tuple = _normalised(_pairs)
    leaves: tuple = _normalised(_pairs)
    #: ``(name, value)`` kernel-parameter overrides
    workload_kwargs: tuple = _normalised(_kwargs, json=dict)
    preset: str = "fast"
    #: how the fault schedule was generated (documentation only)
    fault_kind: str = "none"
    #: per-frame network impairment probabilities (nonzero values imply
    #: the reliable transport under every protocol run)
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    corrupt_prob: float = 0.0
    #: partition windows as ``(start, end, side_a, side_b)`` tuples with
    #: rank tuples for the sides
    partitions: tuple = _normalised(_partitions)
    #: how the impairment profile was generated (documentation only)
    net_kind: str = "clean"
    #: run the protocol legs with the compressed piggyback wire formats
    #: (``SimulationConfig.compress_piggybacks``); the ground truth is
    #: unaffected, so any decode bug shows up as a differential finding
    compress: bool = False
    #: stable-storage impairment knobs for the protocol legs (the
    #: ground truth keeps a perfect device, like the network knobs)
    ckpt_write_fail_prob: float = 0.0
    ckpt_torn_prob: float = 0.0
    ckpt_corrupt_prob: float = 0.0
    ckpt_stall_prob: float = 0.0
    #: checkpoint generations retained per rank (fallback depth)
    ckpt_history: int = 2
    #: how the storage profile was generated (documentation only)
    storage_kind: str = "clean"

    def __post_init__(self) -> None:
        for name, norm, _ in _TUPLE_FIELDS:
            object.__setattr__(self, name, norm(getattr(self, name)))

    # ------------------------------------------------------------------
    def gray_specs(self) -> tuple[GrayFaultSpec, ...]:
        """The gray schedule as injector-ready :class:`GrayFaultSpec`\\ s."""
        return tuple(
            GrayFaultSpec(rank=r, at_time=t, kind=k, duration=d, factor=f,
                          targets=targets, delay=delay, drop=drop)
            for r, t, k, d, f, targets, delay, drop in self.grays)

    def event_specs(self) -> tuple[EventSpec, ...]:
        """Crashes plus gray faults plus membership churn, injector-ready."""
        return (tuple(FaultSpec(rank=r, at_time=t) for r, t in self.faults)
                + self.gray_specs()
                + tuple(JoinSpec(rank=r, at_time=t) for r, t in self.joins)
                + tuple(LeaveSpec(rank=r, at_time=t) for r, t in self.leaves))

    def joined_at(self, rank: int, t: float) -> bool:
        """Whether ``rank`` is a joined member at instant ``t`` under the
        membership schedule (the injector's inference: a rank whose
        earliest membership event is a join starts deferred).  A kill
        coinciding exactly with a membership event is treated as absent —
        the runtime ordering at a shared instant is unspecified."""
        moves = sorted(
            [(at, "join") for r, at in self.joins if r == rank]
            + [(at, "leave") for r, at in self.leaves if r == rank])
        if not moves:
            return True
        joined = moves[0][1] != "join"
        for at, kind in moves:
            if at >= t:
                return joined and at != t
            joined = kind == "join"
        return joined

    def with_(self, **changes: Any) -> "Scenario":
        """Functional update (shrinker convenience)."""
        return type(self)(**{**vars(self), **changes})

    @property
    def impaired(self) -> bool:
        """Whether any network impairment is active in this scenario."""
        return bool(self.drop_prob or self.dup_prob or self.corrupt_prob
                    or self.partitions)

    def network_config(self) -> NetworkConfig:
        """The scenario's impairment profile as a :class:`NetworkConfig`."""
        return NetworkConfig(
            drop_prob=self.drop_prob,
            dup_prob=self.dup_prob,
            corrupt_prob=self.corrupt_prob,
            partitions=tuple(
                PartitionWindow(start=start, end=end, side_a=side_a,
                                side_b=side_b)
                for start, end, side_a, side_b in self.partitions),
        )

    @property
    def storage_impaired(self) -> bool:
        """Whether the checkpoint device misbehaves in this scenario."""
        return bool(self.ckpt_write_fail_prob or self.ckpt_torn_prob
                    or self.ckpt_corrupt_prob or self.ckpt_stall_prob)

    def storage_config(self) -> StorageConfig:
        """The scenario's storage profile as a :class:`StorageConfig`."""
        return StorageConfig(
            write_fail_prob=self.ckpt_write_fail_prob,
            torn_write_prob=self.ckpt_torn_prob,
            latent_corrupt_prob=self.ckpt_corrupt_prob,
            stall_prob=self.ckpt_stall_prob,
        )

    def horizon_kwarg(self) -> tuple[str, int] | None:
        """The ``(name, value)`` kernel parameter bounding this run."""
        name = LENGTH_KWARG.get(self.workload)
        if name is None:
            return None
        for key, value in self.workload_kwargs:
            if key == name:
                return (name, int(value))
        return None

    def validate(self) -> str | None:
        """``None`` if the scenario can be materialised, else the reason.

        The configuration, the workload and the event schedule go
        through the same checks a run applies (the schedule through the
        injector's :func:`~repro.faults.injector.check_schedule`).  Used
        by the shrinker to discard structurally invalid candidates (a
        crash from an invalid *configuration* is not a protocol bug).
        """
        try:
            config = SimulationConfig(
                nprocs=self.nprocs,
                protocol="none",
                comm_mode=self.comm_mode,
                checkpoint_interval=self.checkpoint_interval,
                eager_threshold_bytes=self.eager_threshold_bytes,
                seed=self.seed,
                network=self.network_config(),
                transport=TransportConfig(enabled=self.impaired),
                ckpt_history=self.ckpt_history,
                storage=self.storage_config(),
            )
            factory = workload_factory(self.workload, scale=self.preset,
                                       **dict(self.workload_kwargs))
            factory(0, self.nprocs, None)
            check_schedule(self.event_specs(), config)
        except (ValueError, TypeError) as exc:
            return str(exc)
        for _, _, side_a, side_b in self.partitions:
            for rank in (*side_a, *side_b):
                # <= nprocs: the TEL logger service rank may partition too
                if not 0 <= rank <= self.nprocs:
                    return (f"partition rank {rank} out of range for "
                            f"nprocs={self.nprocs}")
        return None

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Plain-JSON form (corpus entry payload)."""
        data = dict(vars(self))
        for name, _, encode in _TUPLE_FIELDS:
            data[name] = encode(data[name])
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        """Inverse of :meth:`to_json_dict`; a missing key takes the
        field default, so entries written before a field existed load."""
        return cls(**{name: decode(data[name])
                      for name, decode in _DECODERS.items() if name in data})

    def describe(self) -> str:
        """One-line human summary for fuzz logs."""
        kwargs = ", ".join(f"{k}={v}" for k, v in self.workload_kwargs)
        faults = "; ".join(f"rank {r}@{t:g}s" for r, t in self.faults) or "none"
        return (f"{self.name}: {self.workload}({kwargs}) nprocs={self.nprocs} "
                f"{self.comm_mode} ckpt={self.checkpoint_interval:g}s "
                f"eager={self.eager_threshold_bytes} seed={self.seed} "
                f"faults[{self.fault_kind}]={faults}"
                + "".join(band.describe(self) for band in BANDS
                          if band.describe))


#: name, normaliser and JSON encoder of each tuple field
_TUPLE_FIELDS = tuple(
    (f.name, f.metadata["norm"], f.metadata.get("json", _plain))
    for f in fields(Scenario) if "norm" in f.metadata)
_SCALARS = {"str": str, "int": int, "float": float, "bool": bool}
#: field name -> JSON decoder: its normaliser, or its declared scalar type
_DECODERS = {f.name: f.metadata.get("norm") or _SCALARS[f.type]
             for f in fields(Scenario)}


# ----------------------------------------------------------------------
# Seeded generation
# ----------------------------------------------------------------------

def _weighted(rng: random.Random, table) -> str:
    return rng.choices([k for k, _ in table], weights=[w for _, w in table])[0]


def _fault_times_nasty(rng: random.Random, checkpoint_interval: float) -> list[float]:
    """Times inside the historically fragile windows."""
    windows = [
        0.0,                                        # first event of the run
        checkpoint_interval + rng.choice((1e-5, 3e-4, 9e-4)),  # mid-ckpt write
        2 * checkpoint_interval - 1e-5,             # just before the next one
        rng.uniform(1e-4, 8e-4),                    # early, before warm-up
    ]
    return [rng.choice(windows) for _ in range(rng.randint(1, 2))]


def _stagger(rng: random.Random, nprocs: int) -> tuple:
    """Default staggered victims: 2–3 kills, sometimes one rank twice."""
    gap = rng.uniform(5e-4, 3e-3)
    victims = [rng.randrange(nprocs) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.3:  # recovery-of-a-recovery: hit a rank twice
        victims[-1] = victims[0]
    return gap, victims


def generate_scenario(seed: int, fault_bias: str | None = None,
                      net_bias: str | None = None,
                      compress: bool = False,
                      storage_bias: str | None = None) -> Scenario:
    """Deterministically map ``seed`` to a random scenario.

    Each argument picks at most one adversary band of
    :data:`repro.fuzz.bands.BANDS` (``None``, ``"none"`` and ``"clean"``
    pick none): ``fault_bias`` one of ``"overlap"``, ``"churn"``,
    ``"gray"``; ``net_bias="lossy"``; ``storage_bias="hostile"``;
    ``compress=True``.  A picked band may reshape the fault-kind table,
    the ``nprocs`` floor and the staggered victims, then adds its own
    draws — all on one RNG, in the bands' declaration order.

    Every picked band except ``compress`` is part of the RNG salt and
    of the scenario name, so ``(seed, fault_bias, net_bias,
    storage_bias)`` tuples are reproducible and no two bands ever
    retread each other's scenarios.  ``compress`` is deliberately *not*
    salted: a compressed band walks scenarios identical to its
    uncompressed counterpart, so any finding unique to it indicts the
    wire encoding, not a different scenario draw.
    """
    picked = pick_bands(fault_bias=fault_bias, net_bias=net_bias,
                        storage_bias=storage_bias, compress=compress)
    salt = ":".join(["repro.fuzz", *(b.salt for b in picked if b.salt),
                     str(seed)])
    rng = random.Random(salt)

    workload = _weighted(rng, WORKLOAD_WEIGHTS)
    nprocs = rng.randint(max((b.min_procs for b in picked), default=2), 8)
    kwargs: dict[str, Any] = {}
    if workload == "synthetic":
        kwargs["rounds"] = rng.randint(4, 8)
        kwargs["any_source"] = rng.random() < 0.5
        kwargs["fanout"] = 2 if rng.random() < 0.25 else 1
        kwargs["msg_bytes"] = rng.choice((256, 2048, 16384))
    elif workload == "reduce":
        kwargs["iterations"] = rng.randint(4, 8)
    elif workload == "lu":
        kwargs["iterations"] = rng.randint(4, 7)
    elif workload == "cg":
        kwargs["iterations"] = rng.randint(4, 6)

    comm_mode = "blocking" if rng.random() < 0.3 else "nonblocking"
    checkpoint_interval = rng.choice((0.001, 0.002, 0.005, 0.01, 0.02, 1.0))
    eager = rng.choice((512, 8192, 1 << 20))
    if comm_mode == "blocking":
        # every generator workload does send-before-receive exchanges
        # somewhere; over rendezvous that ordering deadlocks even
        # without fault tolerance (as it would on real MPI), so in
        # blocking mode keep messages below the eager threshold
        largest = kwargs.get("msg_bytes", _FAST_MAX_MSG_BYTES.get(workload, 0))
        eager = max(eager, largest + 1)
    sim_seed = rng.randrange(1 << 20)

    weights = next((b.kinds for b in picked if b.kinds), FAULT_KIND_WEIGHTS)
    kind = rng.choices(FAULT_KINDS, weights=weights)[0]
    faults: list[tuple[int, float]] = []
    if kind == "single":
        faults = [(rng.randrange(nprocs), rng.uniform(1e-4, 8e-3))]
    elif kind == "staggered":
        start = rng.uniform(1e-4, 4e-3)
        stagger = next((b.staggered for b in picked if b.staggered), _stagger)
        gap, victims = stagger(rng, nprocs)
        faults = [(v, start + i * gap) for i, v in enumerate(victims)]
    elif kind == "simultaneous":
        at = rng.uniform(1e-4, 6e-3)
        count = rng.randint(2, min(3, nprocs))
        victims = rng.sample(range(nprocs), count)
        faults = [(v, at) for v in victims]
    elif kind == "nasty":
        faults = [(rng.randrange(nprocs), t)
                  for t in _fault_times_nasty(rng, checkpoint_interval)]

    scenario = Scenario(
        name=f"seed-{seed:06d}" + "".join(f"-{b.salt or b.name}"
                                          for b in picked),
        workload=workload,
        nprocs=nprocs,
        seed=sim_seed,
        comm_mode=comm_mode,
        checkpoint_interval=checkpoint_interval,
        eager_threshold_bytes=eager,
        # the injector rejects exact (rank, at_time) duplicates; the nasty
        # kind's window sampling can collide, so dedupe preserving order
        faults=tuple(dict.fromkeys(faults)),
        workload_kwargs=kwargs,
        fault_kind=kind,
    )
    for band in BANDS:
        if band in picked and band.draw:
            scenario = band.draw(rng, scenario)
    return scenario
