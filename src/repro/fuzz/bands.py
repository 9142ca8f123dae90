"""The fuzzer's adversaries, each declared once.

A :class:`Band` is one adversary the differential fuzzer can turn on:
overlapping recoveries, membership churn, a lossy wire, a hostile
checkpoint device, gray failures under an armed detector, compressed
piggybacks.  Its record is everything the fuzzer knows about it — the
CLI flag that picks it, its RNG salt, the
:class:`~repro.fuzz.scenario.Scenario` fields it owns, how it reshapes
and extends the seeded draw, which run legs it arms and how, what it
does to its fields when the shrinker drops ranks, its shrink pass, its
terms of the shrink size measure and its fragment of the one-line
description.

:func:`~repro.fuzz.scenario.generate_scenario`, the run-request builder,
the shrinker, the campaign and the CLI read :data:`BANDS` instead of
naming band fields.  Adding a band is one declaration here plus its
fields on :class:`~repro.fuzz.scenario.Scenario`.

The draws of every picked band run in declaration order on the one
``random.Random`` the scenario's salt seeds, which is what keeps every
``(seed, bias)`` scenario reproducible: reordering :data:`BANDS`, or
giving a band its own generator, re-deals every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterator

from repro.faults.detector import DetectorConfig
from repro.faults.injector import GRAY_FAULT_KINDS
from repro.simnet.transport import TransportConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.fuzz.scenario import Scenario

#: each band flag and the value that leaves its bands off; a flag whose
#: off value is ``False`` is a switch with exactly one band
FLAGS = {"--fault-bias": "none", "--net-bias": "clean",
         "--storage-bias": "clean", "--compress": False}

#: per-frame impairment probabilities the lossy band draws from (at
#: least one of drop/dup/corrupt always lands nonzero)
LOSSY_PROBS = (0.0, 0.005, 0.01, 0.03, 0.05)

#: per-attempt write-failure probabilities (visible failures: retried
#: with backoff, then the checkpoint is skipped) — the band's workhorse
STORAGE_FAIL_PROBS = (0.0, 0.02, 0.05, 0.12)

#: torn-write / latent-corruption probabilities, kept low: damage is
#: detected only at recovery read time, and damaging *every* retained
#: generation is genuine state loss (a diagnosed StorageLossError), not
#: a protocol bug for the band to find
STORAGE_DAMAGE_PROBS = (0.0, 0.004, 0.01)

#: device-stall probabilities (stalls stretch the write, nothing else)
STORAGE_STALL_PROBS = (0.0, 0.05, 0.15)

#: gray-fault weights over ``GRAY_FAULT_KINDS`` (freeze, stutter, slow,
#: mute): mute is the nastiest — the rank looks alive to itself while
#: peers hear silence
GRAY_KIND_WEIGHTS = (0.35, 0.20, 0.20, 0.25)

_NET_KNOBS = ("partitions", "drop_prob", "dup_prob", "corrupt_prob")
_STORAGE_KNOBS = ("ckpt_write_fail_prob", "ckpt_torn_prob",
                  "ckpt_corrupt_prob", "ckpt_stall_prob")


@dataclass(frozen=True, eq=False)
class Band:
    """One adversary: how it is picked, drawn, run, shrunk and described."""

    name: str
    #: the CLI flag that picks it (a choice flag takes ``name`` as its
    #: value; a switch, see :data:`FLAGS`, is simply set)
    flag: str
    #: RNG salt and scenario-name tag; ``None`` retreads the scenarios
    #: of the bands picked beside it (the name still gains ``-name``)
    salt: str | None
    #: the :class:`Scenario` fields only this band sets
    fields: tuple = ()
    #: what the band does, for the CLI help
    help: str = ""
    #: fault-kind weights over ``FAULT_KINDS`` (none, single, staggered,
    #: simultaneous, nasty) replacing the default ones; the first picked
    #: band in flag order that has them wins
    kinds: tuple | None = None
    #: the smallest ``nprocs`` it may draw
    min_procs: int = 2
    #: ``(rng, nprocs) -> (gap, victims)`` for staggered kills
    staggered: Callable | None = None
    #: ``(rng, scenario) -> scenario``: its own draws
    draw: Callable | None = None
    #: the legs it arms: ``"protocol"`` (all but the ground truth, which
    #: stays pristine so a leak is a differential finding) or ``"faulted"``
    legs: str = "protocol"
    #: ``scenario -> ((SimulationConfig field, value), ...)`` on its legs
    overrides: Callable | None = None
    #: ``candidate -> {field: value}`` once fewer-procs cut ``nprocs``
    narrow: Callable | None = None
    #: ``(pass name, scenario -> candidates)``: its shrink pass
    shrink: tuple | None = None
    #: ``scenario -> tuple``: its terms of the shrink size measure
    size: Callable | None = None
    #: ``scenario -> str``: its fragment of ``Scenario.describe()``
    describe: Callable | None = None


def flag_param(flag: str) -> str:
    """The keyword a flag's value travels under (``--net-bias`` → ``net_bias``)."""
    return flag[2:].replace("-", "_")


def flag_choices(flag: str) -> tuple:
    """The values ``flag`` accepts: off, then its bands in declaration order."""
    return (FLAGS[flag], *(b.name for b in BANDS if b.flag == flag))


def pick_bands(**values) -> tuple[Band, ...]:
    """The bands the flag values turn on, in flag order.

    Keywords are :func:`flag_param` names; ``None`` or a flag's off
    value leaves it off, and a switch is on when true.
    """
    picked = []
    for flag, off in FLAGS.items():
        value = values.get(flag_param(flag))
        if value in (None, off):
            continue
        if value is True:  # a switch's one band is named after it
            value = flag[2:]
        match = [b for b in BANDS if b.flag == flag and b.name == value]
        if not match:
            raise ValueError(f"unknown {flag_param(flag)} {value!r}; "
                             f"expected one of {flag_choices(flag)}")
        picked.append(match[0])
    return tuple(picked)


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------

def _stagger_overlap(rng, nprocs: int) -> tuple:
    # gaps straddling the injector's DETECTION_DELAY + RESTART_DELAY
    # (2 ms): the next victim dies while the previous incarnation is
    # reading its checkpoint or rolling forward — the deadlock's regime;
    # victims always distinct
    gap = rng.uniform(2e-4, 2.5e-3)
    return gap, rng.sample(range(nprocs), min(rng.randint(2, 3), nprocs))


def _stagger_gray(rng, nprocs: int) -> tuple:
    # armed-detector runs restart the dead only when a live peer condemns
    # them: victims distinct and capped at nprocs-1 so an observer
    # survives every instant
    gap = rng.uniform(5e-4, 3e-3)
    return gap, rng.sample(range(nprocs), min(2, nprocs - 1))


def _draw_churn(rng, s: Scenario) -> Scenario:
    # 1–2 churned ranks, never the whole cluster: a rank either starts
    # deferred (first join mid-run), cycles out and back in, or both.
    # Times are strictly increasing per rank by construction, and every
    # leave gets a later rejoin — a permanent departure starves peers
    # waiting on the leaver, a workload deadlock rather than a finding
    joins, leaves = [], []
    count = rng.randint(1, max(1, min(2, s.nprocs - 1)))
    for rank in rng.sample(range(s.nprocs), count):
        style = rng.choice(("defer", "cycle", "defer+cycle"))
        t = 0.0
        if "defer" in style:
            t = rng.uniform(2e-4, 5e-3)
            joins.append((rank, t))
        if "cycle" in style:
            depart = t + rng.uniform(8e-4, 4e-3)
            rejoin = depart + rng.uniform(1e-3, 5e-3)
            leaves.append((rank, depart))
            joins.append((rank, rejoin))
    return s.with_(joins=joins, leaves=leaves)


def _draw_lossy(rng, s: Scenario) -> Scenario:
    # ~30% of scenarios also get one partition window short enough that
    # retransmission (capped backoff, 12 attempts ≈ 0.4 s) rides it out
    probs = {"drop_prob": rng.choice(LOSSY_PROBS),
             "dup_prob": rng.choice(LOSSY_PROBS),
             "corrupt_prob": rng.choice(LOSSY_PROBS)}
    if not any(probs.values()):
        probs[rng.choice(tuple(probs))] = rng.choice(LOSSY_PROBS[1:])
    if rng.random() < 0.3 and s.nprocs >= 2:
        ranks = list(range(s.nprocs))
        rng.shuffle(ranks)
        cut = rng.randint(1, s.nprocs - 1)
        start = rng.uniform(5e-4, 6e-3)
        duration = rng.uniform(2e-3, 1.2e-2)
        return s.with_(**probs, net_kind="lossy+partition", partitions=(
            (start, start + duration, sorted(ranks[:cut]), sorted(ranks[cut:])),))
    return s.with_(**probs, net_kind="lossy")


def _draw_hostile(rng, s: Scenario) -> Scenario:
    # the write-failure probability always lands nonzero: visible failures
    # exercise retry/skip every run, while torn/latent damage only matters
    # once a recovery reads the chain back
    storage = {"ckpt_write_fail_prob": rng.choice(STORAGE_FAIL_PROBS),
               "ckpt_torn_prob": rng.choice(STORAGE_DAMAGE_PROBS),
               "ckpt_corrupt_prob": rng.choice(STORAGE_DAMAGE_PROBS),
               "ckpt_stall_prob": rng.choice(STORAGE_STALL_PROBS)}
    if not any(storage.values()):
        storage["ckpt_write_fail_prob"] = rng.choice(STORAGE_FAIL_PROBS[1:])
    history = rng.choice((2, 3))
    # a hostile device only matters if checkpoints get written: redraw
    # the interval from the short end of the table
    interval = rng.choice((0.001, 0.002, 0.005))
    return s.with_(**storage, ckpt_history=history, storage_kind="hostile",
                   checkpoint_interval=interval)


def _draw_gray(rng, s: Scenario) -> Scenario:
    grays = []
    taken = set(s.faults)
    for _ in range(rng.randint(1, 2)):
        rank = rng.randrange(s.nprocs)
        at = rng.uniform(2e-4, 8e-3)
        if (rank, at) in taken:  # vanishingly unlikely, but the
            continue             # injector would reject the conflict
        taken.add((rank, at))
        kind = rng.choices(GRAY_FAULT_KINDS, weights=GRAY_KIND_WEIGHTS)[0]
        # mix durations below and above the condemnation silence (~1.1 ms
        # at the defaults): short windows must thaw back with no
        # recovery, long ones must be fenced and restarted
        if rng.random() < 0.45:
            duration = rng.uniform(2e-4, 9e-4)
        else:
            duration = rng.uniform(1.5e-3, 6e-3)
        factor = rng.choice((2.0, 4.0, 8.0)) if kind == "slow" else 4.0
        delay = rng.choice((1e-3, 2e-3, 4e-3)) if kind == "mute" else 2e-3
        # dropping muted frames loses them for good unless the reliable
        # transport retransmits — only an impaired scenario runs it
        drop = kind == "mute" and s.impaired and rng.random() < 0.5
        grays.append((rank, at, kind, duration, factor, (), delay, drop))
    return s.with_(grays=grays, detect=True)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _calmer_gray(s: Scenario) -> Iterator[Scenario]:
    """Strip gray faults before anything else: a finding that survives
    with no freeze/stutter/slow/mute window indicts the protocols (or
    the armed detector itself), not the gray machinery.  Once the grays
    are gone, try disarming the detector too."""
    if s.grays:
        n = len(s.grays)
        yield s.with_(grays=())
        if n > 1:
            yield s.with_(grays=s.grays[: n // 2])
            yield s.with_(grays=s.grays[n // 2:])
            for i in range(n):
                yield s.with_(grays=s.grays[:i] + s.grays[i + 1:])
        if any(g[7] for g in s.grays):
            yield s.with_(grays=tuple(g[:7] + (False,) for g in s.grays))
    elif s.detect:
        yield s.with_(detect=False)


def _narrow_grays(c: Scenario) -> dict:
    # gray ranks collapse the way faults do; a (rank, at) key colliding
    # with a fault or another gray drops the gray (the injector rejects
    # the conflict), and mute targets narrow to the surviving ranks
    seen = set(c.faults)
    grays = []
    for g in c.grays:
        key = (min(g[0], c.nprocs - 1), g[1])
        if key not in seen:
            seen.add(key)
            targets = tuple(t for t in g[5] if t < c.nprocs)
            grays.append(key + g[2:5] + (targets,) + g[6:])
    return {"grays": grays}


def _drop_churn(s: Scenario) -> Iterator[Scenario]:
    """Remove membership churn, always a whole rank's schedule (or a
    trailing leave+rejoin cycle) at a time so every candidate keeps the
    leave-pairs-with-rejoin shape — an unpaired leave starves the
    workload, which is a deadlock by construction, not the bug."""
    ranks = sorted({r for r, _ in (*s.joins, *s.leaves)})
    if len(ranks) > 1:
        yield s.with_(joins=(), leaves=())
    for rank in ranks:
        yield s.with_(joins=tuple(p for p in s.joins if p[0] != rank),
                      leaves=tuple(p for p in s.leaves if p[0] != rank))
        cycles = [p for p in s.leaves if p[0] == rank]
        if cycles:
            last = max(cycles, key=lambda p: p[1])
            yield s.with_(
                leaves=tuple(p for p in s.leaves if p != last),
                joins=tuple(p for p in s.joins
                            if not (p[0] == rank and p[1] > last[1])))


def _narrow_partitions(c: Scenario) -> dict:
    # each side keeps its surviving ranks; a window that loses a side
    # partitions nothing any more and goes
    windows = []
    for start, end, side_a, side_b in c.partitions:
        side_a = tuple(r for r in side_a if r < c.nprocs)
        side_b = tuple(r for r in side_b if r < c.nprocs)
        if side_a and side_b:
            windows.append((start, end, side_a, side_b))
    return {"partitions": windows}


def _calm(s: Scenario, knobs: tuple, **also) -> Iterator[Scenario]:
    """Reset every set knob at once (together with ``also``), then each
    set knob alone: a repro that survives on a calm substrate is a
    protocol bug, not a substrate interaction."""
    if not any(getattr(s, knob) for knob in knobs):
        return
    default = {f.name: f.default for f in fields(s)}
    yield s.with_(**{knob: default[knob] for knob in knobs}, **also)
    for knob in knobs:
        if getattr(s, knob):
            yield s.with_(**{knob: default[knob]})


def _calmer_network(s: Scenario) -> Iterator[Scenario]:
    # dropping muted frames needs the transport, which rides the
    # impairments — clear the drop flags alongside so the calm candidate
    # stays structurally valid
    return _calm(s, _NET_KNOBS,
                 grays=tuple(g[:7] + (False,) for g in s.grays))


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------

def _describe_churn(s: Scenario) -> str:
    moves = sorted([(t, r, "join") for r, t in s.joins]
                   + [(t, r, "leave") for r, t in s.leaves])
    if not moves:
        return ""
    return " churn=" + "; ".join(f"{kind} {r}@{t:g}s" for t, r, kind in moves)


def _describe_net(s: Scenario) -> str:
    if not s.impaired:
        return ""
    parts = f" parts={len(s.partitions)}" if s.partitions else ""
    return (f" net[{s.net_kind}]=drop {s.drop_prob:g}/dup {s.dup_prob:g}"
            f"/corrupt {s.corrupt_prob:g}{parts}")


def _describe_storage(s: Scenario) -> str:
    if not s.storage_impaired:
        return ""
    return (f" storage[{s.storage_kind}]=fail {s.ckpt_write_fail_prob:g}"
            f"/torn {s.ckpt_torn_prob:g}/rot {s.ckpt_corrupt_prob:g}"
            f"/stall {s.ckpt_stall_prob:g} hist={s.ckpt_history}")


def _describe_gray(s: Scenario) -> str:
    grays = "; ".join(f"{k} {r}@{t:g}s for {d:g}s" + (" drop" if drop else "")
                      for r, t, k, d, _, _, _, drop in s.grays)
    return (f" gray={grays}" if grays else "") + (" detector" if s.detect else "")


# ----------------------------------------------------------------------
# The bands, in draw order
# ----------------------------------------------------------------------

OVERLAP = Band(
    "overlap", "--fault-bias", "overlap",
    help="concentrates on closely-staggered multi-victim kills that force "
    "overlapping recoveries",
    kinds=(0.0, 0.10, 0.45, 0.35, 0.10), staggered=_stagger_overlap)

CHURN = Band(
    "churn", "--fault-bias", "churn", ("joins", "leaves"),
    help="adds membership churn: deferred starts and leave-then-rejoin "
    "cycles, free to overlap crashes",
    # keep the pressure on join/leave, not on mass failure
    kinds=(0.40, 0.40, 0.20, 0.0, 0.0), draw=_draw_churn,
    shrink=("drop-churn", _drop_churn),
    # collapsing churned ranks the way faults collapse could alias two
    # membership programs onto one rank: drop a cut rank's wholesale
    narrow=lambda c: {"joins": [p for p in c.joins if p[0] < c.nprocs],
                      "leaves": [p for p in c.leaves if p[0] < c.nprocs]},
    size=lambda s: (len(s.joins) + len(s.leaves),),
    describe=_describe_churn)

LOSSY = Band(
    "lossy", "--net-bias", "net-lossy",
    ("drop_prob", "dup_prob", "corrupt_prob", "partitions", "net_kind"),
    help="runs every scenario over an impaired wire (per-frame drop, dup "
    "and corruption, occasional partition windows) with the reliable "
    "transport under the protocol legs",
    draw=_draw_lossy,
    overrides=lambda s: () if not s.impaired else (
        ("network", s.network_config()),
        ("transport", TransportConfig(enabled=True))),
    narrow=_narrow_partitions, shrink=("calmer-network", _calmer_network),
    size=lambda s: (len(s.partitions),
                    s.drop_prob + s.dup_prob + s.corrupt_prob),
    describe=_describe_net)

HOSTILE = Band(
    "hostile", "--storage-bias", "storage-hostile",
    ("ckpt_write_fail_prob", "ckpt_torn_prob", "ckpt_corrupt_prob",
     "ckpt_stall_prob", "ckpt_history", "storage_kind"),
    help="points the protocol legs at a faulty checkpoint device (write "
    "failures, torn writes, latent corruption, stalls) with short "
    "checkpoint intervals",
    # recoveries are what read storage back: faultless scenarios are rare
    kinds=(0.10, 0.45, 0.25, 0.10, 0.10), draw=_draw_hostile,
    overrides=lambda s: () if not s.storage_impaired else (
        ("storage", s.storage_config()), ("ckpt_history", s.ckpt_history)),
    shrink=("calmer-storage", lambda s: _calm(s, _STORAGE_KNOBS)),
    size=lambda s: (s.ckpt_write_fail_prob + s.ckpt_torn_prob
                    + s.ckpt_corrupt_prob + s.ckpt_stall_prob,),
    describe=_describe_storage)

GRAY = Band(
    "gray", "--fault-bias", "gray", ("grays", "detect"),
    help="arms the accrual failure detector and injects non-fail-stop "
    "faults (freeze/stutter/slow/mute)",
    # mass kills dropped and nprocs >= 3: condemnation-initiated recovery
    # needs a live observer, and a fenced zombie two live witnesses
    kinds=(0.55, 0.30, 0.15, 0.0, 0.0), min_procs=3,
    staggered=_stagger_gray, draw=_draw_gray, legs="faulted",
    overrides=lambda s: () if not s.detect else (
        ("detector", DetectorConfig(enabled=True)),),
    narrow=_narrow_grays, shrink=("calmer-gray", _calmer_gray),
    # dropping a gray's drop flag alone is progress too — it unties the
    # repro from the transport
    size=lambda s: (len(s.grays) + int(s.detect),
                    sum(g[7] for g in s.grays)),
    describe=_describe_gray)

COMPRESS = Band(
    "compress", "--compress", None, ("compress",),
    help="runs the protocol legs with the compressed piggyback wire "
    "formats; scenarios are identical to the uncompressed band's, so "
    "findings unique to it indict the wire encoding",
    draw=lambda rng, s: s.with_(compress=True),
    overrides=lambda s: (("compress_piggybacks", True),) if s.compress else (),
    describe=lambda s: " compressed-pb" if s.compress else "")

#: every band, in the order their draws run
BANDS = (OVERLAP, CHURN, LOSSY, HOSTILE, GRAY, COMPRESS)
