"""Greedy scenario shrinking.

Given a failing scenario and a predicate that re-checks it, produce the
smallest scenario that still exhibits (one of) the original failure
kinds.  The passes move strictly toward "smaller" — fewer faults, fewer
processes, a simpler workload, a shorter horizon, coarser checkpoints,
plainer communication — so the loop terminates: each accepted candidate
strictly decreases a well-founded size measure, and each pass tries a
bounded candidate list.

The predicate is expected to be ``lambda s: signature(run(s)) &
original_signature`` — shrinking preserves the *failure kind per
protocol*, not the exact violation text, which is what makes a shrunk
repro a faithful regression test rather than a coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.fuzz.bands import BANDS, CHURN, GRAY, HOSTILE, LOSSY
from repro.fuzz.scenario import LENGTH_KWARG, Scenario

#: workloads ordered simplest-first; the shrinker tries to walk left
_SIMPLICITY_ORDER = ("synthetic", "reduce", "cg", "lu", "mg", "is", "bt", "sp")


def _workload_rank(workload: str) -> int:
    try:
        return _SIMPLICITY_ORDER.index(workload)
    except ValueError:
        return len(_SIMPLICITY_ORDER)


def scenario_size(scenario: Scenario) -> tuple:
    """A well-founded size measure; shrinking only ever decreases it."""
    horizon = scenario.horizon_kwarg()
    return (
        len(scenario.faults),
        # gray faults and the armed detector shrink away before anything
        # else (the calmer-gray pass)
        *GRAY.size(scenario),
        *CHURN.size(scenario),
        scenario.nprocs,
        _workload_rank(scenario.workload),
        horizon[1] if horizon else 0,
        0 if scenario.comm_mode == "nonblocking" else 1,
        0 if scenario.eager_threshold_bytes == 8192 else 1,
        # a calmer network = fewer interleavings to reason about
        *LOSSY.size(scenario),
        # a calmer checkpoint device = fewer storage timelines
        *HOSTILE.size(scenario),
        # fewer checkpoints = simpler trace
        -scenario.checkpoint_interval,
    )


@dataclass
class ShrinkResult:
    """The outcome of one shrinking session."""

    scenario: Scenario
    original: Scenario
    attempts: int = 0
    accepted: int = 0
    #: pass names that contributed at least one accepted step
    passes_used: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Candidate passes (each yields candidates strictly smaller than input)
# ----------------------------------------------------------------------

def _drop_faults(s: Scenario) -> Iterator[Scenario]:
    n = len(s.faults)
    if n > 1:
        # halves first (log-time progress), then single removals
        yield s.with_(faults=s.faults[: n // 2])
        yield s.with_(faults=s.faults[n // 2:])
        for i in range(n):
            yield s.with_(faults=s.faults[:i] + s.faults[i + 1:])


def _fewer_procs(s: Scenario) -> Iterator[Scenario]:
    """Smaller clusters: fault ranks clamp into range, and each band
    narrows its own fields to the surviving ranks."""
    for nprocs in range(2, s.nprocs):
        candidate = s.with_(nprocs=nprocs, faults=tuple(dict.fromkeys(
            (min(rank, nprocs - 1), at) for rank, at in s.faults)))
        changes = {}
        for band in BANDS:
            if band.narrow:
                changes.update(band.narrow(candidate))
        yield candidate.with_(**changes)


def _simpler_workload(s: Scenario) -> Iterator[Scenario]:
    rank = _workload_rank(s.workload)
    horizon = s.horizon_kwarg()
    length = horizon[1] if horizon else 4
    for simpler in _SIMPLICITY_ORDER[:rank]:
        kwargs = {LENGTH_KWARG[simpler]: min(length, 6)}
        if simpler == "synthetic":
            # keep the wildcard dimension: try both receive disciplines
            for any_source in (False, True):
                yield s.with_(workload=simpler,
                              workload_kwargs=tuple(sorted(
                                  {**kwargs, "any_source": any_source}.items())))
            continue
        yield s.with_(workload=simpler,
                      workload_kwargs=tuple(sorted(kwargs.items())))


def _shorter_horizon(s: Scenario) -> Iterator[Scenario]:
    horizon = s.horizon_kwarg()
    if horizon is None:
        return
    name, length = horizon
    for shorter in (length // 2, length - 1):
        if 2 <= shorter < length:
            kwargs = dict(s.workload_kwargs)
            kwargs[name] = shorter
            yield s.with_(workload_kwargs=tuple(sorted(kwargs.items())))


def _coarser_checkpoints(s: Scenario) -> Iterator[Scenario]:
    # 1.0 s is "effectively never" for fast-preset runs (they finish in
    # tens of simulated milliseconds); never coarsen beyond it
    for interval in (min(1.0, s.checkpoint_interval * 5), 1.0):
        if s.checkpoint_interval < interval <= 1.0:
            yield s.with_(checkpoint_interval=interval)


def _plainer_comm(s: Scenario) -> Iterator[Scenario]:
    if s.comm_mode != "nonblocking":
        yield s.with_(comm_mode="nonblocking")
    if s.eager_threshold_bytes != 8192:
        yield s.with_(eager_threshold_bytes=8192)


#: pass order: cheapest wins first (dropping faults and ranks shrinks the
#: scenario the most per evaluation)
_PASSES: tuple[tuple[str, Callable[[Scenario], Iterable[Scenario]]], ...] = (
    GRAY.shrink,
    ("drop-faults", _drop_faults),
    CHURN.shrink,
    ("fewer-procs", _fewer_procs),
    ("simpler-workload", _simpler_workload),
    ("shorter-horizon", _shorter_horizon),
    ("coarser-checkpoints", _coarser_checkpoints),
    ("plainer-comm", _plainer_comm),
    LOSSY.shrink,
    HOSTILE.shrink,
)


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    *,
    max_attempts: int = 150,
) -> ShrinkResult:
    """Greedily minimise ``scenario`` while ``still_fails`` holds.

    ``still_fails`` is only consulted for structurally valid candidates
    (see :meth:`Scenario.validate`); each call typically re-runs the
    differential matrix, so ``max_attempts`` bounds the total simulation
    budget of a shrinking session.
    """
    result = ShrinkResult(scenario=scenario, original=scenario)
    current = scenario
    progress = True
    while progress and result.attempts < max_attempts:
        progress = False
        for pass_name, generate in _PASSES:
            accepted_here = False
            for candidate in generate(current):
                if result.attempts >= max_attempts:
                    break
                if scenario_size(candidate) >= scenario_size(current):
                    continue
                if candidate.validate() is not None:
                    continue
                result.attempts += 1
                if still_fails(candidate):
                    current = candidate
                    result.accepted += 1
                    accepted_here = True
                    progress = True
                    break  # take the win; the outer loop revisits every pass
            if accepted_here and pass_name not in result.passes_used:
                result.passes_used.append(pass_name)
    result.scenario = current.with_(name=f"{scenario.name}-shrunk")
    return result
