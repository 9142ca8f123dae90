"""Differential execution of one scenario across every protocol.

The paper's central claim is behavioural equivalence: the lightweight
TDI protocol must deliver the same application results as the PWD-style
baselines while piggybacking only an n-entry vector, for *any*
interleaving of sends, wildcard receives, checkpoints and failures.
This module operationalises that claim as a diff:

* ``none`` (no fault tolerance, no faults) is the ground truth — the
  answer the application produces when nothing interferes;
* every registered protocol runs the scenario failure-free with
  recording on: answers **and** per-rank delivered-message multisets
  must match the ground truth exactly;
* every protocol additionally runs the fault schedule with the causal
  -consistency oracle armed: the answers must *still* match the
  failure-free ground truth (no orphans, no lost or duplicated
  messages), the oracle must stay silent, and the metrics must satisfy
  the protocol's own advertised bounds (a TDI piggyback never exceeds
  one identifier per process).

Every run is a :class:`~repro.harness.runner.RunRequest`, so a fuzz
batch fans out over the PR 2 process-pool executor and overlapping
(scenario, protocol) cells are served from the content-addressed result
cache — shrinking, which re-runs hundreds of near-identical scenarios,
hits the cache hard.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.harness.cache import ResultCache
from repro.harness.executor import run_batch
from repro.harness.runner import Cell, RunRequest, RunSummary
from repro.fuzz.bands import BANDS
from repro.fuzz.scenario import FUZZ_MAX_EVENTS, Scenario
from repro.verify.violations import parse_violation

#: protocols a scenario is checked under when the caller does not choose
DEFAULT_PROTOCOLS = ("tdi", "tag", "tel")

#: the no-fault-tolerance ground truth
GROUND_TRUTH = "none"


@dataclass(frozen=True)
class Finding:
    """One way one protocol deviated on one scenario."""

    protocol: str
    #: ``crash:<ExceptionType>``, ``oracle:<invariant>``,
    #: ``answer-mismatch``, ``delivery-mismatch`` or ``metrics:<what>``
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.protocol}] {self.kind}: {self.detail}"

    @classmethod
    def parse(cls, text: str) -> "Finding | None":
        """Parse the ``str(Finding)`` form back into a record.

        Corpus entries store their findings stringified; the replay
        test compares recorded against fresh signatures through this.
        ``kind`` itself may contain ``:`` (``crash:SimulationError``)
        but never ``": "`` — the detail separator is unambiguous.
        """
        match = re.match(r"^\[(?P<protocol>[^]]+)\] (?P<kind>\S+): "
                         r"(?P<detail>.*)$", text, re.DOTALL)
        if match is None:
            return None
        return cls(protocol=match["protocol"], kind=match["kind"],
                   detail=match["detail"])


@dataclass
class ScenarioVerdict:
    """Everything the differential pass concluded about one scenario."""

    scenario: Scenario
    findings: list[Finding] = field(default_factory=list)
    #: simulations executed (cache hits included)
    runs: int = 0
    #: set when the *ground truth* itself crashed: the scenario is not a
    #: valid program (e.g. an unsafe send ordering that deadlocks even
    #: without fault tolerance) and says nothing about the protocols
    invalid: str | None = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def signature(self) -> frozenset:
        """The ``(protocol, kind)`` pairs — what shrinking must preserve."""
        return frozenset((f.protocol, f.kind) for f in self.findings)


# ----------------------------------------------------------------------
# Request construction
# ----------------------------------------------------------------------

def _request(scenario: Scenario, protocol: str, *, faulted: bool,
             record: bool, verify: bool) -> RunRequest:
    overrides = [
        ("eager_threshold_bytes", scenario.eager_threshold_bytes),
        ("max_events", FUZZ_MAX_EVENTS),
    ]
    if record:
        overrides.append(("record", True))
    for band in BANDS:
        # a band arms either every protocol leg — the ground truth keeps
        # the pristine wire, device and encoding, so anything of it that
        # leaks into application-visible behaviour is a differential
        # finding instead of contaminating the reference — or only the
        # faulted legs (the armed detector)
        armed = faulted if band.legs == "faulted" else protocol != GROUND_TRUTH
        if armed and band.overrides:
            overrides.extend(band.overrides(scenario))
    return RunRequest(
        key=(scenario.name, protocol, "faulted" if faulted else "ff"),
        cell=Cell(scenario.workload, scenario.nprocs, protocol,
                  comm_mode=scenario.comm_mode),
        preset=scenario.preset,
        checkpoint_interval=scenario.checkpoint_interval,
        seed=scenario.seed,
        # membership churn rides the faulted legs only; the ground truth
        # and failure-free legs run the full fixed membership, so a join
        # or leave that perturbs application-visible behaviour diverges
        # from the reference instead of cancelling out
        faults=scenario.event_specs() if faulted else (),
        verify=verify,
        strict_verify=False,
        workload_kwargs=scenario.workload_kwargs,
        config_overrides=tuple(overrides),
    )


def scenario_requests(scenario: Scenario,
                      protocols: Iterable[str] = DEFAULT_PROTOCOLS,
                      ) -> list[RunRequest]:
    """The full run matrix for one scenario.

    One ground-truth run, one recorded failure-free run per protocol,
    and — when the scenario schedules faults, gray faults or membership
    churn — one verified faulted run per protocol.
    """
    requests = [
        _request(scenario, GROUND_TRUTH, faulted=False, record=True,
                 verify=False),
    ]
    for protocol in protocols:
        requests.append(_request(scenario, protocol, faulted=False,
                                 record=True, verify=True))
    if scenario.event_specs():
        for protocol in protocols:
            requests.append(_request(scenario, protocol, faulted=True,
                                     record=False, verify=True))
    return requests


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

def _crash_kind(error: str) -> str:
    return f"crash:{error.split(':', 1)[0]}"


def _oracle_kinds(summary: RunSummary) -> dict[str, str]:
    """Distinct ``invariant -> first detail`` among a run's violations."""
    kinds: dict[str, str] = {}
    for violation in summary.violations:
        text = str(violation)
        parsed = parse_violation(text)
        kinds.setdefault(parsed.invariant if parsed else "unknown", text)
    return kinds


def _diff_run(findings: list[Finding], protocol: str, phase: str,
              summary: RunSummary, truth: RunSummary | None,
              scenario: Scenario) -> None:
    if summary.error is not None:
        findings.append(Finding(protocol, _crash_kind(summary.error),
                                f"{phase} run crashed: {summary.error}"))
        return
    for invariant, detail in _oracle_kinds(summary).items():
        findings.append(Finding(protocol, f"oracle:{invariant}",
                                f"{phase} run: {detail}"))
    if truth is None or truth.error is not None:
        return
    if summary.results != truth.results:
        diverging = [r for r, (a, b) in
                     enumerate(zip(summary.results or [], truth.results or []))
                     if a != b]
        findings.append(Finding(
            protocol, "answer-mismatch",
            f"{phase} run disagrees with ground truth on rank(s) "
            f"{diverging}: {_preview(summary.results, diverging)} != "
            f"{_preview(truth.results, diverging)}"))
    if (summary.delivered is not None and truth.delivered is not None
            and summary.delivered != truth.delivered):
        diverging = [r for r, (a, b) in
                     enumerate(zip(summary.delivered, truth.delivered))
                     if a != b]
        findings.append(Finding(
            protocol, "delivery-mismatch",
            f"{phase} run delivered a different message multiset on "
            f"rank(s) {diverging}"))
    _check_metrics(findings, protocol, phase, summary, truth, scenario)


def _preview(results: list | None, ranks: list, limit: int = 160) -> str:
    if not results:
        return "<missing>"
    shown = {r: results[r] for r in ranks[:2] if r < len(results)}
    text = repr(shown)
    return text if len(text) <= limit else text[:limit] + "…"


def _check_metrics(findings: list[Finding], protocol: str, phase: str,
                   summary: RunSummary, truth: RunSummary,
                   scenario: Scenario) -> None:
    """Cheap metric invariants every healthy run satisfies."""
    stats = summary.stats
    for counter in ("app_sends", "piggyback_identifiers", "recovery_count",
                    "log_items_released"):
        try:
            value = stats.total(counter)
        except (KeyError, AttributeError):
            continue
        if value < 0:
            findings.append(Finding(protocol, f"metrics:negative-{counter}",
                                    f"{phase} run: {counter}={value}"))
    if protocol == "tdi":
        # the paper's Fig. 6 bound: an n-entry depend-interval vector
        # plus the send index, growing to 2n+1 only once a rollback
        # activates epoch tagging — still linear in system scale
        per_message = stats.piggyback_identifiers_per_message
        bound = (scenario.nprocs + 1 if phase == "failure-free"
                 else 2 * scenario.nprocs + 1)
        if per_message > bound + 1e-9:
            findings.append(Finding(
                protocol, "metrics:piggyback-bound",
                f"{phase} run piggybacks {per_message:.2f} identifiers per "
                f"message; the TDI piggyback is bounded by {bound} "
                f"({'n+1' if phase == 'failure-free' else '2n+1 with epochs'})"))
    if phase == "faulted" and scenario.faults:
        # a kill only demands a recovery if it can actually land: a
        # kill aimed at a rank that has not joined yet (deferred start)
        # or is in a left window is a legitimate no-op
        landing = [t for rank, t in scenario.faults
                   if scenario.joined_at(rank, t)]
        if landing:
            first_fault = min(landing)
            if (first_fault < truth.accomplishment_time
                    and summary.stats.total("recovery_count") == 0):
                findings.append(Finding(
                    protocol, "metrics:missing-recovery",
                    f"faulted run scheduled a kill at {first_fault:g}s "
                    f"(inside the {truth.accomplishment_time:g}s run) but "
                    f"recorded no recovery"))


def diff_results(scenario: Scenario, results: Mapping[tuple, RunSummary],
                 protocols: Iterable[str] = DEFAULT_PROTOCOLS,
                 ) -> ScenarioVerdict:
    """Fold one scenario's run matrix into a verdict."""
    verdict = ScenarioVerdict(scenario=scenario, runs=len(results))
    truth = results[(scenario.name, GROUND_TRUTH, "ff")]
    if truth.error is not None:
        # the application itself cannot run this scenario (unsafe send
        # ordering, unsupported shape): nothing to compare protocols on
        verdict.invalid = f"ground-truth run crashed: {truth.error}"
        return verdict
    for protocol in protocols:
        _diff_run(verdict.findings, protocol, "failure-free",
                  results[(scenario.name, protocol, "ff")], truth, scenario)
        faulted = results.get((scenario.name, protocol, "faulted"))
        if faulted is not None:
            _diff_run(verdict.findings, protocol, "faulted", faulted, truth,
                      scenario)
    return verdict


def run_scenario(scenario: Scenario,
                 protocols: Iterable[str] = DEFAULT_PROTOCOLS,
                 *,
                 jobs: int = 1,
                 cache: ResultCache | None = None) -> ScenarioVerdict:
    """Run one scenario's full matrix and diff it."""
    protocols = tuple(protocols)
    requests = scenario_requests(scenario, protocols)
    results = run_batch(requests, jobs=jobs, cache=cache, capture_errors=True)
    return diff_results(scenario, results, protocols)
