"""The fuzz campaign driver: generate → run → diff → shrink → persist.

One campaign walks a seed range, generates one scenario per seed, runs
its differential matrix (fanned out over the PR 2 executor, served from
the result cache where possible), and — for every failing scenario —
shrinks it to a minimal repro and writes a replayable corpus entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.harness.cache import ResultCache
from repro.fuzz.corpus import CorpusEntry, save_entry
from repro.fuzz.differential import (
    DEFAULT_PROTOCOLS,
    ScenarioVerdict,
    run_scenario,
)
from repro.fuzz.scenario import Scenario, generate_scenario
from repro.fuzz.shrink import ShrinkResult, shrink_scenario


@dataclass
class FailureReport:
    """One failing scenario, as the campaign concluded it."""

    seed: int
    verdict: ScenarioVerdict
    shrink: ShrinkResult | None = None
    corpus_path: Path | None = None

    @property
    def scenario(self) -> Scenario:
        return (self.shrink.scenario if self.shrink is not None
                else self.verdict.scenario)

    def kinds(self) -> frozenset:
        """The failure signature: ``(protocol, kind)`` pairs observed."""
        return self.verdict.signature()


@dataclass
class CampaignResult:
    """What one fuzz campaign did and found."""

    scenarios_run: int = 0
    runs_executed: int = 0
    shrink_attempts: int = 0
    failures: list[FailureReport] = field(default_factory=list)
    #: ``(seed, reason)`` for scenarios whose ground truth cannot run
    skipped: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(
    seeds: Iterable[int],
    *,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    jobs: int = 1,
    cache: ResultCache | None = None,
    budget: int | None = None,
    shrink: bool = True,
    shrink_attempts: int = 120,
    corpus_dir: str | Path | None = None,
    stop_after: int | None = None,
    log: Callable[[str], None] | None = None,
    **bias,
) -> CampaignResult:
    """Fuzz every seed in ``seeds`` (up to ``budget`` scenarios).

    ``stop_after`` ends the campaign early once that many failing
    scenarios have been found — the mutation self-tests use it to prove
    detection without paying for the rest of the range.  ``bias`` is
    handed to :func:`generate_scenario` as is (``fault_bias``,
    ``net_bias``, ``storage_bias``, ``compress``): it picks the
    adversary bands of :mod:`repro.fuzz.bands` every scenario of the
    campaign draws.  Failures are shrunk with a predicate that preserves
    the original ``(protocol, failure-kind)`` signature, then persisted
    to ``corpus_dir`` (when given) with full provenance.
    """
    protocols = tuple(protocols)
    emit = log or (lambda message: None)
    result = CampaignResult()

    for seed in seeds:
        if budget is not None and result.scenarios_run >= budget:
            emit(f"budget of {budget} scenarios exhausted")
            break
        scenario = generate_scenario(seed, **bias)
        verdict = run_scenario(scenario, protocols, jobs=jobs, cache=cache)
        result.scenarios_run += 1
        result.runs_executed += verdict.runs
        if verdict.invalid is not None:
            result.skipped.append((seed, verdict.invalid))
            emit(f"{scenario.describe()} — skipped (not a valid program): "
                 f"{verdict.invalid}")
            continue
        if verdict.ok:
            emit(f"{scenario.describe()} — ok ({verdict.runs} runs)")
            continue

        emit(f"{scenario.describe()} — FAILED: "
             + "; ".join(str(f) for f in verdict.findings[:3]))
        report = FailureReport(seed=seed, verdict=verdict)
        result.failures.append(report)

        if shrink:
            signature = verdict.signature()

            def still_fails(candidate: Scenario) -> bool:
                candidate_verdict = run_scenario(candidate, protocols,
                                                 jobs=jobs, cache=cache)
                return bool(candidate_verdict.signature() & signature)

            shrunk = shrink_scenario(verdict.scenario, still_fails,
                                     max_attempts=shrink_attempts)
            result.shrink_attempts += shrunk.attempts
            report.shrink = shrunk
            emit(f"  shrunk to {shrunk.scenario.describe()} "
                 f"({shrunk.attempts} attempts, {shrunk.accepted} accepted)")

        if corpus_dir is not None:
            kinds = ", ".join(sorted(k for _, k in verdict.signature()))
            entry = CorpusEntry(
                scenario=report.scenario,
                reason=f"fuzz seed {seed} tripped: {kinds}",
                status="open",
                found_by={"fuzzer": "repro.fuzz", "seed": seed},
                original=(verdict.scenario if report.shrink is not None
                          else None),
                findings=[str(f) for f in verdict.findings],
            )
            report.corpus_path = save_entry(entry, corpus_dir)
            emit(f"  corpus entry written: {report.corpus_path}")

        if stop_after is not None and len(result.failures) >= stop_after:
            emit(f"stopping after {stop_after} failure(s)")
            break

    return result
