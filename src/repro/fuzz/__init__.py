"""Differential protocol fuzzer (``python -m repro.fuzz``).

Seeded scenario generation, differential execution across every
registered protocol, greedy shrinking of failures to minimal repros,
and a replayable JSON corpus under ``tests/corpus/``.
"""

from repro.fuzz.campaign import CampaignResult, FailureReport, run_campaign
from repro.fuzz.corpus import (
    CorpusEntry,
    audit_entry,
    default_corpus_dir,
    load_corpus,
    replay_entry,
    save_entry,
)
from repro.fuzz.differential import (
    DEFAULT_PROTOCOLS,
    Finding,
    GROUND_TRUTH,
    ScenarioVerdict,
    run_scenario,
    scenario_requests,
)
from repro.fuzz.scenario import (
    FUZZ_MAX_EVENTS,
    Scenario,
    generate_scenario,
)
from repro.fuzz.shrink import ShrinkResult, scenario_size, shrink_scenario

__all__ = [
    "CampaignResult",
    "CorpusEntry",
    "DEFAULT_PROTOCOLS",
    "FUZZ_MAX_EVENTS",
    "FailureReport",
    "Finding",
    "GROUND_TRUTH",
    "Scenario",
    "ScenarioVerdict",
    "ShrinkResult",
    "audit_entry",
    "default_corpus_dir",
    "generate_scenario",
    "load_corpus",
    "replay_entry",
    "run_campaign",
    "run_scenario",
    "save_entry",
    "scenario_requests",
    "scenario_size",
    "shrink_scenario",
]
