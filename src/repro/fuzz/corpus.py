"""The regression corpus: replayable shrunk scenarios on disk.

``tests/corpus/*.json`` holds one entry per file: a minimized
:class:`~repro.fuzz.scenario.Scenario` plus provenance (which fuzz seed
found it, what the failure looked like, what it shrank from).  Entries
with ``status: "fixed"`` are regressions — the tier-1 suite replays each
one under every protocol with the oracle armed and requires a clean
verdict.  Entries with ``status: "open"`` document known-failing
scenarios awaiting a fix; they are replayed but expected to still fail,
so a silent "fix" (or an unrelated change masking the repro) is noticed
either way.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.fuzz.differential import (
    DEFAULT_PROTOCOLS,
    ScenarioVerdict,
    run_scenario,
)
from repro.fuzz.scenario import Scenario

def default_corpus_dir() -> Path:
    """The repo's ``tests/corpus`` directory, located at runtime.

    Searches upward for a repo-root marker (``pyproject.toml`` or
    ``.git``) from this file first (src-layout checkout) and from the
    current working directory second (installed package run from inside
    a checkout).  Raises :class:`FileNotFoundError` when neither search
    finds a repo — an installed package has no implicit corpus, so
    callers must pass ``corpus_dir`` explicitly rather than silently
    reading an empty one.
    """
    for base in (Path(__file__).resolve().parent, Path.cwd()):
        for candidate in (base, *base.parents):
            if ((candidate / "pyproject.toml").is_file()
                    or (candidate / ".git").exists()):
                return candidate / "tests" / "corpus"
    raise FileNotFoundError(
        "no repo root (pyproject.toml or .git) above this package or the "
        "working directory — pass corpus_dir explicitly")


@dataclass
class CorpusEntry:
    """One persisted repro."""

    scenario: Scenario
    reason: str
    status: str = "fixed"  # "fixed" (regression) or "open" (known bug)
    found_by: dict = field(default_factory=dict)
    #: the pre-shrink scenario, when the entry came out of the shrinker
    original: Scenario | None = None
    #: stringified findings observed when the entry was recorded
    findings: list = field(default_factory=list)
    path: Path | None = None

    def to_json_dict(self) -> dict:
        """The entry as the plain dict stored on disk."""
        data = {
            "scenario": self.scenario.to_json_dict(),
            "reason": self.reason,
            "status": self.status,
            "found_by": self.found_by,
            "findings": list(self.findings),
        }
        if self.original is not None:
            data["original"] = self.original.to_json_dict()
        return data

    @classmethod
    def from_json_dict(cls, data: dict, path: Path | None = None) -> "CorpusEntry":
        return cls(
            scenario=Scenario.from_json_dict(data["scenario"]),
            reason=data.get("reason", ""),
            status=data.get("status", "fixed"),
            found_by=dict(data.get("found_by", {})),
            original=(Scenario.from_json_dict(data["original"])
                      if "original" in data else None),
            findings=list(data.get("findings", [])),
            path=path,
        )


def entry_filename(entry: CorpusEntry) -> str:
    """A stable, slug-ish file name for one entry."""
    slug = re.sub(r"[^a-z0-9]+", "-", entry.scenario.name.lower()).strip("-")
    return f"{slug}.json"


def save_entry(entry: CorpusEntry, corpus_dir: str | Path) -> Path:
    """Write ``entry`` under ``corpus_dir`` and return its path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / entry_filename(entry)
    path.write_text(
        json.dumps(entry.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    entry.path = path
    return path


def load_corpus(corpus_dir: str | Path | None = None) -> list[CorpusEntry]:
    """All entries under ``corpus_dir`` (default: the repo's
    ``tests/corpus``, see :func:`default_corpus_dir`), sorted by file
    name."""
    corpus_dir = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    entries = []
    for path in sorted(corpus_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        entries.append(CorpusEntry.from_json_dict(data, path=path))
    return entries


def replay_entry(entry: CorpusEntry,
                 protocols: Iterable[str] = DEFAULT_PROTOCOLS,
                 *, jobs: int = 1, cache=None) -> ScenarioVerdict:
    """Re-run one corpus entry's differential matrix."""
    return run_scenario(entry.scenario, protocols, jobs=jobs, cache=cache)


def audit_entry(entry: CorpusEntry):
    """Offline send-determinism audit of a corpus entry (triage aid).

    Runs the entry's scenario once, recorded, under the ground-truth
    protocol, then replays every rank's kernel against its own recording
    through :mod:`repro.debug.replay` — pinpointing the first divergence
    when a kernel itself is at fault rather than a protocol.
    """
    from repro.config import SimulationConfig
    from repro.debug.replay import audit_run
    from repro.mpi.cluster import run_simulation
    from repro.workloads.presets import workload_factory

    scenario = entry.scenario
    config = SimulationConfig(
        nprocs=scenario.nprocs,
        protocol="none",
        comm_mode=scenario.comm_mode,
        checkpoint_interval=scenario.checkpoint_interval,
        eager_threshold_bytes=scenario.eager_threshold_bytes,
        seed=scenario.seed,
        record=True,
    )
    factory = workload_factory(scenario.workload, scale=scenario.preset,
                               **dict(scenario.workload_kwargs))
    result = run_simulation(config, factory)
    return audit_run(result, lambda rank, nprocs: factory(rank, nprocs, None))
