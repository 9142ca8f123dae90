"""On-disk content-addressed cache of experiment-cell results.

Every simulation is a pure function of its materialised
:class:`~repro.config.SimulationConfig`, the workload (name, preset and
kernel-parameter overrides), the fault schedule and the seed — PR 1 made
frame identifiers per-``Network``, so nothing outside those inputs can
leak into a run.  That purity is what makes caching sound: the cache key
is a SHA-256 over the canonical JSON of exactly those inputs plus a
digest of the package's own source (:func:`source_digest`), so a cache
written by one version of the simulator is never read by another — not
even by a commit that changed a module constant and nothing else.  The
value is the :class:`~repro.harness.runner.RunSummary` the row-builders
consume.

Re-rendering a figure, extending a matrix with one more scale, or
running ``fig7`` after ``fig6`` (same cells, different row-builder) then
only simulates the cells that were never run before.

Layout: ``<root>/<key[:2]>/<key>.json``, one file per cell, written
atomically (tmp file + ``os.replace``) so a crashed or parallel harness
never leaves a torn entry behind.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.harness.runner import RunRequest, RunSummary

#: the ``repro`` package directory
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def source_digest(root: Path = PACKAGE_ROOT) -> str:
    """SHA-256 over every ``.py`` file under ``root``, with its path.

    Computed once per process (a few milliseconds).  A run's outcome is
    a function of its inputs *and* of the code that simulates it, so the
    code goes into every cache key: the version string has outlived
    many behaviour changes.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(source)}\0"
                      .encode())
        digest.update(source)
    return digest.hexdigest()


def _jsonify(value):
    """Collapse tuples to lists so the fingerprint equals its own JSON
    round trip (``asdict`` preserves tuple fields like partition sides)."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def request_fingerprint(request: RunRequest) -> dict:
    """The canonical, JSON-able identity of one run.

    Everything that can change the run's outcome appears here;
    presentation-only fields (the request ``key``) deliberately do not.
    """
    return {
        "source": source_digest(),
        "workload": request.workload,
        "preset": request.preset,
        "workload_kwargs": sorted([list(kv) for kv in request.workload_kwargs]),
        "config": _jsonify(asdict(request.config)),
        # the kind discriminates event classes whose fields coincide
        # (JoinSpec and FaultSpec both serialise to {rank, at_time})
        "faults": [{"kind": type(f).__name__, **asdict(f)}
                   for f in request.faults],
        # not an input to the simulation, but it decides whether a
        # violating run raises or returns — a tolerant (fuzzer) entry
        # carrying violations must never satisfy a strict (harness) read
        "strict_verify": request.strict_verify,
    }


def cache_key(request: RunRequest) -> str:
    """Stable hex digest naming ``request``'s cache entry."""
    blob = json.dumps(request_fingerprint(request), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``RunSummary`` JSON files, addressed by cache key."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> RunSummary | None:
        """The cached summary for ``key``, or ``None`` on a miss.

        A corrupt entry (torn write from a killed process, manual edit)
        counts as a miss and is removed rather than poisoning the run.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            summary = RunSummary.from_json_dict(data["summary"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, key: str, summary: RunSummary,
            fingerprint: dict | None = None) -> None:
        """Store ``summary`` under ``key`` (atomic; last writer wins).

        ``fingerprint`` is stored alongside purely for debuggability —
        ``cat`` an entry and see exactly which run produced it.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "summary": summary.to_json_dict()}
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
