"""Parallel execution of experiment plans.

An experiment *plan* is a generator: it yields batches of
:class:`~repro.harness.runner.RunRequest` (one batch per dependency
stage — Fig. 8 first probes failure-free spans, then runs the faulted
matrix those spans parameterise), receives the finished
``{key: RunSummary}`` mapping back via ``send()``, and finally returns
the assembled :class:`~repro.harness.tables.FigureResult`.

:func:`execute` drives a plan; :func:`run_batch` executes one batch —
serially in-process (``jobs=1``, the default, and what the test suite
exercises) or fanned out over a ``ProcessPoolExecutor``.  Fan-out is
safe because every run is a pure function of ``(config, seed)``: frame
identifiers, RNG streams and event sequence numbers are all
per-``Network``/per-``Engine``, so workers share nothing.  Dispatch is
*chunked* — many small requests ride one worker round trip (see
:func:`run_request_chunk`), so pool overhead amortises across the
matrix instead of taxing every cell.  Results are reassembled in
*request declaration order*, never completion order, so ``-j 8``
produces byte-identical rows to ``-j 1``.

A worker failure (a :class:`SimulationError`, an oracle violation under
``--verify``, any crash) aborts the whole batch with the failing cell
named and the remaining futures cancelled — a figure with a hole in its
matrix is not a figure.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Generator, Iterable, Mapping

from repro.harness.cache import ResultCache, cache_key, request_fingerprint
from repro.harness.runner import RunRequest, RunSummary
from repro.harness.tables import FigureResult
from repro.simnet.engine import SimulationError

#: a plan generator: yields request batches, receives result mappings,
#: returns the finished figure
Plan = Generator[list, Mapping[tuple, RunSummary], FigureResult]


@dataclass
class ExecutionStats:
    """Where a figure's cells came from (for the CLI's per-figure line)."""

    cells_total: int = 0
    cells_simulated: int = 0
    cells_cached: int = 0


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: ``0`` (or negative) means all cores."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_request(request: RunRequest) -> RunSummary:
    """Worker entry point: run one request in this process."""
    return request.execute()


def run_request_capturing(request: RunRequest) -> RunSummary:
    """Worker entry point that turns a crash into a summary.

    The fuzzer treats a crashed run (deadlocked recovery, runaway event
    loop, application error) as a *finding* about that protocol, not as
    a reason to abort the batch — the other cells of the scenario must
    still complete so the differential comparison can name the odd one
    out.
    """
    try:
        return request.execute()
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover - interactive
        raise
    except BaseException as exc:
        return RunSummary(
            accomplishment_time=0.0,
            sim_time=0.0,
            events_fired=0,
            checkpoint_writes=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _fail(request: RunRequest, exc: BaseException) -> "SimulationError":
    """Wrap a worker failure with the failing cell named."""
    return SimulationError(
        f"experiment cell {request} "
        f"(preset={request.preset!r}, seed={request.config.seed}) failed: {exc}"
    )


def run_request_chunk(requests: list[RunRequest],
                      capture_errors: bool = False) -> list[RunSummary]:
    """Worker entry point: run a chunk of requests in one dispatch.

    Submitting requests one by one pays pool overhead — request pickling,
    IPC, future bookkeeping, worker wake-up — per *cell*; on the fast
    preset that overhead rivals the simulation itself and the "parallel"
    path loses to serial outright.  Chunking pays it per ~``chunk_size``
    cells instead.  A failing run raises with its cell already named, so
    the parent can re-raise without guessing which chunk member died.
    """
    worker = run_request_capturing if capture_errors else run_request
    summaries = []
    for request in requests:
        try:
            summaries.append(worker(request))
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except BaseException as exc:
            raise _fail(request, exc) from exc
    return summaries


#: dispatches each worker should get, roughly: >1 evens out uneven cell
#: costs (lu@16 is much slower than sp@4) without reverting to
#: per-cell dispatch overhead
_CHUNKS_PER_WORKER = 4


def chunk_requests(todo: list, jobs: int) -> list[list]:
    """Split ``todo`` into contiguous dispatch chunks.

    Contiguity keeps reassembly trivially declaration-ordered; the chunk
    size targets ``_CHUNKS_PER_WORKER`` dispatches per worker so the
    pool can still balance unevenly sized cells.
    """
    size = max(1, -(-len(todo) // (jobs * _CHUNKS_PER_WORKER)))
    return [todo[i:i + size] for i in range(0, len(todo), size)]


def run_batch(
    requests: Iterable[RunRequest],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    stats: ExecutionStats | None = None,
    capture_errors: bool = False,
) -> dict[tuple, RunSummary]:
    """Execute one batch of requests; return ``{request.key: summary}``.

    The returned mapping preserves request declaration order.  Cached
    cells are served from ``cache`` without simulating; fresh results
    are written back to it.

    With ``capture_errors=True`` a failing run does not abort the batch:
    its summary comes back with ``error`` set (and is never written to
    the cache — an errored summary carries no reusable data).
    """
    requests = list(requests)
    jobs = resolve_jobs(jobs)
    worker = run_request_capturing if capture_errors else run_request
    results: dict[tuple, RunSummary | None] = {}
    todo: list[RunRequest] = []
    keys: dict[tuple, str] = {}
    for request in requests:
        if request.key in results:
            raise ValueError(f"duplicate request key {request.key!r} in batch")
        results[request.key] = None
        if cache is not None:
            keys[request.key] = cache_key(request)
            hit = cache.get(keys[request.key])
            if hit is not None:
                results[request.key] = hit
                continue
        todo.append(request)
    if stats is not None:
        stats.cells_total += len(requests)
        stats.cells_cached += len(requests) - len(todo)
        stats.cells_simulated += len(todo)

    def finish(request: RunRequest, summary: RunSummary) -> None:
        results[request.key] = summary
        if cache is not None and summary.error is None:
            cache.put(keys[request.key], summary,
                      fingerprint=request_fingerprint(request))

    if jobs == 1 or len(todo) <= 1:
        for request in todo:
            try:
                finish(request, worker(request))
            except SimulationError as exc:
                raise _fail(request, exc) from exc
    else:
        chunks = chunk_requests(todo, jobs)
        # never oversubscribe: more workers than cores just context-switch
        # against each other (the old 1-core "anti-speedup")
        workers = min(jobs, len(chunks), os.cpu_count() or jobs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(chunk, pool.submit(run_request_chunk, chunk,
                                           capture_errors))
                       for chunk in chunks]
            for chunk, future in futures:
                try:
                    summaries = future.result()
                except (KeyboardInterrupt, SystemExit):
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
                except SimulationError:
                    # already named by the worker's per-request wrapper
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
                except BaseException as exc:
                    # pool infrastructure failure: name the chunk's head
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise _fail(chunk[0], exc) from exc
                for request, summary in zip(chunk, summaries):
                    finish(request, summary)
    return results  # type: ignore[return-value]  # every value is filled in


def execute(
    plan: Plan,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    stats: ExecutionStats | None = None,
) -> FigureResult:
    """Drive ``plan`` to completion and return its figure.

    The figure comes back with an ``execution`` attribute (an
    :class:`ExecutionStats`) describing how many cells ran vs came from
    the cache.
    """
    if stats is None:
        stats = ExecutionStats()
    try:
        batch = next(plan)
        while True:
            results = run_batch(batch, jobs=jobs, cache=cache, stats=stats)
            batch = plan.send(results)
    except StopIteration as stop:
        figure = stop.value
        if figure is None:
            raise SimulationError("experiment plan returned no figure") from None
        figure.execution = stats
        return figure
