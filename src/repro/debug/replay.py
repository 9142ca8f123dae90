"""Standalone single-rank replay.

Re-executes one rank's kernel outside the simulator, feeding it the
recorded delivery stream and auditing every send it issues against the
recorded one.  A successful replay certifies the kernel is
send-deterministic over that history — the property the paper's
protocol (and the send-deterministic model it cites) relies on; a
:class:`ReplayDivergence` pinpoints the first mismatch, which is the
debugging workflow message logging was built for.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.debug.recorder import RankRecording
from repro.mpi.context import ProcContext
from repro.simnet.primitives import (
    ANY_SOURCE,
    ANY_TAG,
    CheckpointPoint,
    Compute,
    RecvOp,
    SendOp,
    Wait,
)
from repro.workloads.base import Application


class ReplayDivergence(AssertionError):
    """The replayed execution departed from the recording."""


def _payloads_equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_payloads_equal(x, y) for x, y in zip(a, b))
    result = a == b
    return bool(np.all(result)) if isinstance(result, np.ndarray) else bool(result)


def replay_rank(
    app_factory: Callable[[int, int], Application],
    recording: RankRecording,
    nprocs: int,
    *,
    strict_sends: bool = True,
    max_steps: int = 1_000_000,
) -> Any:
    """Re-execute ``recording.rank``'s kernel against its recording.

    Deliveries are served from the recorded stream in order, each the
    ``Delivered`` the live kernel was resumed with (matching
    the request's source/tag — a mismatch means the kernel asked for
    something it did not ask for in the original run).  Sends are
    checked against the recorded sends when ``strict_sends`` is set.
    Returns the kernel's result, which is also checked against the
    recorded one.
    """
    rank = recording.rank
    app = app_factory(rank, nprocs)
    ctx = ProcContext(rank, nprocs)
    gen = app.run(ctx)
    deliveries = iter(recording.deliveries)
    sends = iter(recording.sends)
    sends_seen = 0
    delivered_seen = 0

    value: Any = None
    for step in range(max_steps):
        try:
            effect = gen.send(value)
        except StopIteration as stop:  # noqa: PERF203 - replay driver
            result = stop.value
            if recording.result is not None and not _payloads_equal(
                result, recording.result
            ):
                raise ReplayDivergence(
                    f"rank {rank}: replay result {result!r} != recorded "
                    f"{recording.result!r}"
                ) from None
            leftover = sum(1 for _ in deliveries)
            if leftover:
                raise ReplayDivergence(
                    f"rank {rank}: replay finished with {leftover} recorded "
                    "deliveries unconsumed"
                ) from None
            return result
        except ReplayDivergence:
            raise
        except Exception as error:
            # a crash while consuming the recorded stream is itself the
            # debugging signal (e.g. a modified kernel choking on the
            # original payloads)
            raise ReplayDivergence(
                f"rank {rank}: kernel raised {error!r} at replay step "
                f"{step} (deliveries consumed: {delivered_seen}, "
                f"sends issued: {sends_seen}) — payload diverged or the "
                "kernel changed incompatibly"
            ) from error
        value = None
        if isinstance(effect, RecvOp):
            try:
                record = next(deliveries)
            except StopIteration:
                raise ReplayDivergence(
                    f"rank {rank}: kernel asked for delivery "
                    f"#{delivered_seen + 1} but the recording has only "
                    f"{delivered_seen}"
                ) from None
            delivered_seen += 1
            if effect.source not in (ANY_SOURCE, record.source):
                raise ReplayDivergence(
                    f"rank {rank}: delivery #{delivered_seen} recorded from "
                    f"{record.source} but the kernel asked for source "
                    f"{effect.source}"
                )
            if effect.tag not in (ANY_TAG, record.tag):
                raise ReplayDivergence(
                    f"rank {rank}: delivery #{delivered_seen} recorded tag "
                    f"{record.tag} but the kernel asked for tag {effect.tag}"
                )
            value = record
        elif isinstance(effect, SendOp):
            sends_seen += 1
            if strict_sends:
                try:
                    record = next(sends)
                except StopIteration:
                    raise ReplayDivergence(
                        f"rank {rank}: kernel issued send #{sends_seen} "
                        "beyond the recorded history"
                    ) from None
                if (effect.dest, effect.tag) != (record.dest, record.tag):
                    raise ReplayDivergence(
                        f"rank {rank}: send #{sends_seen} goes to "
                        f"(dest={effect.dest}, tag={effect.tag}) but was "
                        f"recorded as (dest={record.dest}, tag={record.tag})"
                    )
                if not _payloads_equal(effect.payload, record.payload):
                    raise ReplayDivergence(
                        f"rank {rank}: send #{sends_seen} payload diverged "
                        "from the recording (send-determinism violation)"
                    )
        elif isinstance(effect, (Compute, Wait, CheckpointPoint)):
            pass  # timing and checkpoints are irrelevant offline
        else:
            raise ReplayDivergence(
                f"rank {rank}: kernel yielded unknown effect {effect!r}"
            )
    raise ReplayDivergence(f"rank {rank}: replay exceeded {max_steps} steps")


def replay_all(
    app_factory: Callable[[int, int], Application],
    recordings: "Any",
    nprocs: int,
) -> list[Any]:
    """Audit every rank of a :class:`~repro.debug.recorder.RunRecording`."""
    return [
        replay_rank(app_factory, recordings.rank(rank), nprocs)
        for rank in range(nprocs)
    ]


def audit_run(result: Any, app_factory: Callable[[int, int], Application]) -> list[Any]:
    """Audit a finished run's recording rank by rank.

    ``result`` is a :class:`~repro.mpi.cluster.RunResult` produced with
    ``record=True`` (the fuzz corpus triage path hands one in).  Returns
    the per-rank replayed results; raises :class:`ReplayDivergence` at
    the first rank whose kernel is not send-deterministic over its own
    recorded history.
    """
    if result.recording is None:
        raise ValueError("run was not recorded; re-run with record=True")
    return replay_all(app_factory, result.recording, result.config.nprocs)
