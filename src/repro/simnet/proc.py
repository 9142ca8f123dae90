"""Generator-coroutine tasks.

A :class:`Task` owns one generator and advances it step by step.  Each
value the generator yields is handed to an *effect handler* supplied by
the owner (the per-rank runtime); the handler performs whatever simulated
work the effect requires and eventually calls :meth:`Task.resume` with the
result, which is sent back into the generator.

Tasks carry the incarnation ``epoch`` they were started under.  A resume
scheduled before a failure but firing after the incarnation replaced the
task is recognised as stale and dropped — this is how "the process's
volatile state is lost" manifests for in-flight continuations.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator

from repro.simnet.engine import Engine


class TaskState(enum.Enum):
    READY = "ready"       # created, not yet stepped
    RUNNING = "running"   # inside gen.send()
    WAITING = "waiting"   # parked on an effect
    DONE = "done"
    FAILED = "failed"     # generator raised
    KILLED = "killed"     # externally terminated (fault injection)


EffectHandler = Callable[["Task", Any], None]


class Task:
    """One coroutine under engine control."""

    def __init__(
        self,
        engine: Engine,
        gen: Generator[Any, Any, Any],
        handler: EffectHandler,
        *,
        name: str = "task",
        epoch: int = 0,
    ) -> None:
        self.engine = engine
        self.gen = gen
        self.handler = handler
        self.name = name
        self.epoch = epoch
        self.state = TaskState.READY
        self.result: Any = None
        self.error: BaseException | None = None
        #: called when the task finishes (any terminal state)
        self.on_done: Callable[[Task], None] | None = None

    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> None:
        """Schedule the first step of the coroutine."""
        if self.state is not TaskState.READY:
            raise RuntimeError(f"task {self.name} already started")
        self.state = TaskState.WAITING
        self.engine.schedule(delay, lambda: self._step(None, None))

    def resume(self, value: Any = None, delay: float = 0.0) -> None:
        """Resume the parked generator with ``value`` after ``delay``.

        The epoch is captured now; if the task is killed (and possibly a
        new incarnation started) before the event fires, the resume is
        silently dropped.
        """
        epoch = self.epoch
        self.engine.schedule(delay, lambda: self._step(value, epoch))

    def kill(self) -> None:
        """Terminate the task: close the generator, mark KILLED.

        Pending resumes become stale (state check drops them).
        """
        if self.state in (TaskState.DONE, TaskState.FAILED, TaskState.KILLED):
            return
        self.state = TaskState.KILLED
        self.gen.close()

    # ------------------------------------------------------------------
    def _step(self, value: Any, epoch: int | None) -> None:
        if self.state is not TaskState.WAITING:
            return  # stale resume (task finished or was killed)
        if epoch is not None and epoch != self.epoch:
            return  # resume from a previous incarnation
        self.state = TaskState.RUNNING
        try:
            effect = self.gen.send(value)
        except StopIteration as stop:
            self.state = TaskState.DONE
            self.result = stop.value
            if self.on_done:
                self.on_done(self)
            return
        except BaseException as err:  # noqa: BLE001 - surfaced via .error
            self.state = TaskState.FAILED
            self.error = err
            if self.on_done:
                self.on_done(self)
            return
        self.state = TaskState.WAITING
        self.handler(self, effect)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} {self.state.value} epoch={self.epoch}>"
