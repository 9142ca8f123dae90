"""Record/replay debugging on top of message logging.

The paper motivates causal message logging not only for fault tolerance
but for *parallel program debugging*: with every delivered message
logged, any single process can be re-executed deterministically in
isolation — no cluster, no timing, just the recorded message stream.
This package provides exactly that workflow:

* :class:`~repro.debug.recorder.RunRecording` — per-rank streams
  captured during a live run (enable with
  ``SimulationConfig(record=True)``).  Recording sits at the kernel
  generator: each incarnation's generator is wrapped where it starts,
  and the streams hold the very ``SendOp`` objects the kernel yielded
  and ``Delivered`` objects it was resumed with;
* :func:`~repro.debug.replay.replay_rank` — re-execute one rank's
  kernel standalone, resuming it with the recorded ``Delivered``
  objects and checking its sends against the recorded ones (a
  send-determinism audit);
* :func:`~repro.debug.replay.replay_all` — audit every rank.
"""

from repro.debug.recorder import RankRecording, RunRecording
from repro.debug.replay import ReplayDivergence, replay_all, replay_rank

__all__ = [
    "RunRecording",
    "RankRecording",
    "replay_rank",
    "replay_all",
    "ReplayDivergence",
]
