"""TDI — the paper's lightweight causal message logging protocol.

This package is the reproduction of the paper's contribution (§III):

* :mod:`repro.core.vectors` — the ``depend_interval`` vector and its
  merge rule (the relaxation of PWD tracking to state-interval level);
* :mod:`repro.core.log_store` — sender-based volatile message log with
  CHECKPOINT_ADVANCE garbage collection;
* :mod:`repro.core.recovery` — the sender-based-logging spine the whole
  protocol family stands on, TDI and the PWD baselines alike (send
  indexing + logging + duplicate-send suppression, checkpoint GC,
  ROLLBACK / RESPONSE / ordered resend);
* :mod:`repro.core.tdi` — TDI's difference over that spine: the vector
  piggyback and the interval gate (Algorithm 1, lines 8–53);
* :mod:`repro.core.nonblocking` — the buffering/multithreading scheme of
  §III.E that removes send-side blocking (Fig. 4b).
"""

from repro.core.vectors import DependIntervalVector
from repro.core.log_store import SenderLog
from repro.core.tdi import TdiProtocol
from repro.core.nonblocking import SendPump

__all__ = ["DependIntervalVector", "SenderLog", "TdiProtocol", "SendPump"]
