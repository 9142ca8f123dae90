"""Per-layer attribution of one repetition, from outside the program.

One repetition runs under ``cProfile`` and every function's self time
and call count is folded onto exactly one layer ``<L>`` by the source
file it lives in.  The profiler is created with ``builtins=False``, so
time inside C functions (list/array/numpy primitives, ``heapq``) stays
in the self time of the Python function that called them — the layer
that chose to make the call pays for it.  Python code outside ``repro``
(numpy's Python wrappers, the standard library) lands in ``other``
together with the ``repro`` modules that have no layer of their own.

``cProfile`` charges a fixed cost per Python call and none inside C
code, so call-heavy layers read larger here than they are; the shares
rank candidates, they are not a speed-up forecast.  ``trace.overhead_x``
(traced / untraced repetition time) says how far the ruler bends.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Callable

import repro

#: one layer per ``repro/<pkg>/<mod>.py`` named here; ``workloads`` is the
#: whole package, ``other`` is everything else
LAYERS = (
    "simnet.engine", "simnet.network", "simnet.transport", "simnet.proc",
    "mpi.endpoint", "mpi.cluster",
    "core.tdi", "core.vectors", "core.wire", "core.log_store",
    "core.recovery",
    "protocols.base", "protocols.compression", "protocols.checkpoint",
    "protocols.pwd", "protocols.tag_protocol",
    "verify.oracle", "faults.detector",
    "workloads", "other",
)

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def layer_of(filename: str) -> str:
    """The one layer a source file's functions are charged to."""
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE_ROOT + os.sep):
        return "other"
    parts = os.path.relpath(path, _PACKAGE_ROOT).split(os.sep)
    if parts[0] == "workloads":
        return "workloads"
    if len(parts) == 2 and parts[1].endswith(".py"):
        name = f"{parts[0]}.{parts[1][:-3]}"
        if name in LAYERS:
            return name
    return "other"


def profile_call(fn: Callable[[], Any]) -> tuple[Any, cProfile.Profile]:
    """Run ``fn`` under the profiler; returns its result and the profile."""
    profiler = cProfile.Profile(builtins=False)
    result = profiler.runcall(fn)
    return result, profiler


def fold(profiler: cProfile.Profile) -> dict[str, Any]:
    """Fold a profile by layer: ``{"self_s": {<L>: seconds}, "calls":
    {<L>: n}, "total_s": seconds}``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in \
            pstats.Stats(profiler).stats.items():
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
    return {"self_s": self_s, "calls": calls, "total_s": sum(self_s.values())}


def layer_metrics(folded: dict[str, Any], messages: int) \
        -> tuple[dict[str, float], dict[str, float]]:
    """``<L>.self_share`` (host time; sums to 1) and ``<L>.calls_per_msg``
    (an exact count), as two dicts."""
    total = folded["total_s"]
    shares = {f"{layer}.self_share": folded["self_s"][layer] / total
              for layer in LAYERS}
    calls = {f"{layer}.calls_per_msg": folded["calls"][layer] / messages
             for layer in LAYERS}
    return shares, calls
