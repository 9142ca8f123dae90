"""Protocol registry: name → constructor.

The harness and the public API select protocols by short name
(``"tdi"``, ``"tag"``, ``"tel"``, ``"pess"``, ``"part"``, ``"none"``).
Imports are deferred so that the registry module itself stays
dependency-light.
"""

from __future__ import annotations

from typing import Callable, Iterable, Type

from repro.protocols.base import Protocol

_REGISTRY: dict[str, Callable[[], Type[Protocol]]] = {}


def available_protocols() -> list[str]:
    """Sorted names of all registered protocols."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def validate_protocols(names: Iterable[str]) -> None:
    """Raise ``ValueError`` naming every entry not in the registry.

    Front-ends that accept protocol lists (the fuzzer's ``--protocols``)
    call this up front so a typo fails fast with the available names,
    instead of surfacing later as one crashed run per scenario.
    """
    _ensure_builtins()
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown protocol(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(_REGISTRY))}"
        )


def create_protocol(name: str, *args, **kwargs) -> Protocol:
    """Instantiate a protocol by registry name."""
    _ensure_builtins()
    try:
        loader = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None
    cls = loader()
    return cls(*args, **kwargs)


def protocol_class(name: str) -> Type[Protocol]:
    """Resolve a registry name to its protocol class."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True

    def _tdi():
        from repro.core.tdi import TdiProtocol

        return TdiProtocol

    def _tag():
        from repro.protocols.tag_protocol import TagProtocol

        return TagProtocol

    def _tel():
        from repro.protocols.tel_protocol import TelProtocol

        return TelProtocol

    def _none():
        from repro.protocols.noop import NoFaultTolerance

        return NoFaultTolerance

    def _pess():
        from repro.protocols.pessimistic import PessimisticProtocol

        return PessimisticProtocol

    def _part():
        from repro.protocols.partitioned import PartitionedProtocol

        return PartitionedProtocol

    for name, loader in [("tdi", _tdi), ("tag", _tag), ("tel", _tel),
                         ("none", _none), ("pess", _pess), ("part", _part)]:
        if name not in _REGISTRY:
            _REGISTRY[name] = loader
