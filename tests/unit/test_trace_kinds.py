"""The trace vocabulary is closed: ``simnet.trace.KINDS`` holds exactly
the kinds ``src/repro`` can emit, so a subscription by kind
(``Trace.attach_listener(fn, kinds)``) can be checked when it is made
instead of hearing nothing for a misspelt one."""

import ast
from pathlib import Path

import repro
from repro.simnet.trace import KINDS
from repro.verify import CausalOracle

SRC = Path(repro.__file__).parent

#: the emit sites whose kind is not a string literal -> the kinds each
#: can produce
COMPUTED_SITES = {
    # CheckpointStore._emit forwards its callers' (literal) kinds
    ("protocols/checkpoint.py", ast.Name): set(),
    # f"storage.{gen.pending}" under ``if gen.pending in ("torn", "corrupt")``
    ("protocols/checkpoint.py", ast.JoinedStr):
        {"storage.torn", "storage.corrupt"},
    # ReliableTransport._drop_channels_to emits the kind its caller names
    ("simnet/transport.py", ast.Name): {"rt.reset", "rt.forget"},
}

LAYERS = {"net", "rt", "proto", "recovery", "ckpt", "storage", "detect",
          "fence", "gray", "member", "fault", "verify", "app"}


def _emit_sites():
    """``(file, first argument)`` of every ``emit(`` / ``_emit(`` call."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("emit", "_emit")):
                yield path.relative_to(SRC).as_posix(), node.args[0]


def test_every_emit_site_is_registered_and_nothing_else_is():
    literal, computed = set(), set()
    for file, kind in _emit_sites():
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            literal.add(kind.value)
        else:
            computed.add((file, type(kind)))
    assert computed == set(COMPUTED_SITES)
    assert len(literal) >= 50
    assert set(KINDS) == literal.union(*COMPUTED_SITES.values())


def test_a_kind_belongs_to_the_layer_it_is_prefixed_with():
    assert all(layer == kind.split(".")[0] for kind, layer in KINDS.items())
    assert set(KINDS.values()) == LAYERS


def test_the_oracle_subscribes_to_registered_kinds_only():
    handlers = CausalOracle(nprocs=2)._handlers
    assert len(handlers) == 8 and set(handlers) <= set(KINDS)
