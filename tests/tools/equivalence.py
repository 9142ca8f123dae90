"""The harness the reference-twin tools share.

A twin tool runs each cell of a matrix on two or more sides — ``src/``
against a reference model patched in, or one run against another that
only a listener or the oracle tells apart — and requires the runs to be
indistinguishable.  The tool keeps its cells, config, observed fields
and how it switches sides; the rest is here: one run's observation, the
first difference between two, the full-matrix loop and the rule the
tier-1 slices are cut by.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Collection, Sequence

Observation = dict[str, Any]


def observe(run: Callable[[], Any],
            fields: Callable[[Any], Observation]) -> Observation:
    """``fields(run())``; a run that raises is observed as its message."""
    try:
        result = run()
    except Exception as exc:  # the same failure on both sides is equality
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return fields(result)


def _keys(one: dict, other: dict) -> list:
    return [*one, *(key for key in other if key not in one)]


def _descend(path: str, one: Any, other: Any, names: tuple[str, str]) -> str | None:
    if one == other:
        return None
    if isinstance(one, list) and isinstance(other, list):
        for index, pair in enumerate(zip(one, other)):
            found = _descend(f"{path}[{index}]", *pair, names)
            if found is not None:
                return found
        return f"{path}: {len(one)} entries vs {len(other)}"
    if isinstance(one, dict) and isinstance(other, dict):
        for key in _keys(one, other):
            found = _descend(f"{path}[{key!r}]", one.get(key), other.get(key), names)
            if found is not None:
                return found
    return f"{path}: {names[0]} {one!r}\n    {names[1]} {other!r}"


def first_difference(one: Observation, other: Observation,
                     names: tuple[str, str] = ("reference", "src"),
                     rules: dict[str, Callable[[Any, Any], bool]] | None = None,
                     ) -> str | None:
    """``None`` when two observations are equal, else what differs first:
    a side that raised alone, or the path to the first differing value
    (lists descended by index, dicts by key).  A field under ``rules``
    passes ``rule(its value in one, in other)`` instead of equality."""
    if ("raised" in one) != ("raised" in other):
        return (f"one side raised: {names[0]} {one.get('raised')!r}, "
                f"{names[1]} {other.get('raised')!r}")
    rules = rules or {}
    for field in _keys(one, other):
        expected, got = one.get(field), other.get(field)
        if field not in rules:
            found = _descend(field, expected, got, names)
            if found is not None:
                return found
        elif not rules[field](expected, got):
            return f"{field}: {names[0]} {expected!r}\n    {names[1]} {got!r}"
    return None


def run_matrix(tool: str, cells: Sequence, observe: Callable[[Any], tuple],
               difference: Callable[..., str | None],
               known_failures: Collection = ()) -> int:
    """Observe every cell (``observe(cell)`` is one observation per side,
    in the order ``difference`` takes them), print each differing cell
    and known failure, then a summary with each side's engine events;
    returns the exit status.  A cell that raises alike on every side
    fails the matrix unless it is a known failure, and so does a known
    failure that runs."""
    started = time.perf_counter()
    differing, failed, events = 0, 0, []
    for cell in cells:
        observed = observe(cell)
        found = difference(*observed)
        raised = observed[0].get("raised")
        if found is None and (raised is not None) != (cell in known_failures):
            found = (f"raised, and is not a known failure: {raised[:120]}"
                     if raised is not None else "a known failure ran")
        if found is not None:
            differing += 1
            print(f"DIFF {cell}: {found}")
        elif raised is not None:
            failed += 1
            print(f"known failure, raised alike, {cell}: {raised[:120]}")
        else:
            events = [total + side["events_fired"] for total, side
                      in itertools.zip_longest(events, observed, fillvalue=0)]
    print(f"{tool}: {len(cells)} cells x {len(observed)} runs, {differing} "
          f"differences or unexpected outcomes, {failed} known failures, "
          f"engine events per side {events}, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if differing else 0


def orthogonal_fraction(factors: Sequence[Sequence], modulus: int) -> list[tuple]:
    """The level combinations of ``factors`` whose level indexes sum to a
    multiple of ``modulus``, in product order: a ``1 / modulus`` fraction
    in which every pair of levels of two different factors still meets,
    as long as the remaining factors can make up every residue."""
    factors = [list(levels) for levels in factors]
    return [tuple(levels[i] for levels, i in zip(factors, index))
            for index in itertools.product(*(range(len(f)) for f in factors))
            if sum(index) % modulus == 0]
