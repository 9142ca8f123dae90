"""Documentation quality gates.

Every public module, class and function in ``repro`` must carry a
docstring — this is the "doc comments on every public item" deliverable
kept honest mechanically — and the fuzzing guide's band table must name
the bands the fuzzer declares.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # executes the CLI on import
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


def _documented(obj) -> bool:
    return bool(obj.__doc__ and obj.__doc__.strip())


def _inherits_contract(cls, mname) -> bool:
    """An override needs no docstring if a base class documents the
    method (the contract lives at its definition site)."""
    for base in cls.__mro__[1:]:
        member = base.__dict__.get(mname)
        if member is not None and _documented(member):
            return True
    return False


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_have_docstrings(module):
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not _documented(obj) and not (
            inspect.isclass(obj) and any(_documented(b) for b in obj.__mro__[1:-1])
        ):
            missing.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if not inspect.isfunction(member):
                    continue
                if not _documented(member) and not _inherits_contract(obj, mname):
                    missing.append(f"{module.__name__}.{name}.{mname}")
    assert not missing, f"undocumented public items: {missing}"


def test_version_is_exposed():
    assert repro.__version__.count(".") == 2


def test_fuzzing_band_table_names_the_declared_bands():
    """docs/FUZZING.md's band table lists exactly ``BANDS``, in draw
    order, with each band's flag and RNG salt (``—`` for none)."""
    from repro.fuzz.bands import BANDS

    guide = Path(__file__).resolve().parents[2] / "docs" / "FUZZING.md"
    section = guide.read_text(encoding="utf-8").split("\n## Bands\n")[1]
    section = section.split("\n## ")[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert [(row[0], row[1].split()[0], row[2]) for row in rows] == [
        (band.name, band.flag, band.salt or "—") for band in BANDS]
