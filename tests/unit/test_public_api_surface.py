"""Public-surface sanity: every ``__all__`` name resolves, and the
package-level conveniences the docs advertise exist with the documented
signatures."""

import importlib
import inspect
import pkgutil

import pytest

import repro


def packages_with_all():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        mod = importlib.import_module(info.name)
        if hasattr(mod, "__all__"):
            out.append(mod)
    return out


@pytest.mark.parametrize("module", packages_with_all(), ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_top_level_surface():
    assert repro.api is importlib.import_module("repro.api")
    for name in ("run_workload", "run_app", "FaultSpec", "simultaneous",
                 "staggered", "SimulationConfig", "RunResult"):
        assert hasattr(repro.api, name)


def test_run_workload_signature_documented_defaults():
    sig = inspect.signature(repro.api.run_workload)
    assert sig.parameters["nprocs"].default == 4
    assert sig.parameters["protocol"].default == "tdi"
    assert sig.parameters["scale"].default == "fast"
    assert sig.parameters["comm_mode"].default == "nonblocking"


def test_effect_wildcards_are_stable():
    # these constants are part of the documented app-facing contract
    from repro.simnet.primitives import ANY_SOURCE, ANY_TAG

    assert ANY_SOURCE == -1 and ANY_TAG == -1


def test_registry_and_presets_consistent_with_docs():
    from repro.protocols.registry import available_protocols
    from repro.workloads.presets import WORKLOADS

    assert available_protocols() == sorted(available_protocols())
    assert len(set(WORKLOADS)) == len(WORKLOADS)


def test_project_version_has_one_source():
    # pyproject.toml takes the version from repro._version, and an
    # installed distribution (absent under PYTHONPATH=src) agrees
    from importlib import metadata
    from pathlib import Path

    pyproject = Path(repro.__file__).parents[2] / "pyproject.toml"
    if pyproject.exists():  # a source checkout, not a wheel
        assert 'version = {attr = "repro._version.__version__"}' in \
            pyproject.read_text(encoding="utf-8")
    try:
        assert metadata.version("repro") == repro.__version__
    except metadata.PackageNotFoundError:
        pass
