"""Benchmark-suite configuration.

Run with::

    pytest benchmarks/bench_fig6_piggyback.py

(``bench_substrate.py`` is run as a script and appends trajectory
records; CI collects it with ``--benchmark-disable`` to keep its code
paths exercised; ``benchmarks/e2e`` is the repo benchmark and has its
own driver, and its ``micro.py`` times the engine and vector hot paths.)

``bench_fig6_piggyback`` regenerates Fig. 6 and, in addition to
pytest-benchmark's wall-clock timing of the simulation runs, prints the
figure's own metric series (identifiers per message) so the
paper-vs-measured comparison in EXPERIMENTS.md can be refreshed from the
bench output.  The other figures' shape claims are asserted by the
tier-1 suite (``tests/integration/test_harness.py``,
``test_overhead_experiment.py``, ``test_sensitivity.py``).
"""

from __future__ import annotations

import pytest


def pytest_collection_modifyitems(items):
    # benchmarks are deterministic simulations; one round is meaningful
    for item in items:
        item.add_marker(pytest.mark.benchmark(min_rounds=1, warmup=False))


@pytest.fixture(scope="session")
def figure_report():
    """Collects figure rows across benches; printed at session end."""
    lines: list[str] = []
    yield lines
    if lines:
        print("\n" + "=" * 70)
        print("figure series regenerated by this benchmark session")
        print("=" * 70)
        for line in lines:
            print(line)
