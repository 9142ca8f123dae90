"""Full compressed runs on the stamp-array vector against the log-based
reference.

A slice of :mod:`tests.tools.compress_equivalence`'s matrix small enough
for every push: each cell is simulated once on
:mod:`tests.properties.reference_vector` and once on ``src/`` and the two
runs must agree on the whole trace, engine events, simulated time,
answers, wire bytes and every counter of every rank.
"""

import pytest

from tests.tools.compress_equivalence import (TIER1_CELLS, first_difference,
                                              observe_both)


@pytest.mark.parametrize("cell", TIER1_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_run_is_indistinguishable_from_the_reference(cell):
    reference, change = observe_both(cell)
    assert "raised" not in reference, reference["raised"]
    assert first_difference(reference, change) is None
