"""Full runs on the bitset store against the set-based reference.

A slice of :mod:`tests.tools.tag_equivalence`'s matrix small enough for
every push: each cell is simulated once on
:mod:`tests.properties.reference_tag` and once on ``src/`` and the two
runs must agree on simulated time, engine events, answers, oracle
violations, every counter of every rank and the whole trace.
"""

import pytest

from tests.tools.equivalence import first_difference
from tests.tools.tag_equivalence import TIER1_CELLS, observe_both


@pytest.mark.parametrize("cell", TIER1_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_run_is_indistinguishable_from_the_reference(cell):
    reference, change = observe_both(cell)
    assert "raised" not in reference, reference["raised"]
    assert first_difference(reference, change) is None
