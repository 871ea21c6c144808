"""Exhaustive sweeps: the main theorem on every tilting of D6, D7 and A8.

Deselected from the default run by the `sweep` marker (see pyproject.toml);
run them with `pytest -m sweep`.  CHANGES.md gives the measured CPU time
of the D7 (2508 tiltings) and A8 (4862) sweeps.
"""

import pytest

from clustercat.hammocks import verify_main_theorem
from clustercat.tilting import enumerate_tiltings

pytestmark = pytest.mark.sweep


@pytest.mark.parametrize("family,rank,count",
                         [("D", 6, 672), ("D", 7, 2508), ("A", 8, 4862)])
def test_every_tilting_agrees(category, family, rank, count):
    cc = category(family, rank)
    tiltings = enumerate_tiltings(cc)
    assert len(tiltings) == count
    disagreeing = [t.summands for t in tiltings
                   if not verify_main_theorem(cc, t).agreement]
    assert disagreeing == []
