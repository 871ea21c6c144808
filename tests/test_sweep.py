"""Exhaustive sweeps: the main theorem on every tilting of D6, D7 and A8,
and of D6 and A7 in an orientation past the default, with the location
route's classes checked against the syzygy route's, module by module.  On
the two D6 sweeps every tilting's JSON export is also checked against the
standard library's rendering of the document it parses to.

Deselected from the default run by the `sweep` marker (see pyproject.toml);
run them with `pytest -m sweep`.  CHANGES.md gives the measured CPU time
of the D7 (2508 tiltings) and A8 (4862) sweeps.  In the two custom
orientations tau puts the middles of some meshes out of cid order (6 meshes
in D6, 5 in A7), so relabelled cover functors carry bases that differ from
knitted ones.
"""

import json

import pytest

from clustercat.hammocks import classify_by_location, verify_main_theorem
from clustercat.render import export_json
from clustercat.tilting import enumerate_tiltings

pytestmark = pytest.mark.sweep


@pytest.mark.parametrize("family,rank,orientation,count", [
    ("D", 6, "default", 672),
    ("D", 7, "default", 2508),
    ("A", 8, "default", 4862),
    ("D", 6, ((1, 3), (3, 2), (4, 3), (4, 5), (6, 5)), 672),
    ("A", 7, ((2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7)), 1430),
], ids=["D-6-672", "D-7-2508", "A-8-4862", "D-6-13,32,43,45,65-672",
        "A-7-21,23,43,45,65,67-1430"])
def test_every_tilting_agrees(category, family, rank, orientation, count):
    cc = category(family, rank, orientation)
    tiltings = enumerate_tiltings(cc)
    assert len(tiltings) == count
    disagreeing, mislocated, misrendered = [], [], []
    for t in tiltings:
        report = verify_main_theorem(cc, t)
        if not report.agreement:
            disagreeing.append(t.summands)
        if classify_by_location(cc, t) != {
                m: pd for m, (_dims, _syzygies, pd) in report.modules.items()}:
            mislocated.append(t.summands)
        if (family, rank) == ("D", 6):
            doc = export_json(cc, t)
            if doc != json.dumps(json.loads(doc), sort_keys=True,
                                 indent=2) + "\n":
                misrendered.append(t.summands)
    assert disagreeing == []
    assert mislocated == []
    assert misrendered == []
