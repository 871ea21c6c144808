"""Property tests over random orientations of A5, A6, D5 and D6.

Each test draws an orientation of the Dynkin diagram (every edge either
way), then pairs, triples or a mutation word, and checks one of the exact
tables against an independent route:

- the hammock sweep against composing every basis pair through x;
- product rows, filled in a random order on a fresh engine, against
  direct composition;
- a cold export against one on a category that exported other tiltings
  first, and a warm one, byte for byte;
- the directly written export against the standard library's rendering of
  the document it parses to, with orientation names that need escaping;
- the closed form of every H(i, j) against the exact set, on tiltings
  reached by a mutation word, over D7 as well;
- mutating twice at one label gives the tilting back;
- the syzygy-route classes and the sets H(i, j) of tau T and tau^-1 T
  are those of T moved by tau and tau^-1 (on A5, D5 and D6 only);
- the entry points that take a tilting answer exactly for the
  cluster-tilting objects and raise InputError for any other tuple of
  cids (on A1-A5, D4 and D5, default orientation).

Examples are capped so the module stays a few seconds of the Tier-1 run
(see `--durations`); a checkout without hypothesis skips it.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from clustercat.cluster import ClusterCategory  # noqa: E402
from clustercat.algebra import build_algebra  # noqa: E402
from clustercat.dynkin import (  # noqa: E402
    InputError,
    build_quiver,
    diagram_edges,
)
from clustercat.hammocks import (  # noqa: E402
    classify_by_location,
    hij,
    hij_closed_form,
    verify_main_theorem,
)
from clustercat.meshhom import MeshHomEngine  # noqa: E402
from clustercat.render import export_json  # noqa: E402
from clustercat.tilting import (  # noqa: E402
    TiltingObject,
    enumerate_tiltings,
    initial_tilting,
    is_cluster_tilting,
    mutate,
)

from test_hammocks import composing_hammock  # noqa: E402
from test_meshhom import direct_products  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=25, deadline=None,
                               database=None)
TYPES = [("A", 5), ("A", 6), ("D", 5), ("D", 6)]


@st.composite
def oriented_types(draw, types=TYPES):
    """(family, rank, arrows): every diagram edge drawn in either direction."""
    family, rank = draw(st.sampled_from(types))
    edges = sorted(tuple(sorted(e)) for e in diagram_edges(family, rank))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    arrows = tuple((t, s) if flip else (s, t)
                   for (s, t), flip in zip(edges, flips))
    return family, rank, arrows


def mutation_word(data, rank):
    """Labels to mutate at, in order, from the initial tilting."""
    return data.draw(st.lists(st.integers(1, rank), max_size=8))


@SETTINGS
@hypothesis.given(case=oriented_types(), data=st.data())
def test_hammock_sweep_equals_composing(category, case, data):
    """b is drawn among the targets of a nonzero map from a, half the time,
    so most pairs have a nonempty H(a, b)."""
    cc = category(*case)
    eng = cc._get_engine()
    for _ in range(data.draw(st.integers(1, 4))):
        a = data.draw(st.sampled_from(cc.cids()))
        b = data.draw(st.sampled_from(cc.cids()) | st.sampled_from(
            [x for x in cc.cids() if cc.hom_dim_c(a, x)]))
        assert eng.hammock(a, b) == composing_hammock(cc, a, b), (a, b)


@SETTINGS
@hypothesis.given(case=oriented_types(), data=st.data())
def test_product_rows_in_any_order_equal_composition(category, case, data):
    """A fresh engine on a cached category: its rows are filled in the drawn
    order, and compose reads the category's own engine, not that table."""
    cc = category(*case)
    eng = MeshHomEngine(cc)
    for _ in range(data.draw(st.integers(1, 6))):
        x = data.draw(st.sampled_from(cc.cids()))
        y = data.draw(st.sampled_from(
            [c for c in cc.cids() if cc.hom_dim_c(x, c)]))
        z = data.draw(st.sampled_from(cc.cids()))
        assert eng.products(x, y, z) == direct_products(cc, x, y, z), \
            (x, y, z)


@SETTINGS
@hypothesis.given(case=oriented_types(), data=st.data())
def test_export_is_byte_stable(category, case, data):
    """The export of a tilting on a fresh category, which fills its tables
    and its export text, is the export on a category that exported every
    tilting along the mutation word first, read twice, and on the suite's
    shared category, whose tables other tests filled in another order."""
    family, rank, arrows = case
    walked = ClusterCategory(build_quiver(family, rank, arrows))
    t = initial_tilting(walked)
    for k in mutation_word(data, rank):
        export_json(walked, t)
        t = mutate(walked, t, k)
    first = export_json(ClusterCategory(build_quiver(family, rank, arrows)), t)
    assert export_json(walked, t) == first
    assert export_json(walked, t) == first
    assert export_json(category(*case), t) == first


# orientation names for the export: a quote, a backslash, a tab and a
# non-ASCII letter each need escaping in JSON
ORIENTATION_NAMES = st.none() | st.text(st.sampled_from('a"\\\té'),
                                        min_size=1, max_size=6)


def stdlib_rendering(doc):
    """The text json.dumps writes for the document doc parses to."""
    return json.dumps(json.loads(doc), sort_keys=True, indent=2) + "\n"


@SETTINGS
@hypothesis.given(case=oriented_types(), data=st.data())
def test_export_is_the_stdlib_rendering(category, case, data):
    """export_json writes its text directly; it is the standard library's
    sorted, two-space rendering of the same document, escaping included."""
    cc = category(*case)
    t = initial_tilting(cc)
    for k in mutation_word(data, case[1]):
        t = mutate(cc, t, k)
    name = data.draw(ORIENTATION_NAMES)
    doc = export_json(cc, t, name)
    assert doc == stdlib_rendering(doc), (t.summands, name)
    if name is not None:
        assert json.loads(doc)["meta"]["orientation"] == name


def test_smallest_export_is_the_stdlib_rendering(category):
    """A1: one module per tilting, with an empty list of memberships."""
    cc = category("A", 1)
    for t in enumerate_tiltings(cc):
        for name in (None, 'we"ird\\\té'):
            doc = export_json(cc, t, name)
            assert doc == stdlib_rendering(doc), (t.summands, name)
            assert '"in_hij": []' in doc


@SETTINGS
@hypothesis.given(case=oriented_types(TYPES + [("D", 7)]), data=st.data())
def test_closed_forms_have_the_exact_vertices(category, case, data):
    """On a tilting reached by a mutation word, the closed form of every
    H(i, j), read from the shared category's table or classified there on
    first use, has exactly the vertices of the hammock sweep."""
    rank = case[1]
    cc = category(*case)
    t = initial_tilting(cc)
    for k in mutation_word(data, rank):
        t = mutate(cc, t, k)
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            assert hij_closed_form(cc, t, i, j).vertices == hij(cc, t, i, j), \
                (t.summands, i, j)


@SETTINGS
@hypothesis.given(case=oriented_types(), data=st.data())
def test_mutation_is_an_involution(category, case, data):
    """Every step of a mutation word is undone by mutating at its label
    again."""
    rank = case[1]
    cc = category(*case)
    t = initial_tilting(cc)
    for k in mutation_word(data, rank):
        s = mutate(cc, t, k)
        assert s.summands != t.summands
        assert mutate(cc, s, k).summands == t.summands, (t.summands, k)
        t = s


@SETTINGS
@hypothesis.given(case=oriented_types([("A", 5), ("D", 5), ("D", 6)]),
                  data=st.data())
def test_pd_classes_move_along_tau(category, case, data):
    """tau is an autoequivalence of C, so End(tau T) = End(T) label by
    label and Hom(tau T, tau M) = Hom(T, M) as modules: the dim vector,
    syzygy dim vectors and pd class of M over T are those of tau M over
    tau T, and H(i, j) moves to tau H(i, j).  Checked for tau and its
    inverse on a tilting reached by a mutation word."""
    rank = case[1]
    cc = category(*case)
    t = initial_tilting(cc)
    for k in mutation_word(data, rank):
        t = mutate(cc, t, k)
    report = verify_main_theorem(cc, t)
    for move in (cc.tau, cc.tau_inv):
        moved = verify_main_theorem(
            cc, TiltingObject(move[s] for s in t.summands))
        assert moved.modules == {move[m]: got
                                 for m, got in report.modules.items()}
        assert moved.hij == {ij: frozenset(move[x] for x in got)
                             for ij, got in report.hij.items()}


SMALL_TYPES = [("A", r) for r in range(1, 6)] + [("D", 4), ("D", 5)]


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(case=st.sampled_from(SMALL_TYPES), data=st.data())
def test_entry_points_answer_exactly_for_tiltings(category, case, data):
    """A tuple of n - 1 to n + 1 cids drawn from -1..|cids| (both ends out
    of range), or a tilting's summands in any order: build_algebra,
    verify_main_theorem, export_json and classify_by_location each return
    exactly when is_cluster_tilting holds, and otherwise raise InputError,
    never another exception.  A repeated cid raises InputError already in
    TiltingObject."""
    cc = category(*case)
    n, size = cc.n, len(cc.indecs)
    drawn = st.lists(st.integers(-1, size), min_size=n - 1, max_size=n + 1)
    tilting = st.sampled_from(enumerate_tiltings(cc)).flatmap(
        lambda t: st.permutations(t.summands))
    cids = tuple(data.draw(st.one_of(drawn, tilting)))
    expected = is_cluster_tilting(cc, cids)
    for entry in (build_algebra, verify_main_theorem, export_json,
                  classify_by_location):
        try:
            entry(cc, TiltingObject(cids))
        except InputError:
            answered = False
        else:
            answered = True
        assert answered == expected, (entry.__name__, cids)
