"""Diagram emitters and the JSON report document."""

import gc
import hashlib
import json
import re
import weakref

import pytest

import clustercat.hammocks as hammocks
from clustercat import presets, render as render_module
from clustercat.cli import _parse_orientation
from clustercat.cluster import ClusterCategory
from clustercat.dynkin import InputError, build_quiver
from clustercat.hammocks import hij
from clustercat.render import (
    RenderSpec,
    ar_layout,
    export_json,
    render,
    render_ascii,
    render_dot,
    render_tikz,
)
from clustercat.tilting import TiltingObject, enumerate_tiltings, initial_tilting


def test_render_spec_rejects_unknown_format():
    with pytest.raises(ValueError):
        RenderSpec("svg")


# (spec arguments, the start of the message); every spec names a tilting
# of A3 but the last two
BAD_SPECS = (
    pytest.param(dict(highlight=((1, 3),)),
                 "bad highlight (1, 3): expected an (i, j, color) triple",
                 id="pair"),
    pytest.param(dict(highlight=((1, 3, "red", "x"),)),
                 "bad highlight (1, 3, 'red', 'x'): expected", id="quadruple"),
    pytest.param(dict(highlight=("1:3:red",)),
                 "bad highlight '1:3:red': expected", id="string"),
    pytest.param(dict(highlight=((1, 3, 'red"];x['),)),
                 """bad highlight '1:3:red"];x['""", id="quote"),
    pytest.param(dict(highlight=((1, 3, ""),)), "bad highlight '1:3:'",
                 id="empty-color"),
    pytest.param(dict(highlight=((1, 3, None),)), "bad highlight '1:3:None'",
                 id="color-not-str"),
    pytest.param(dict(highlight=((9, 9, "red"),)),
                 "highlight labels 9:9 out of range", id="labels-9-9"),
    pytest.param(dict(highlight=((0, 1, "red"),)),
                 "highlight labels 0:1 out of range", id="label-0"),
    pytest.param(dict(highlight=((True, 1, "red"),)),
                 "highlight labels True:1 out of range", id="label-bool"),
    pytest.param(dict(format="json", tilting=None),
                 "JSON output and highlights need", id="json-no-tilting"),
    pytest.param(dict(highlight=((1, 1, "red"),), tilting=None),
                 "JSON output and highlights need", id="highlight-no-tilting"),
)


@pytest.mark.parametrize("fmt", ["dot", "tikz"])
@pytest.mark.parametrize("kwargs,message", BAD_SPECS)
def test_render_spec_is_checked_at_construction(category, fmt, kwargs,
                                                message):
    """A color is written into DOT and TikZ source as it is, and a label
    indexes the tilting, so a bad spec raises InputError before any text is
    written."""
    cc = category("A", 3)
    args = {"format": fmt, "tilting": TiltingObject((0, 2, 5)), **kwargs}
    with pytest.raises(InputError, match="^" + re.escape(message)):
        RenderSpec(**args)
    if args["tilting"] is not None:
        good = dict(args, highlight=((1, 3, "red"),))
        assert "red" in render(cc, RenderSpec(**good))


def test_layout_is_injective_and_grid_shaped(category):
    for family, rank in (("A", 3), ("A", 5), ("A", 6), ("D", 4), ("D", 6)):
        cc = category(family, rank)
        pos = ar_layout(cc)
        assert len(set(pos.values())) == len(pos)
        assert {x for x, _y in pos.values()} == set(range(cc.winding))
        assert {y for _x, y in pos.values()} <= set(range(1, rank + 1))


def test_dot_a2_has_five_nodes_and_is_well_formed(category):
    cc = category("A", 2)
    text = render_dot(cc)
    assert text.startswith("digraph ar {")
    assert text.rstrip().endswith("}")
    nodes = re.findall(r"^\s*n(\d+) \[", text, re.M)
    assert len(nodes) == 5
    edges = re.findall(r"^\s*n(\d+) -> n(\d+)", text, re.M)
    assert len(edges) == len(cc.arrows())
    # every edge endpoint is a declared node
    declared = set(nodes)
    assert all(a in declared and b in declared for a, b in edges)
    # node and edge statements are semicolon-terminated
    for line in text.splitlines():
        if "->" in line or "[" in line:
            assert line.rstrip().endswith(";")


def test_dot_marks_tilting_and_highlight(category):
    cc = category("A", 3)
    t = TiltingObject((0, 2, 5))
    spec = RenderSpec("dot", highlight=((2, 1, "blue"),), tilting=t)
    text = render_dot(cc, spec)
    assert text.count("peripheries=2") == 3
    # H(2,1) holds one module beyond the shifted endpoints
    assert text.count('fillcolor="blue"') == 1


def test_highlight_without_tilting_rejected(category):
    cc = category("A", 3)
    with pytest.raises(ValueError):
        render_dot(cc, RenderSpec("dot", highlight=((1, 1, "red"),)))


def test_tikz_structure(category):
    cc = category("A", 2)
    t = initial_tilting(cc)
    text = render_tikz(cc, RenderSpec("tikz", tilting=t))
    assert text.startswith("\\begin{tikzpicture}")
    assert text.rstrip().endswith("\\end{tikzpicture}")
    assert len(re.findall(r"\\node\[", text)) == 5
    assert len(re.findall(r"\\draw\[", text)) == len(cc.arrows())
    assert text.count("double") == 2
    # wrap arrows are dashed; there is at least one per tau-orbit row
    assert "dashed" in text


def test_tikz_highlight_fill(category):
    cc = category("A", 3)
    t = TiltingObject((0, 2, 5))
    text = render_tikz(cc, RenderSpec("tikz", highlight=((2, 1, "blue"),),
                                      tilting=t))
    assert text.count("fill=blue!30") == 1


def test_ascii_grid_covers_every_vertex(category):
    cc = category("D", 4)
    t = initial_tilting(cc)
    text = render_ascii(cc, RenderSpec("ascii", tilting=t))
    for c in cc.cids():
        assert f"{c}:" in text
    assert len(re.findall(r"\[\d+:", text)) == 4  # summand brackets


def test_json_schema_and_byte_stability(category):
    cc = category("A", 3)
    t = initial_tilting(cc)
    doc = export_json(cc, t)
    assert doc == export_json(cc, t)
    data = json.loads(doc)
    assert set(data) == {"meta", "modules", "hammocks", "agreement"}
    assert data["meta"] == {"family": "A", "rank": 3, "orientation": "default",
                            "tilting": list(t.summands)}
    assert [m["cid"] for m in data["modules"]] == sorted(
        m["cid"] for m in data["modules"])
    for m in data["modules"]:
        assert set(m) == {"cid", "dim_vector", "pd", "in_hij"}
        assert m["pd"] in ("0", "1", "inf")
        assert len(m["dim_vector"]) == 3
    assert len(data["hammocks"]) == 9
    for h in data["hammocks"]:
        assert set(h) == {"i", "j", "shape", "vertices"}
        assert h["vertices"] == sorted(h["vertices"])
    # re-serializing the parsed document reproduces the bytes
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == doc


@pytest.mark.parametrize("family,rank,arrows,name", [
    ("A", 3, ((2, 1), (2, 3)), "custom:2-1,2-3"),
    ("D", 4, ((3, 1), (2, 3), (4, 3)), "custom:3-1,2-3,4-3"),
    ("D", 4, ((1, 3), (2, 3), (3, 4)), "default"),
], ids=["A3-custom", "D4-custom", "D4-default-arrows"])
def test_json_meta_names_the_category(category, family, rank, arrows, name):
    """Without an orientation argument, meta names the category's arrows in
    the CLI's syntax, and the name builds the same quiver again."""
    cc = category(family, rank, arrows)
    t = initial_tilting(cc)
    for doc in (export_json(cc, t), render(cc, RenderSpec("json", tilting=t))):
        assert json.loads(doc)["meta"]["orientation"] == name
    assert build_quiver(family, rank,
                        _parse_orientation(name)).arrows == cc.quiver.arrows
    given = json.loads(export_json(cc, t, "as-given"))["meta"]["orientation"]
    assert given == "as-given"


def test_json_hereditary_a2_agreement_and_no_infinite(category):
    cc = category("A", 2)
    data = json.loads(export_json(cc, initial_tilting(cc)))
    assert data["agreement"] is True
    assert all(m["pd"] != "inf" for m in data["modules"])


def test_json_a3_cycle_has_three_infinite(category):
    cc = category("A", 3)
    data = json.loads(export_json(cc, TiltingObject((0, 2, 5))))
    infinite = [m for m in data["modules"] if m["pd"] == "inf"]
    assert len(infinite) == 3
    assert {m["cid"] for m in infinite} == {1, 4, 7}
    # each infinite module sits in at least one hammock pair
    assert all(m["in_hij"] for m in infinite)
    finite = [m for m in data["modules"] if m["pd"] != "inf"]
    assert all(not m["in_hij"] for m in finite)


def test_json_membership_matches_hammock_lists(category):
    cc = category("D", 4)
    for t in enumerate_tiltings(cc)[:4]:
        data = json.loads(export_json(cc, t))
        by_pair = {(h["i"], h["j"]): set(h["vertices"]) for h in data["hammocks"]}
        shifted = {cc.shift(s) for s in t.summands}
        for m in data["modules"]:
            expect = sorted(
                [i, j] for (i, j), verts in by_pair.items()
                if m["cid"] in verts - shifted
            )
            assert m["in_hij"] == expect
            assert m["in_hij"] == [[i, j] for i in range(1, 5)
                                   for j in range(1, 5)
                                   if m["cid"] in hij(cc, t, i, j)]


def test_import_render_yields_the_submodule():
    import clustercat.render as render_module

    assert render_module.__name__ == "clustercat.render"
    assert render_module.export_json is export_json


def test_render_dispatch(category):
    cc = category("A", 2)
    t = initial_tilting(cc)
    for fmt in ("dot", "tikz", "ascii", "json"):
        text = render(cc, RenderSpec(fmt, tilting=t))
        assert text.endswith("\n")
    with pytest.raises(ValueError):
        render(cc, RenderSpec("json"))


# export_json of the D6 worked example, recorded when every coordinate was a
# Fraction; the integer kernel must reproduce it byte for byte.
D6_PRESET_SHA256 = (
    "2ba0da24f04064b2cb977c49d744e46fdd75a293cd918a36b631da2d979a698e")


def test_d6_preset_export_is_byte_stable(category):
    cc = category("D", 6)
    text = export_json(cc, presets.cycle_d6_tilting(cc))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == D6_PRESET_SHA256


def test_second_export_reads_the_closed_form_table(monkeypatch):
    """The shapes of a tilting are classified on its first export only: the
    second runs no classification of a pair."""
    cc = ClusterCategory(build_quiver("D", 6))
    t = presets.cycle_d6_tilting(cc)
    first = export_json(cc, t)

    def computed_again(*_args):
        raise AssertionError("a closed form was computed twice")

    monkeypatch.setattr(hammocks, "_classify", computed_again)
    assert export_json(cc, t) == first


def test_categories_of_one_type_never_share_export_text():
    """Two orientations of D4 name their objects by the same cids.  A
    tilting of both, exported on the second after the first exported it,
    reads as on a fresh category of the second orientation; for most such
    tiltings the two orientations give different hammocks."""
    arrows = ((1, 3), (3, 2), (4, 3))
    first = ClusterCategory(build_quiver("D", 4))
    second = ClusterCategory(build_quiver("D", 4, arrows))
    fresh = ClusterCategory(build_quiver("D", 4, arrows))
    common = sorted({t.summands for t in enumerate_tiltings(first)}
                    & {t.summands for t in enumerate_tiltings(second)})
    differ = 0
    for summands in common:
        t = TiltingObject(summands)
        other = export_json(first, t)
        doc = export_json(second, t)
        assert doc == export_json(fresh, t), summands
        differ += json.loads(doc)["hammocks"] != json.loads(other)["hammocks"]
    assert (len(common), differ) == (19, 17)
    for cc, name in ((first, "default"), (second, "custom:1-3,3-2,4-3")):
        doc = export_json(cc, TiltingObject(common[0]))
        assert json.loads(doc)["meta"]["orientation"] == name


def test_export_text_goes_with_its_category():
    """The category's export text, and its closed forms in hammocks, are
    weakly keyed by the category: collecting the category frees them, and
    nothing is kept per process."""
    cc = ClusterCategory(build_quiver("A", 3))
    export_json(cc, initial_tilting(cc))
    tables = (render_module._TEXTS, hammocks._CLOSED_FORMS)
    assert all(table.get(cc) is not None for table in tables)
    gc.collect()  # categories other tests left to the collector go first
    held, ref = [len(table) for table in tables], weakref.ref(cc)
    del cc
    gc.collect()
    assert ref() is None
    assert [len(table) for table in tables] == [n - 1 for n in held]
