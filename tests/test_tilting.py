import itertools

import pytest

import clustercat
from clustercat import algebra, cli, hammocks, render, tilting
from clustercat.algebra import build_algebra, classify_modules
from clustercat.dynkin import InputError, build_quiver
from clustercat.hammocks import classify_by_location, verify_main_theorem
from clustercat.render import export_json
from clustercat.tilting import (MutationError, TiltingObject, check_tilting,
                                completions, enumerate_tiltings,
                                first_ext_violation, initial_tilting,
                                is_cluster_tilting, mutate, mutation_walk,
                                sample_tiltings, tilting_count)


def catalan(m):
    out = 1
    for i in range(m):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


def d_count(n):
    from math import comb
    return (3 * n - 2) * comb(2 * n - 2, n - 1) // n


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 2, catalan(3)), ("A", 3, catalan(4)), ("A", 4, catalan(5)),
    ("D", 4, d_count(4)), ("D", 5, d_count(5)), ("D", 6, d_count(6)),
])
def test_tilting_counts(category, family, rank, expected):
    cc = category(family, rank)
    ts = enumerate_tiltings(cc)
    assert len(ts) == expected
    assert len({t.key() for t in ts}) == expected


COUNTED = [("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 8)]


@pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
@pytest.mark.parametrize("family,rank", COUNTED,
                         ids=[f"{f}{r}" for f, r in COUNTED])
def test_tilting_count_closed_form(category, family, rank, reverse):
    """The closed form equals the enumeration, on two orientations."""
    orientation = "default"
    if reverse:
        orientation = tuple(
            (t, s) for s, t in build_quiver(family, rank).arrows)
    cc = category(family, rank, orientation)
    assert tilting_count(family, rank) == len(enumerate_tiltings(cc))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_enumeration_matches_brute_force(category, family, rank):
    cc = category(family, rank)
    brute = {tuple(sorted(c)) for c in
             itertools.combinations(cc.cids(), cc.n)
             if first_ext_violation(cc, c) is None}
    assert {t.key() for t in enumerate_tiltings(cc)} == brute


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 4), ("D", 4), ("D", 5)])
def test_every_enumerated_object_verifies(category, family, rank):
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        assert is_cluster_tilting(cc, t.summands)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 5), ("D", 4), ("D", 6)])
def test_initial_tilting(category, family, rank):
    cc = category(family, rank)
    t = initial_tilting(cc)
    assert is_cluster_tilting(cc, t.summands)
    # summands are the projectives, labelled by vertex
    for v in cc.quiver.vertices:
        assert t[v - 1] == cc.module_cid(cc.mod.proj_mid[v])


def test_non_tilting_rejected(category):
    cc = category("A", 3)
    t = initial_tilting(cc)
    assert not is_cluster_tilting(cc, t.summands[:-1] + (t.summands[0],))
    assert not is_cluster_tilting(cc, t.summands[:-1])
    # a rigid but non-maximal set of the wrong size
    assert not is_cluster_tilting(cc, t.summands[:2])
    bad = (0, cc.tau[0], t.summands[2])
    if first_ext_violation(cc, bad):
        assert not is_cluster_tilting(cc, bad)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_mutation_is_an_involution(category, family, rank):
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        for k in range(1, cc.n + 1):
            s = mutate(cc, t, k)
            assert is_cluster_tilting(cc, s.summands)
            assert s.key() != t.key()
            # only position k-1 changed
            for pos in range(cc.n):
                if pos != k - 1:
                    assert s[pos] == t[pos]
            assert mutate(cc, s, k).key() == t.key()


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_exchange_pairs(category, family, rank):
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        for k in range(1, cc.n + 1):
            rest = tuple(c for pos, c in enumerate(t) if pos != k - 1)
            comp = completions(cc, rest)
            assert len(comp) == 2 and t[k - 1] in comp


def test_mutation_walk_reaches_everything(category):
    cc = category("A", 3)
    seen = {t.key() for t in mutation_walk(cc, 200, seed=3)}
    assert len(seen) == 14


@pytest.mark.parametrize("family,rank,count", [("D", 4, 50), ("A", 4, 42)])
def test_sample_tiltings_collects_all_when_asked(category, family, rank, count):
    cc = category(family, rank)
    got = sample_tiltings(cc, count, seed=1)
    assert len({t.key() for t in got}) == count
    assert all(is_cluster_tilting(cc, t.summands) for t in got)


def test_sample_tiltings_distinct_d6(category):
    cc = category("D", 6)
    got = sample_tiltings(cc, 200, seed=0)
    assert len({t.key() for t in got}) >= 200


def test_mutate_label_out_of_range(category):
    cc = category("A", 2)
    t = initial_tilting(cc)
    with pytest.raises(ValueError):
        mutate(cc, t, 0)
    with pytest.raises(ValueError):
        mutate(cc, t, 3)


def test_duplicate_summands_rejected():
    with pytest.raises(ValueError):
        TiltingObject((1, 1, 2))


def test_summands_are_ints_and_nothing_else(category):
    """A summand is an int cid: no float or bool is coerced to one."""
    assert TiltingObject((0, 2, 5)).summands == (0, 2, 5)
    for bad in ((0.5, 2, 5), (True, 2, 5), ("0", 2, 5), (None, 2, 5)):
        with pytest.raises(InputError, match="a tilting summand is an int"):
            TiltingObject(bad)
        with pytest.raises(InputError, match="cid out of range"):
            check_tilting(category("A", 3), bad)


def test_one_input_error_type():
    assert clustercat.InputError is cli.InputError is InputError
    assert issubclass(InputError, ValueError)
    assert "InputError" in clustercat.__all__


ENTRY_POINTS = (build_algebra, classify_modules, verify_main_theorem,
                export_json, classify_by_location)
# on A3 (cids 0..8): four objects, three that are not rigid, too few, a cid
# on either side of the range, and the messages the command line prints
NOT_TILTING = (
    ((0, 1, 2, 3), "a tilting here has 3 distinct summands, got (0, 1, 2, 3)"),
    ((0, 3, 5), "not a cluster-tilting object: Ext^1(3, 5) != 0"),
    ((0, 1), "a tilting here has 3 distinct summands, got (0, 1)"),
    ((0, 1, 99), "cid out of range in (0, 1, 99)"),
    ((-1, 2, 5), "cid out of range in (-1, 2, 5)"),
)


@pytest.mark.parametrize("cids,message", NOT_TILTING,
                         ids=[str(c) for c, _m in NOT_TILTING])
def test_every_entry_point_rejects_what_is_not_tilting(category, cids,
                                                       message):
    """The trichotomy and the I_M criterion hold only over a cluster-tilting
    object, so no entry point answers for anything else, and none raises
    another error type on the way."""
    cc = category("A", 3)
    with pytest.raises(InputError) as got:
        check_tilting(cc, cids)
    assert str(got.value) == message
    for entry in ENTRY_POINTS:
        with pytest.raises(InputError) as got:
            entry(cc, TiltingObject(cids))
        assert str(got.value) == message, entry.__name__
    assert not is_cluster_tilting(cc, cids)


# the label functions and the drawing formats, each given labels 1 and 2
LABEL_CALLS = {
    "hij": lambda cc, t: hammocks.hij(cc, t, 1, 2),
    "hij_closed_form": lambda cc, t: hammocks.hij_closed_form(cc, t, 1, 2),
    "left_hammock": lambda cc, t: hammocks.left_hammock(cc, t, 1),
    "right_hammock": lambda cc, t: hammocks.right_hammock(cc, t, 2),
    **{f"render-{fmt}": lambda cc, t, fmt=fmt: render.render(
        cc, render.RenderSpec(fmt, tilting=t)) for fmt in ("dot", "tikz",
                                                           "ascii")},
    "render-dot-highlight": lambda cc, t: render.render(
        cc, render.RenderSpec("dot", highlight=((1, 2, "red"),), tilting=t)),
}


@pytest.mark.parametrize("cids,message", NOT_TILTING,
                         ids=[str(c) for c, _m in NOT_TILTING])
def test_label_functions_and_drawings_reject_what_is_not_tilting(
        category, cids, message):
    """H(i,j), its closed form, the one-sided hammocks and every drawing of
    a tilting answer only for a cluster-tilting object; a cid out of
    range raises InputError, not a KeyError or IndexError."""
    cc = category("A", 3)
    for name, call in LABEL_CALLS.items():
        with pytest.raises(InputError) as got:
            call(cc, TiltingObject(cids))
        assert str(got.value) == message, name


def test_label_functions_and_drawings_check_the_tilting_once(
        category, monkeypatch):
    """One check_tilting per call, however many labels or highlights the
    call reads; export_json reads its closed forms without a check per
    pair, so its one check is the verify's."""
    cc = category("A", 3)
    t = TiltingObject((0, 2, 5))
    calls = []

    def counted(cc, cids):
        calls.append(tuple(cids))
        return check_tilting(cc, cids)

    for module in (algebra, hammocks, render):
        monkeypatch.setattr(module, "check_tilting", counted)
    for name, call in LABEL_CALLS.items():
        calls.clear()
        call(cc, t)
        assert calls == [(0, 2, 5)], name
    calls.clear()
    spec = render.RenderSpec("tikz", tilting=t,
                             highlight=((1, 2, "red"), (2, 1, "blue")))
    assert render.render(cc, spec)
    assert calls == [(0, 2, 5)]
    calls.clear()
    assert export_json(cc, t)
    assert calls == [(0, 2, 5)]


@pytest.mark.parametrize("cids,message", NOT_TILTING[1:],
                         ids=[str(c) for c, _m in NOT_TILTING[1:]])
def test_mutate_names_what_is_not_tilting(category, cids, message):
    """A set of summands whose exchange finds no single replacement, or
    that names a cid out of range, is checked there and raises InputError;
    MutationError is left for a checked tilting."""
    cc = category("A", 3)
    for k in range(1, len(cids) + 1):
        with pytest.raises(InputError) as got:
            mutate(cc, TiltingObject(cids), k)
        assert str(got.value) == message, k


def test_mutate_checks_only_a_failed_exchange(category, monkeypatch):
    """The exchange of a tilting runs no check_tilting; a tilting whose
    exchange fails still raises MutationError, an internal fault."""
    cc = category("A", 3)
    calls = []

    def counted(cc, cids):
        calls.append(tuple(cids))
        return check_tilting(cc, cids)

    monkeypatch.setattr(tilting, "check_tilting", counted)
    mutated = [mutate(cc, t, k) for t in enumerate_tiltings(cc)
               for k in range(1, cc.n + 1)]
    assert calls == []
    assert all(is_cluster_tilting(cc, s.summands) for s in mutated)
    t = initial_tilting(cc)
    calls.clear()
    monkeypatch.setattr(tilting, "completions", lambda cc, rest: [])
    with pytest.raises(MutationError, match="found 0 replacements"):
        mutate(cc, t, 1)
    assert calls == [t.summands]


def test_each_entry_point_checks_the_tilting_once(category, monkeypatch):
    """verify_main_theorem and export_json reach build_algebra through
    classify_modules, and the check runs in build_algebra alone."""
    cc = category("A", 3)
    t = TiltingObject((0, 2, 5))
    calls = []

    def counted(cc, cids):
        calls.append(tuple(cids))
        return check_tilting(cc, cids)

    for module in (algebra, hammocks, cli):
        monkeypatch.setattr(module, "check_tilting", counted)
    for entry in ENTRY_POINTS:
        calls.clear()
        entry(cc, t)
        assert calls == [(0, 2, 5)], entry.__name__
    calls.clear()
    assert render.render(cc, render.RenderSpec("json", tilting=t))
    assert calls == [(0, 2, 5)]
    calls.clear()
    assert cli._resolve_tilting(cc, "0,2,5") == t
    assert calls == [(0, 2, 5)]


def ext_table(cc):
    """dim Ext^1(z, t) for every pair, read pair by pair."""
    return [[cc.ext1_c(z, t) for t in cc.cids()] for z in cc.cids()]


def pair_scan_completions(cc, ext, rest):
    """completions by its definition: every z outside rest with
    Ext^1(z, t) = 0 for every t in rest."""
    return [z for z in cc.cids()
            if z not in rest and not any(ext[z][t] for t in rest)]


def pair_scan_tiltings(cc):
    """enumerate_tiltings' clique search on an adjacency read pair by pair:
    bit y of adj[x] is set when y != x and Ext^1(x, y) = 0."""
    adj = [sum(1 << y for y in cc.cids() if y != x and not cc.ext1_c(x, y))
           for x in cc.cids()]
    out = []

    def extend(cand, chosen):
        while cand and cand.bit_count() >= cc.n - len(chosen):
            low = cand & -cand
            y = low.bit_length() - 1
            cand ^= low
            chosen.append(y)
            if len(chosen) == cc.n:
                out.append(tuple(chosen))
            else:
                extend(cand & adj[y], chosen)
            chosen.pop()

    extend((1 << len(cc.indecs)) - 1, [])
    return out


CUSTOM_D6 = ((1, 3), (3, 2), (4, 3), (4, 5), (6, 5))
SCANNED = [
    pytest.param("A", 6, "default", id="A6"),
    pytest.param("D", 6, "default", id="D6"),
    pytest.param("D", 6, CUSTOM_D6, id="D6-13,32,43,45,65"),
    pytest.param("D", 7, "default", id="D7", marks=pytest.mark.sweep),
    pytest.param("A", 8, "default", id="A8", marks=pytest.mark.sweep),
]


@pytest.mark.parametrize("family,rank,orientation", SCANNED)
def test_completions_and_mutate_equal_the_pair_scan(category, family, rank,
                                                    orientation):
    """At every tilting and label, the masks of completions give the
    completions of the pair scan, and mutate puts the one other completion
    in place of the label's summand."""
    cc = category(family, rank, orientation)
    ext = ext_table(cc)
    for t in enumerate_tiltings(cc):
        for k in range(1, cc.n + 1):
            rest = t.summands[:k - 1] + t.summands[k:]
            expect = pair_scan_completions(cc, ext, rest)
            assert completions(cc, rest) == expect, (t, k)
            [new] = [z for z in expect if z != t[k - 1]]
            assert mutate(cc, t, k).summands == \
                t.summands[:k - 1] + (new,) + t.summands[k:], (t, k)


@pytest.mark.parametrize("family,rank,orientation", SCANNED)
def test_enumeration_equals_the_pair_scan_in_order(category, family, rank,
                                                   orientation):
    cc = category(family, rank, orientation)
    assert [t.summands for t in enumerate_tiltings(cc)] == \
        pair_scan_tiltings(cc)
