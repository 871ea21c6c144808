"""Hammock sets, shape closed forms, and the factorization criterion."""

import itertools
from collections import Counter
from functools import cache

import pytest

import clustercat.algebra as algebra
import clustercat.hammocks as hammocks
from clustercat import render
from clustercat.algebra import PdClass, build_algebra, module_of, pd_class
from clustercat.cluster import ClusterCategory, MeshConsistencyError
from clustercat.dynkin import build_quiver
from clustercat.hammocks import (
    HammockSet,
    Shape,
    UnclassifiableShapeError,
    factorization_ideal_nonzero,
    hij,
    hij_closed_form,
    left_hammock,
    right_hammock,
    sectional_path,
    shifted_summand,
    verify_main_theorem,
)
from clustercat.meshhom import CoverFunctor, MeshHomEngine
from clustercat.polygon import diagonal_of
from clustercat.presets import cycle_d6_tilting
from clustercat.render import export_json
from clustercat.tilting import (
    TiltingObject,
    enumerate_tiltings,
    initial_tilting,
    sample_tiltings,
)

# the two A3 tiltings whose algebra is the 3-cycle with radical square zero
A3_CYCLIC = ((0, 2, 5), (3, 6, 8))
A3_CYCLIC_INFINITE = frozenset({1, 4, 7})


def shifted_set(cc, t):
    return {cc.shift(s) for s in t.summands}


@cache
def every_report(cc):
    """verify_main_theorem on every tilting of cc, shared between tests."""
    return [verify_main_theorem(cc, t) for t in enumerate_tiltings(cc)]


def hammock_union(cc, report):
    """The union of the report's H(i,j), minus add T[1]."""
    union = frozenset().union(*report.hij.values())
    return union - shifted_set(cc, report.tilting)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_shifted_summand_in_left_hammock(category, family, rank):
    cc = category(family, rank)
    t = initial_tilting(cc)
    for i in range(1, rank + 1):
        a = shifted_summand(cc, t, i)
        assert a in left_hammock(cc, t, i)
        assert a in right_hammock(cc, t, i)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_hij_inside_intersection(category, family, rank):
    cc = category(family, rank)
    for t in enumerate_tiltings(cc)[:10]:
        for i in range(1, rank + 1):
            li = left_hammock(cc, t, i)
            for j in range(1, rank + 1):
                rj = right_hammock(cc, t, j)
                assert hij(cc, t, i, j) <= li & rj


def test_hammock_set_fields(category):
    """The exact hammocks are cid sets; the closed form adds its shape."""
    cc = category("D", 4)
    t = initial_tilting(cc)
    for h in (left_hammock(cc, t, 2), right_hammock(cc, t, 2), hij(cc, t, 1, 2)):
        assert isinstance(h, frozenset)
    pred = hij_closed_form(cc, t, 1, 2)
    assert pred == HammockSet(1, 2, hij(cc, t, 1, 2), pred.shape)


def test_sectional_trivial_path(category):
    cc = category("A", 3)
    for x in cc.cids():
        assert sectional_path(cc, x, x) == [x]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_sectional_paths_type_a(category, rank):
    """Paths exist, run along arrows, and never backtrack through tau."""
    cc = category("A", rank)
    n_found = 0
    for x in cc.cids():
        for y in cc.cids():
            p = sectional_path(cc, x, y)
            if p is None:
                continue
            n_found += 1
            assert p[0] == x and p[-1] == y
            for u, v in zip(p, p[1:]):
                assert v in cc.succ[u]
            for u, w in zip(p, p[2:]):
                assert w != cc.tau_inv[u]
    assert n_found >= len(cc.cids())  # at least the trivial paths


def test_sectional_paths_type_d(category):
    cc = category("D", 4)
    for x in cc.cids():
        for y in cc.cids():
            p = sectional_path(cc, x, y)
            if p is None:
                continue
            for u, v in zip(p, p[1:]):
                assert v in cc.succ[u]


def test_type_a_left_hammock_rectangle(category):
    """Linear type A: the hammock is the rectangle of crossing diagonals.

    Diagonals crossing a fixed diagonal (a, b) of the polygon have one
    endpoint strictly inside and one strictly outside the arc, so their
    number is the product of the two arc lengths; the hammock has a
    unique source T_i[1] and a unique sink.
    """
    for rank in (3, 4):
        cc = category("A", rank)
        m = rank + 3
        for t in enumerate_tiltings(cc)[:8]:
            for i in range(1, rank + 1):
                verts = left_hammock(cc, t, i)
                a = shifted_summand(cc, t, i)
                # supp Hom(a, -) = diagonals crossing the shift of a's diagonal
                p, q = diagonal_of(cc, cc.shift(a))
                gap = q - p
                assert len(verts) == (gap - 1) * (m - gap - 1)
                sources = [
                    v for v in verts if not any(u in verts for u in cc.pred[v])
                ]
                sinks = [
                    v for v in verts if not any(w in verts for w in cc.succ[v])
                ]
                assert sources == [a]
                assert len(sinks) == 1


def oriented_id(family, rank, orientation):
    if not isinstance(orientation, str):
        orientation = ",".join(f"{s}{t}" for s, t in orientation)
    return f"{family}{rank}-{orientation}"


def compatible_pairs(cc):
    """The pairs (a, b) that some tilting reaches: Ext^1(a, b) = 0."""
    return [(a, b) for a in cc.cids() for b in cc.cids()
            if not cc.ext1_c(a, b)]


# the closed-form table's and the location route's categories
LOCATED = [
    ("A", 5, "default"),
    ("D", 5, "default"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5))),
]
CUSTOM_D7 = ((1, 3), (3, 2), (4, 3), (4, 5), (6, 5), (6, 7))
PAIRED = ([("A", rank, "default") for rank in range(2, 9)]
          + [("D", rank, "default") for rank in range(4, 9)]
          + [("D", 7, CUSTOM_D7), ("D", 8, CUSTOM_D7 + ((8, 7),)),
             ("A", 7, ((2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7)))])


@pytest.mark.parametrize("family,rank,orientation", [
    pytest.param(*case, id=oriented_id(*case)) for case in PAIRED] + [
    pytest.param("D", rank, "default", id=f"D{rank}-default",
                 marks=pytest.mark.sweep) for rank in (9, 10, 11)])
def test_closed_forms_on_every_pair(category, family, rank, orientation):
    """On every pair that a tilting reaches, the closed form of H(a, b) has
    exactly the vertices of the hammock sweep.  The census of the nonempty
    shapes, as measured: rank sectional-path pairs per object, and on D_n
    n((n - 2)(n - 3)/2 + 2) swings and 2n(n - 4) full intersections."""
    cc = category(family, rank, orientation)
    census = Counter()
    for a, b in compatible_pairs(cc):
        vertices, shape = hammocks._classify(cc, a, b)
        assert vertices == cc._get_engine().hammock(a, b), (a, b)
        census[shape] += 1
    del census[Shape.EMPTY]
    n = rank
    expected = Counter({Shape.SECTIONAL_PATH: n * len(cc.indecs)})
    if family == "D":
        expected[Shape.SWING] = n * ((n - 2) * (n - 3) // 2 + 2)
        expected[Shape.FULL_INTERSECTION] = 2 * n * (n - 4)
    assert census == expected


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_closed_form_exact_type_a(category, rank):
    """A sectional hammock of type A fills the whole support intersection
    H_a & _bH; the pair test above finds no other nonempty shape."""
    cc = category("A", rank)
    for a, b in compatible_pairs(cc):
        if hammocks._classify(cc, a, b)[1] is Shape.SECTIONAL_PATH:
            assert cc._get_engine().hammock(a, b) == {
                x for x in cc.cids()
                if cc.hom_dim_c(a, x) and cc.hom_dim_c(x, b)}, (a, b)


def test_closed_form_exact_d4_exhaustive(category):
    cc = category("D", 4)
    census = Counter(hij_closed_form(cc, t, i, j).shape
                     for t in enumerate_tiltings(cc)
                     for i in range(1, 5) for j in range(1, 5))
    assert census == {Shape.SECTIONAL_PATH: 416, Shape.EMPTY: 336,
                      Shape.SWING: 48}


def test_swing_proper_inclusion_witness(category):
    """A proper swing: strictly smaller than the support intersection."""
    cc = category("D", 6)
    t = TiltingObject((30, 1, 29, 3, 4, 5))
    h = hij(cc, t, 3, 2)
    assert hij_closed_form(cc, t, 3, 2).shape is Shape.SWING
    assert sorted(h) == [25, 27, 28, 31, 32, 33]
    inter = left_hammock(cc, t, 3) & right_hammock(cc, t, 2)
    assert h < inter
    assert sorted(inter - h) == [13]


def test_swing_equals_exact_hammock(category):
    cc = category("D", 6)
    t = TiltingObject((30, 1, 29, 3, 4, 5))
    assert hij_closed_form(cc, t, 3, 2) == HammockSet(
        3, 2, hij(cc, t, 3, 2), Shape.SWING)


@pytest.mark.parametrize("family,rank,arrows", LOCATED, ids=[
    oriented_id(*case) for case in LOCATED])
def test_closed_form_table_equals_a_cold_classification(family, rank, arrows):
    """A table filled by every tilting in turn keeps one entry per pair of
    cids reached, and a pair reached under other labels returns the
    caller's (i, j).  Each entry is what a fresh category classifies for
    the pair, and its vertex set is the hammock table's frozenset when
    H(a, b) was computed before the closed form."""
    warm, fresh, before = (ClusterCategory(build_quiver(family, rank, arrows))
                           for _ in range(3))
    by_pair = {}
    for t in enumerate_tiltings(warm):
        shifts = list(enumerate(map(warm.shift, t.summands), 1))
        for (i, a), (j, b) in itertools.product(shifts, repeat=2):
            got = hij_closed_form(warm, t, i, j)
            assert (got.i, got.j) == (i, j)
            by_pair.setdefault((a, b), set()).add((i, j))
    table = hammocks._CLOSED_FORMS[warm]
    assert len(table) == len(by_pair)
    assert any(len(seen) > 1 for seen in by_pair.values())
    second = before._get_engine()
    for a, b in by_pair:
        cold = hammocks._closed_form(fresh, a, b)
        assert table[a * len(warm.indecs) + b] == cold, (a, b)
        # H(a, b) before the closed form
        assert second.hammock(a, b) is hammocks._closed_form(before, a, b)[0]


def test_unclassifiable_shape_is_not_stored(monkeypatch):
    """A classification that raises leaves no entry: it raises again on the
    next call, and the true shape is found once the fault is gone.  The
    export keeps no text for the pair either: it raises again, and once the
    fault is gone it reads as on a fresh category."""
    cc = ClusterCategory(build_quiver("D", 6))
    t = cycle_d6_tilting(cc)
    a, b = shifted_summand(cc, t, 3), shifted_summand(cc, t, 2)

    def three_routes(_cc, a, b):
        return [([a], [b])] * 3

    with monkeypatch.context() as patch:
        patch.setattr(hammocks, "_swing_routes", three_routes)
        for _ in range(2):
            with pytest.raises(UnclassifiableShapeError):
                hij_closed_form(cc, t, 3, 2)
            with pytest.raises(UnclassifiableShapeError):
                export_json(cc, t)
            assert a * len(cc.indecs) + b not in render._TEXTS[cc].pairs
    assert hij_closed_form(cc, t, 3, 2).shape is Shape.SWING
    fresh = ClusterCategory(build_quiver("D", 6))
    assert export_json(cc, t) == export_json(fresh, cycle_d6_tilting(fresh))


def hom_ii_nonzero(cc, t, i):
    """Hom(T_i[1], T_i) != 0."""
    return cc.hom_dim_c(shifted_summand(cc, t, i), t.summands[i - 1]) > 0


def test_hom_flag_up_forces_swing(category):
    """Hom(T_i[1], T_i) != 0 only ever occurs in the swing case."""
    cc = category("D", 5)
    hit = 0
    for t in sample_tiltings(cc, 25, seed=2):
        for i in range(1, 6):
            for j in range(1, 6):
                pred = hij_closed_form(cc, t, i, j)
                if (
                    hom_ii_nonzero(cc, t, i)
                    and pred.shape is not Shape.EMPTY
                    and pred.shape is not Shape.SECTIONAL_PATH
                ):
                    assert pred.shape is Shape.SWING
                    hit += 1
    # deterministic witness: this configuration has the flag up
    t = TiltingObject((13, 1, 18, 3, 4))
    pred = hij_closed_form(cc, t, 4, 1)
    assert hom_ii_nonzero(cc, t, 4)
    assert pred.shape is Shape.SWING
    assert sorted(pred.vertices) == [2, 6, 8, 20, 21, 22, 23]
    assert pred.vertices == hij(cc, t, 4, 1)


def test_diagonal_hammocks_are_points(category):
    """H(i,i) is the single vertex T_i[1]: End rings are one dimensional."""
    for family, rank in (("A", 4), ("D", 4)):
        cc = category(family, rank)
        for t in enumerate_tiltings(cc)[:12]:
            for i in range(1, rank + 1):
                assert hij(cc, t, i, i) == {shifted_summand(cc, t, i)}
                assert hij_closed_form(cc, t, i, i).shape is \
                    Shape.SECTIONAL_PATH


def test_rim_property(category):
    """Nonempty H(i,j) puts T_j[1] on the rim H_i minus supp Ext1(T_i[1],-)."""
    cc = category("D", 4)
    for t in enumerate_tiltings(cc)[:15]:
        for i in range(1, 5):
            a = shifted_summand(cc, t, i)
            li = left_hammock(cc, t, i)
            rim_excluded = {x for x in cc.cids() if cc.ext1_c(a, x) > 0}
            for j in range(1, 5):
                if hij(cc, t, i, j):
                    b = shifted_summand(cc, t, j)
                    assert b in li
                    assert b not in rim_excluded


def test_factorization_witness_shape(category):
    cc = category("A", 3)
    t = TiltingObject(A3_CYCLIC[0])
    shifted = shifted_set(cc, t)
    for m in cc.cids():
        if m in shifted:
            continue
        w = factorization_ideal_nonzero(cc, t, m)
        if m in A3_CYCLIC_INFINITE:
            i, j, g, h = w
            a, b = shifted_summand(cc, t, i), shifted_summand(cc, t, j)
            assert g in cc.hom_basis(a, m) and h in cc.hom_basis(m, b)
            assert any(cc.compose(a, m, b, g, h))
        else:
            assert w is None


def test_factorization_rejects_shifted_summands(category):
    cc = category("A", 3)
    t = initial_tilting(cc)
    for s in t.summands:
        with pytest.raises(ValueError):
            factorization_ideal_nonzero(cc, t, cc.shift(s))


def test_hij_membership_lists_pairs(category):
    cc = category("A", 3)
    t = TiltingObject(A3_CYCLIC[0])
    report = verify_main_theorem(cc, t)
    for m in sorted(A3_CYCLIC_INFINITE):
        pairs = [p for p, h in report.hij.items() if m in h]
        assert pairs
        for i, j in pairs:
            assert m in hij(cc, t, i, j)


def test_a3_cyclic_hammocks(category):
    cc = category("A", 3)
    for summands in A3_CYCLIC:
        t = TiltingObject(summands)
        report = verify_main_theorem(cc, t)
        assert report.agreement
        assert report.infinite_cids() == A3_CYCLIC_INFINITE
        assert hammock_union(cc, report) == report.infinite_cids()
        shifted = shifted_set(cc, t)
        off_diag = {}
        for i in range(1, 4):
            for j in range(1, 4):
                h = hij(cc, t, i, j)
                if i != j and h:
                    assert hij_closed_form(cc, t, i, j).shape is \
                        Shape.SECTIONAL_PATH
                    assert len(h) == 3
                    assert len(h - shifted) == 1
                    off_diag[(i, j)] = h
        assert len(off_diag) == 3


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3)])
def test_main_theorem_exhaustive_small(category, family, rank):
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        report = verify_main_theorem(cc, t)
        assert report.agreement
        assert len(report.rows) == len(cc.cids()) - rank
        for _m, ideal, pd in report.rows:
            assert ideal == (pd is PdClass.INFINITE)


def test_main_theorem_d4_exhaustive_census(category):
    cc = category("D", 4)
    census = Counter()
    for t in enumerate_tiltings(cc):
        report = verify_main_theorem(cc, t)
        assert report.agreement
        census[report.counts[PdClass.INFINITE]] += 1
    assert census == {0: 32, 6: 12, 8: 6}


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_report_modules_match_direct_computation(category, family, rank):
    """report.modules holds what module_of and its syzygies give directly."""
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        alg = build_algebra(cc, t)
        report = verify_main_theorem(cc, t)
        shifted = shifted_set(cc, t)
        assert list(report.modules) == [m for m in cc.cids()
                                        if m not in shifted]
        for m, got in report.modules.items():
            mod = module_of(alg, m)
            s1 = mod.syzygy()
            s2 = s1.syzygy()
            s3 = s2.syzygy()
            syzygies = (s1.dim_vector(), s2.dim_vector(), s3.dim_vector())
            assert got == (mod.dim_vector(), syzygies, pd_class(mod)), \
                (t.summands, m)


def test_infinite_vertices_lie_in_hammocks_type_a(category):
    """Non-shifted vertices of any H(i,j) all have infinite proj dimension."""
    cc = category("A", 4)
    for t in enumerate_tiltings(cc)[:20]:
        report = verify_main_theorem(cc, t)
        infinite = report.infinite_cids()
        shifted = shifted_set(cc, t)
        for i in range(1, 5):
            for j in range(1, 5):
                assert hij(cc, t, i, j) - shifted <= infinite


def test_hereditary_tiltings_have_no_infinite(category):
    for family, rank in (("A", 4), ("D", 4)):
        cc = category(family, rank)
        t = initial_tilting(cc)
        report = verify_main_theorem(cc, t)
        assert report.agreement
        assert report.counts[PdClass.INFINITE] == 0
        assert hammock_union(cc, report) == report.infinite_cids() == \
            frozenset()


def brute_force_membership(cc, t, m):
    """(i, j) with some nonzero T_i[1] -> m -> T_j[1], over every basis pair."""
    shifts = [shifted_summand(cc, t, k) for k in range(1, len(t) + 1)]
    pairs = []
    for i, a in enumerate(shifts, 1):
        for j, b in enumerate(shifts, 1):
            if any(any(cc.compose(a, m, b, g, h))
                   for g in cc.hom_basis(a, m) for h in cc.hom_basis(m, b)):
                pairs.append((i, j))
    return pairs


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 4), ("D", 5)])
def test_membership_equals_unpruned_search(category, family, rank):
    """Pruned witness search = composing every basis pair of every (i, j)."""
    cc = category(family, rank)
    for report in every_report(cc):
        t = report.tilting
        shifted = shifted_set(cc, t)
        for m in cc.cids():
            if m not in shifted:
                assert [p for p, h in report.hij.items() if m in h] == \
                    brute_force_membership(cc, t, m), (t.summands, m)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_module_actions_equal_direct_composition(category, family, rank):
    """module_of stores exactly the live blocks, each the direct composite.

    A pair (i, j) is live when Hom(T_i, T_j), Hom(T_i, M) and Hom(T_j, M)
    are all nonzero; its block holds one matrix per basis element b of
    Hom(T_i, T_j).  Every other direct matrix is empty, the shape its
    dimensions fix.
    """
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        alg = build_algebra(cc, t)
        shifted = shifted_set(cc, t)
        for m in cc.cids():
            if m in shifted:
                continue
            bases = {i: cc.hom_basis(alg.summand[i], m) for i in alg.labels}
            got = module_of(alg, m).act
            keys = {(i, j, b) for (i, j), d in alg.hom_dims.items()
                    for b in range(d)}
            assert set(got) == {(i, j) for i, j, _b in keys
                                if bases[i] and bases[j]}
            assert all(len(mats) == alg.hom_dim(i, j)
                       for (i, j), mats in got.items())
            for i, j, b in keys:
                si, sj = alg.summand[i], alg.summand[j]
                f = cc.hom_basis(si, sj)[b]
                direct = tuple(cc.compose(si, sj, m, f, g) for g in bases[j])
                if (i, j) in got:
                    assert got[(i, j)][b] == direct, (t.summands, m, (i, j, b))
                else:  # no columns, or columns without entries
                    assert not any(map(any, direct)), \
                        (t.summands, m, (i, j, b))


def first_composing_pair(cc, t, m):
    """(i, j, g, h): the first nonzero T_i[1] -> m -> T_j[1] in basis order."""
    shifts = [shifted_summand(cc, t, k) for k in range(1, len(t) + 1)]
    for i, a in enumerate(shifts, 1):
        for j, b in enumerate(shifts, 1):
            for g in cc.hom_basis(a, m):
                for h in cc.hom_basis(m, b):
                    if any(cc.compose(a, m, b, g, h)):
                        return (i, j, g, h)
    return None


@pytest.mark.parametrize("family,rank", [("D", 5), ("D", 6)])
def test_witness_is_the_first_composing_pair(category, family, rank):
    """The table-read witness is the pair a composing search finds first."""
    cc = category(family, rank)
    for t in enumerate_tiltings(cc)[::5]:
        shifted = shifted_set(cc, t)
        for m in cc.cids():
            if m not in shifted:
                assert factorization_ideal_nonzero(cc, t, m) == \
                    first_composing_pair(cc, t, m), (t.summands, m)


# the default orientation and one custom orientation per type
ORIENTED = [
    ("A", 4, "default"),
    ("A", 4, ((2, 1), (2, 3), (4, 3))),
    ("D", 4, "default"),
    ("D", 4, ((3, 1), (2, 3), (4, 3))),
    ("D", 5, "default"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5))),
]


@pytest.mark.parametrize("family,rank,orientation", ORIENTED, ids=[
    oriented_id(*case) for case in ORIENTED])
def test_report_table_equals_hij_and_witnesses(category, family, rank,
                                               orientation):
    """report.hij is the n^2 hij calls; a witness exists exactly on its union.

    The witness pair is the first pair in label order whose H(i,j) holds m.
    """
    cc = category(family, rank, orientation)
    labels = range(1, rank + 1)
    for report in every_report(cc):
        t = report.tilting
        assert report.hij == {(i, j): hij(cc, t, i, j)
                              for i in labels for j in labels}
        assert list(report.hij) == sorted(report.hij)
        union = hammock_union(cc, report)
        for m in report.modules:
            w = factorization_ideal_nonzero(cc, t, m)
            assert (w is not None) == (m in union), (t.summands, m)
            if w is not None:
                first = next(p for p, h in report.hij.items() if m in h)
                assert w[:2] == first, (t.summands, m)


def composing_hammock(cc, a, b):
    """H(a, b) by composing every basis pair a -> x -> b, without a table."""
    return frozenset(
        x for x in cc.cids()
        if any(any(cc.compose(a, x, b, g, h))
               for g in cc.hom_basis(a, x) for h in cc.hom_basis(x, b)))


@pytest.mark.parametrize("family,rank,orientation", ORIENTED, ids=[
    oriented_id(*case) for case in ORIENTED])
def test_hammock_table_equals_composing_every_pair(category, family, rank,
                                                   orientation):
    """Every entry of the category's H(a, b) table, over all pairs of cids."""
    cc = category(family, rank, orientation)
    eng = cc._get_engine()
    for a in cc.cids():
        for b in cc.cids():
            assert eng.hammock(a, b) == composing_hammock(cc, a, b), (a, b)


def test_vanishing_sectional_composite_is_rejected(category, monkeypatch):
    cc = category("A", 3)
    x, y = cc.arrows()[0]
    assert sectional_path(cc, x, y) == [x, y]
    monkeypatch.setattr(CoverFunctor, "apply_path", lambda *_args: None)
    with pytest.raises(MeshConsistencyError,
                       match="sectional path composite vanished"):
        sectional_path(cc, x, y)


@pytest.mark.parametrize("orientation", [
    "default", ((3, 1), (3, 2), (4, 3), (4, 5))], ids=["default", "custom"])
def test_empty_hammocks_are_one_object(category, orientation):
    """Once every H(a, b) of D5 is filled, the empty ones are one object."""
    cc = category("D", 5, orientation)
    eng = cc._get_engine()
    empty = [h for a in cc.cids() for b in cc.cids()
             if not (h := eng.hammock(a, b))]
    assert empty and all(h is empty[0] for h in empty)


@pytest.mark.parametrize("family,rank,orientation", LOCATED, ids=[
    oriented_id(*case) for case in LOCATED])
def test_location_route_agrees_with_the_syzygy_route(family, rank, orientation,
                                                     monkeypatch):
    """classify_by_location gives every module the class of the report.

    The category is fresh, so its closed forms are classified here, with
    modules, syzygies, the product table, the hammock sweep and the
    witnesses all made to fail: the location route reads none of them.
    """
    cc = ClusterCategory(build_quiver(family, rank, orientation))
    tiltings = enumerate_tiltings(cc)
    reports = [verify_main_theorem(cc, t) for t in tiltings]

    def forbidden(*_args):
        raise AssertionError("the location route read the syzygy route")

    monkeypatch.setattr(algebra, "module_of", forbidden)
    monkeypatch.setattr(algebra.AlgebraModule, "syzygy", forbidden)
    monkeypatch.setattr(algebra.AlgebraModule, "_syzygy", forbidden)
    monkeypatch.setattr(hammocks, "_pairing_witness", forbidden)
    monkeypatch.setattr(MeshHomEngine, "hammock", forbidden)
    for accessor in ("products", "product_rows", "_fill_row"):
        monkeypatch.setattr(MeshHomEngine, accessor, forbidden)
    for t, report in zip(tiltings, reports):
        got = hammocks.classify_by_location(cc, t)
        assert list(got) == list(report.modules), t.summands
        assert got == {m: pd for m, (_dims, _syzygies, pd)
                       in report.modules.items()}, t.summands
