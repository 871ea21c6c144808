"""Hammock sets, shape closed forms, and the factorization criterion."""

from collections import Counter

import pytest

from clustercat.algebra import PdClass, build_algebra, module_of, pd_class
from clustercat.hammocks import (
    HammockSet,
    Shape,
    factorization_ideal_nonzero,
    hij,
    hij_closed_form,
    hij_membership,
    infinite_pd_set,
    left_hammock,
    right_hammock,
    sectional_path,
    shifted_summand,
    verify_main_theorem,
)
from clustercat.polygon import diagonal_of
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
            li = left_hammock(cc, t, i).vertices
            for j in range(1, rank + 1):
                rj = right_hammock(cc, t, j).vertices
                assert hij(cc, t, i, j).vertices <= li & rj


def test_hammock_kind_fields(category):
    cc = category("D", 4)
    t = initial_tilting(cc)
    assert left_hammock(cc, t, 2).kind == "left"
    assert right_hammock(cc, t, 2).kind == "right"
    h = hij(cc, t, 1, 2)
    assert h.kind == "hij" and (h.i, h.j) == (1, 2)
    assert set(h.flags) == {"hom_ii_nonzero", "hom_jj_nonzero"}
    assert len(h) == len(h.vertices)


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
                verts = left_hammock(cc, t, i).vertices
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


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_closed_form_exact_type_a(category, rank):
    cc = category("A", rank)
    for t in enumerate_tiltings(cc):
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                exact = hij(cc, t, i, j)
                pred = hij_closed_form(cc, t, i, j)
                assert exact.vertices == pred.vertices
                assert pred.shape in (Shape.EMPTY, Shape.SECTIONAL_PATH)
                if pred.shape is Shape.SECTIONAL_PATH:
                    # sectional hammocks fill the whole support intersection
                    inter = (
                        left_hammock(cc, t, i).vertices
                        & right_hammock(cc, t, j).vertices
                    )
                    assert exact.vertices == inter


def test_closed_form_exact_d4_exhaustive(category):
    cc = category("D", 4)
    census = Counter()
    for t in enumerate_tiltings(cc):
        for i in range(1, 5):
            for j in range(1, 5):
                exact = hij(cc, t, i, j)
                pred = hij_closed_form(cc, t, i, j)
                assert exact.vertices == pred.vertices, (t.summands, i, j)
                census[pred.shape] += 1
    assert census == {
        Shape.SECTIONAL_PATH: 416,
        Shape.EMPTY: 336,
        Shape.SWING: 48,
    }


def test_closed_form_exact_d5_d6_sampled(category):
    seen = Counter()
    for rank, count in ((5, 12), (6, 8)):
        cc = category("D", rank)
        for t in sample_tiltings(cc, count, seed=2):
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    exact = hij(cc, t, i, j)
                    pred = hij_closed_form(cc, t, i, j)
                    assert exact.vertices == pred.vertices, (t.summands, i, j)
                    seen[pred.shape] += 1
    assert seen[Shape.SWING] > 0
    assert seen[Shape.FULL_INTERSECTION] > 0


def test_swing_proper_inclusion_witness(category):
    """A proper swing: strictly smaller than the support intersection."""
    cc = category("D", 6)
    t = TiltingObject((30, 1, 29, 3, 4, 5))
    h = hij(cc, t, 3, 2)
    assert h.shape is Shape.SWING
    assert sorted(h.vertices) == [25, 27, 28, 31, 32, 33]
    inter = left_hammock(cc, t, 3).vertices & right_hammock(cc, t, 2).vertices
    assert h.vertices < inter
    assert sorted(inter - h.vertices) == [13]


def test_swing_equals_exact_hammock(category):
    cc = category("D", 6)
    t = TiltingObject((30, 1, 29, 3, 4, 5))
    pred = hij_closed_form(cc, t, 3, 2)
    assert pred.shape is Shape.SWING
    assert pred.vertices == hij(cc, t, 3, 2).vertices


def test_hom_flag_up_forces_swing(category):
    """Hom(T_i[1], T_i) != 0 only ever occurs in the swing case."""
    cc = category("D", 5)
    hit = 0
    for t in sample_tiltings(cc, 25, seed=2):
        for i in range(1, 6):
            for j in range(1, 6):
                pred = hij_closed_form(cc, t, i, j)
                if (
                    pred.flags["hom_ii_nonzero"]
                    and pred.shape is not Shape.EMPTY
                    and pred.shape is not Shape.SECTIONAL_PATH
                ):
                    assert pred.shape is Shape.SWING
                    hit += 1
    # deterministic witness: this configuration has the flag up
    t = TiltingObject((13, 1, 18, 3, 4))
    pred = hij_closed_form(cc, t, 4, 1)
    assert pred.flags["hom_ii_nonzero"]
    assert pred.shape is Shape.SWING
    assert sorted(pred.vertices) == [2, 6, 8, 20, 21, 22, 23]
    assert pred.vertices == hij(cc, t, 4, 1).vertices


def test_diagonal_hammocks_are_points(category):
    """H(i,i) is the single vertex T_i[1]: End rings are one dimensional."""
    for family, rank in (("A", 4), ("D", 4)):
        cc = category(family, rank)
        for t in enumerate_tiltings(cc)[:12]:
            for i in range(1, rank + 1):
                h = hij(cc, t, i, i)
                assert h.vertices == {shifted_summand(cc, t, i)}
                assert h.shape is Shape.SECTIONAL_PATH


def test_rim_property(category):
    """Nonempty H(i,j) puts T_j[1] on the rim H_i minus supp Ext1(T_i[1],-)."""
    cc = category("D", 4)
    for t in enumerate_tiltings(cc)[:15]:
        for i in range(1, 5):
            a = shifted_summand(cc, t, i)
            li = left_hammock(cc, t, i).vertices
            rim_excluded = {x for x in cc.cids() if cc.ext1_c(a, x) > 0}
            for j in range(1, 5):
                if hij(cc, t, i, j).vertices:
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
            assert g.src == shifted_summand(cc, t, i) and g.tgt == m
            assert h.src == m and h.tgt == shifted_summand(cc, t, j)
            assert not cc.compose(g, h).is_zero()
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
    for m in sorted(A3_CYCLIC_INFINITE):
        pairs = hij_membership(cc, t, m)
        assert pairs
        for i, j in pairs:
            assert m in hij(cc, t, i, j).vertices


def test_a3_cyclic_hammocks(category):
    cc = category("A", 3)
    for summands in A3_CYCLIC:
        t = TiltingObject(summands)
        report = verify_main_theorem(cc, t)
        assert report.agreement
        assert report.infinite_cids() == A3_CYCLIC_INFINITE
        assert infinite_pd_set(cc, t) == A3_CYCLIC_INFINITE
        shifted = shifted_set(cc, t)
        off_diag = {}
        for i in range(1, 4):
            for j in range(1, 4):
                h = hij(cc, t, i, j)
                if i != j and h.vertices:
                    assert h.shape is Shape.SECTIONAL_PATH
                    assert len(h.vertices) == 3
                    assert len(h.vertices - shifted) == 1
                    off_diag[(i, j)] = h.vertices
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
                assert hij(cc, t, i, j).vertices - shifted <= infinite


def test_hereditary_tiltings_have_no_infinite(category):
    for family, rank in (("A", 4), ("D", 4)):
        cc = category(family, rank)
        t = initial_tilting(cc)
        report = verify_main_theorem(cc, t)
        assert report.agreement
        assert report.counts[PdClass.INFINITE] == 0
        assert infinite_pd_set(cc, t) == frozenset()


def brute_force_membership(cc, t, m):
    """(i, j) with some nonzero T_i[1] -> m -> T_j[1], over every basis pair."""
    shifts = [shifted_summand(cc, t, k) for k in range(1, len(t) + 1)]
    pairs = []
    for i, a in enumerate(shifts, 1):
        for j, b in enumerate(shifts, 1):
            if any(not cc.compose(g, h).is_zero()
                   for g in cc.hom_basis(a, m) for h in cc.hom_basis(m, b)):
                pairs.append((i, j))
    return pairs


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 4), ("D", 5)])
def test_membership_equals_unpruned_search(category, family, rank):
    """Pruned witness search = composing every basis pair of every (i, j)."""
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        shifted = shifted_set(cc, t)
        for m in cc.cids():
            if m not in shifted:
                assert hij_membership(cc, t, m) == \
                    brute_force_membership(cc, t, m), (t.summands, m)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_module_actions_equal_direct_composition(category, family, rank):
    """Every action matrix of module_of, zero Hom(T_i, M) included."""
    cc = category(family, rank)
    for t in enumerate_tiltings(cc):
        alg = build_algebra(cc, t)
        shifted = shifted_set(cc, t)
        for m in cc.cids():
            if m in shifted:
                continue
            bases = {i: cc.hom_basis(alg.summand[i], m) for i in alg.labels}
            got = module_of(alg, m).act
            assert set(got) == {(i, j, b) for (i, j), hs in alg.hom.items()
                                for b in range(len(hs))}
            for (i, j, b), mat in got.items():
                f = alg.hom[(i, j)][b]
                cols = [alg.coords(cc.compose(f, g)) for g in bases[j]]
                direct = tuple(tuple(col[r] for col in cols)
                               for r in range(len(bases[i])))
                assert mat == direct, (t.summands, m, (i, j, b))


def first_composing_pair(cc, t, m):
    """(i, j, g, h): the first nonzero T_i[1] -> m -> T_j[1] in basis order."""
    shifts = [shifted_summand(cc, t, k) for k in range(1, len(t) + 1)]
    for i, a in enumerate(shifts, 1):
        for j, b in enumerate(shifts, 1):
            for g in cc.hom_basis(a, m):
                for h in cc.hom_basis(m, b):
                    if not cc.compose(g, h).is_zero():
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
