"""End-to-end acceptance checks for the whole engine.

Every assertion is exact (integer or set equality, zero tolerance).  Each
test below is one acceptance item and prints one pass/fail line under
pytest -v.  Expected values were frozen from independent derivations:
brute-force linear algebra for Hom spaces, the polygon crossing model for
type A Ext, clique enumeration for tilting counts, and hand-checked runs
for the D6 cycle-quiver example.
"""

import itertools

import pytest

from clustercat import presets
from clustercat.algebra import (
    PdClass,
    build_algebra,
    module_of,
    pd_class,
)
from clustercat.dynkin import build_quiver, knit
from clustercat.hammocks import (
    Shape,
    hij,
    hij_closed_form,
    left_hammock,
    right_hammock,
    verify_main_theorem,
)
from clustercat.polygon import ext_dim_by_crossing
from clustercat.reps import brute_force_hom_dim, indecomposable_rep
from clustercat.tilting import (
    TiltingObject,
    enumerate_tiltings,
    sample_tiltings,
)

# exhaustive mutation classes small enough to sweep completely
EXHAUSTIVE = (("A", 2, 5), ("A", 3, 14), ("A", 4, 42), ("D", 4, 50),
              ("D", 5, 182))
# D6 is sampled; 200 distinct tiltings out of 672
D6_SAMPLE = 200


def _tilting_corpus(category):
    for family, rank, count in EXHAUSTIVE:
        cc = category(family, rank)
        ts = enumerate_tiltings(cc)
        assert len(ts) == count
        yield cc, ts
    cc = category("D", 6)
    ts = sample_tiltings(cc, D6_SAMPLE, seed=0)
    assert len(set(t.summands for t in ts)) >= D6_SAMPLE
    yield cc, ts[:D6_SAMPLE]


@pytest.fixture(scope="module")
def corpus_reports(category):
    """One verification per tilting of the corpus, shared by tests 1, 3, 7."""
    return [(cc, [verify_main_theorem(cc, t) for t in tiltings])
            for cc, tiltings in _tilting_corpus(category)]


def test_1_factorization_ideal_iff_infinite_projective_dimension(
        corpus_reports):
    """I_M != 0 exactly on the pd-infinity modules, across 493 tiltings."""
    checked = 0
    for cc, reports in corpus_reports:
        shifted_count = cc.n
        for report in reports:
            assert report.agreement, (cc.quiver, report.tilting.summands)
            assert len(report.rows) == len(cc.indecs) - shifted_count
            checked += 1
    assert checked == sum(c for _f, _r, c in EXHAUSTIVE) + D6_SAMPLE


def test_2_d6_cycle_quiver_worked_example(category):
    """The frozen D6 tilting: quiver, relations, and hammock pairs."""
    cc = category("D", 6)
    hits = presets.find_cycle_tiltings(cc)
    assert len(hits) == presets.CYCLE_D6_HIT_COUNT
    t = min(hits, key=lambda h: h.summands)
    assert t.summands == presets.CYCLE_D6_SUMMANDS

    alg = build_algebra(cc, t)
    assert alg.dim == presets.CYCLE_D6_DIM
    assert {(i, j) for i, j, _m in alg.gabriel_arrows()} == \
        presets.CYCLE_D6_ARROWS
    singles = {(i, j): reps[0]
               for (i, j), reps in alg.arrow_representatives().items()}
    s = alg.summand

    def composite(first, second):
        # path i -> j -> k is the morphism T_k -> T_j -> T_i
        (i, j), (_j, k) = first, second
        return cc.compose(s[k], s[j], s[i], singles[second], singles[first])

    for first, second in presets.CYCLE_D6_DEAD:
        assert not any(composite(first, second))
    for first, second in presets.CYCLE_D6_ALIVE:
        assert any(composite(first, second))

    shifted = {cc.shift(s) for s in t.summands}
    interiors = {}
    for i, j in itertools.product(range(1, 7), repeat=2):
        h = hij(cc, t, i, j)
        extra = h - shifted
        if extra:
            interiors[(i, j)] = (extra, h & shifted)
    a_of = {k: cc.shift(t.summands[k - 1]) for k in range(1, 7)}
    primitive = {
        p for p, (_extra, ends) in interiors.items()
        if ends == {a_of[p[0]], a_of[p[1]]}
    }
    assert primitive == presets.CYCLE_D6_PRIMITIVE_PAIRS
    assert set(interiors) - primitive == presets.CYCLE_D6_EXTENDED_PAIRS
    for p in primitive:
        assert interiors[p][0] == presets.CYCLE_D6_PAIR_EXTRAS[p]
    primitive_union = frozenset().union(
        *(interiors[p][0] for p in primitive))
    full_union = frozenset().union(*(e for e, _ends in interiors.values()))
    assert primitive_union == full_union == \
        frozenset(presets.CYCLE_D6_INFINITE)
    report = verify_main_theorem(cc, t)
    assert frozenset().union(*report.hij.values()) - shifted == \
        report.infinite_cids() == full_union
    for cid, dims in presets.CYCLE_D6_INFINITE.items():
        mod = module_of(alg, cid)
        assert tuple(mod.dims[k] for k in range(1, 7)) == dims
        assert pd_class(mod) is PdClass.INFINITE


def test_3_projective_dimension_two_never_occurs(corpus_reports):
    """No non-projective first syzygy ever has a projective second one."""
    seen = set()
    for cc, reports in corpus_reports:
        for report in reports:
            for m, (_dims, (s1, s2, s3), pd) in report.modules.items():
                seen.add(pd)
                if not any(s1) or not any(s2):
                    continue
                assert any(s3), (cc.quiver, report.tilting.summands, m)
    assert seen == {PdClass.ZERO, PdClass.ONE, PdClass.INFINITE}


def test_4_hammock_shapes_match_closed_forms(category):
    """Exact pairing sets vs the sectional/swing/intersection predictions."""
    # type A: nonempty H(i,j) is the unique sectional path and H_i cap _jH
    for rank, _count in ((2, 5), (3, 14), (4, 42)):
        cc = category("A", rank)
        for t in enumerate_tiltings(cc):
            for i, j in itertools.product(range(1, rank + 1), repeat=2):
                h = hij(cc, t, i, j)
                pred = hij_closed_form(cc, t, i, j)
                assert h == pred.vertices
                if not h:
                    assert pred.shape is Shape.EMPTY
                    continue
                assert pred.shape is Shape.SECTIONAL_PATH
                assert h == left_hammock(cc, t, i) & right_hammock(cc, t, j)

    # type D: sectional, swing, or boundary intersection; swings can be
    # strictly smaller than the hammock intersection
    d4_census = {Shape.SECTIONAL_PATH: 0, Shape.EMPTY: 0, Shape.SWING: 0,
                 Shape.FULL_INTERSECTION: 0}
    strict_swings = 0
    d_corpus = [("D", 4, None), ("D", 5, 30), ("D", 6, 20)]
    for family, rank, samples in d_corpus:
        cc = category(family, rank)
        if samples is None:
            tiltings = enumerate_tiltings(cc)
        else:
            tiltings = sample_tiltings(cc, samples, seed=3)[:samples]
        extra = TiltingObject((30, 1, 29, 3, 4, 5))
        if rank == 6 and extra not in tiltings:
            tiltings = list(tiltings) + [extra]
        for t in tiltings:
            for i, j in itertools.product(range(1, rank + 1), repeat=2):
                h = hij(cc, t, i, j)
                pred = hij_closed_form(cc, t, i, j)
                assert h == pred.vertices
                if rank == 4:
                    d4_census[pred.shape] += 1
                if not h:
                    continue
                inter = left_hammock(cc, t, i) & right_hammock(cc, t, j)
                # the pairing set always sits inside the hammock overlap;
                # only the boundary configuration fills it completely
                assert h <= inter
                if pred.shape is Shape.SWING:
                    strict_swings += h < inter
                elif pred.shape is Shape.FULL_INTERSECTION:
                    assert h == inter
    assert d4_census == {Shape.SECTIONAL_PATH: 416, Shape.EMPTY: 336,
                         Shape.SWING: 48, Shape.FULL_INTERSECTION: 0}

    # frozen strict witness: the swing omits vertex 13 of the intersection
    cc = category("D", 6)
    t = TiltingObject((30, 1, 29, 3, 4, 5))
    h = hij(cc, t, 3, 2)
    inter = left_hammock(cc, t, 3) & right_hammock(cc, t, 2)
    assert hij_closed_form(cc, t, 3, 2).shape is Shape.SWING
    assert inter - h == {13}
    assert strict_swings >= 1


def test_5_hom_oracles_agree(category):
    """Mesh Hom spaces vs brute-force intertwiners and polygon crossings."""
    diagrams = (("A", 2), ("A", 3), ("A", 4), ("A", 5),
                ("D", 4), ("D", 5), ("D", 6))
    for family, rank in diagrams:
        q = build_quiver(family, rank)
        ar = knit(q)
        reps = {m.mid: indecomposable_rep(q, m.dim) for m in ar.indecs}
        cc = category(family, rank)
        cid = cc.module_cid
        for x in ar.indecs:
            for y in ar.indecs:
                # Hom_D(X, Y), the part of F-degree 0 of Hom_C(X, Y)
                part = cc.hom_parts_c(cid(x.mid), cid(y.mid))[0]
                assert ar.hom_dim(x.mid, y.mid) == part == \
                    brute_force_hom_dim(reps[x.mid], reps[y.mid])
        for x in cc.cids():
            for y in cc.cids():
                assert len(cc.hom_basis(x, y)) == cc.hom_dim_c(x, y) == \
                    sum(cc.hom_parts_c(x, y))
    for rank in (2, 3, 4, 5):
        cc = category("A", rank)
        for x in cc.cids():
            for y in cc.cids():
                assert cc.ext1_c(x, y) == ext_dim_by_crossing(cc, x, y)


def test_6_structural_counts_and_symmetries(category):
    """Object counts, tilting counts, 2-CY symmetry, orientation freedom."""
    for rank in range(2, 8):
        cc = category("A", rank)
        assert len(cc.indecs) == rank * (rank + 3) // 2
    for rank in range(4, 8):
        cc = category("D", rank)
        assert len(cc.indecs) == rank * rank

    for family, rank, count in (("A", 2, 5), ("A", 3, 14), ("A", 4, 42),
                                ("D", 4, 50), ("D", 5, 182), ("D", 6, 672)):
        assert len(enumerate_tiltings(category(family, rank))) == count

    for family, rank in (("A", 3), ("A", 4), ("D", 4), ("D", 5)):
        cc = category(family, rank)
        for x in cc.cids():
            for y in cc.cids():
                assert cc.ext1_c(x, y) == cc.ext1_c(y, x)

    pairs = (
        ("A", 3, ("default", ((2, 1), (2, 3)))),
        ("A", 4, ("default", ((2, 1), (2, 3), (4, 3)))),
        ("D", 4, ("default", ((3, 1), (3, 2), (4, 3)))),
        ("D", 5, ("default", "fork")),
    )
    for family, rank, orientations in pairs:
        multisets = []
        for ori in orientations:
            cc = category(family, rank, ori)
            multisets.append(sorted(
                cc.hom_dim_c(x, y)
                for x in cc.cids() for y in cc.cids()
            ))
        assert multisets[0] == multisets[1], (family, rank)


def test_7_hereditary_tiltings_have_no_infinite_class(corpus_reports):
    """Acyclic Gabriel quiver forces every pd into {0, 1}."""
    acyclic_seen = {}
    for cc, reports in corpus_reports:
        key = (cc.quiver.family, cc.quiver.rank)
        acyclic_seen[key] = 0
        for report in reports:
            t = report.tilting
            if not build_algebra(cc, t).gabriel_quiver_is_acyclic():
                continue
            acyclic_seen[key] += 1
            for m, (_dims, _syzygies, pd) in report.modules.items():
                assert pd is not PdClass.INFINITE, (cc.quiver, t.summands, m)
    assert all(v >= 1 for v in acyclic_seen.values()), acyclic_seen
