import random
from fractions import Fraction

import pytest

from clustercat.cluster import MeshConsistencyError
from clustercat.meshhom import HomElement
from clustercat.polygon import diagonal_of, ext_dim_by_crossing

ALL_RANKS = [("A", 2), ("A", 3), ("A", 4), ("A", 5),
             ("D", 4), ("D", 5), ("D", 6)]


def cid_by_dim(cc, dims):
    dims = tuple(dims)
    hits = [x.cid for x in cc.indecs if x.kind == "mod" and x.dim == dims]
    assert len(hits) == 1, f"dim vector {dims} should name a unique module"
    return hits[0]


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_indecomposable_counts(category, family, rank):
    cc = category(family, rank)
    expected = rank * (rank + 3) // 2 if family == "A" else rank * rank
    assert len(cc.indecs) == expected
    assert sum(1 for x in cc.indecs if x.kind == "shift") == rank


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_tau_total_permutation(category, family, rank):
    cc = category(family, rank)
    assert sorted(cc.tau) == sorted(cc.tau.values()) == list(cc.cids())
    for c in cc.cids():
        assert cc.tau_inv[cc.tau[c]] == c


def test_a2_is_a_five_cycle(category):
    cc = category("A", 2)
    start = cid_by_dim(cc, (1, 1))  # P_1
    seen = [start]
    cur = cc.tau[start]
    while cur != start:
        seen.append(cur)
        cur = cc.tau[cur]
    assert len(seen) == 5
    # each vertex has exactly one incoming and one outgoing arrow
    for c in cc.cids():
        assert len(cc.succ[c]) == 1 and len(cc.pred[c]) == 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_shift_sends_projectives_to_shifted_copies(category, family, rank):
    cc = category(family, rank)
    for v in cc.quiver.vertices:
        p = cc.module_cid(cc.mod.proj_mid[v])
        [shifted] = [x.cid for x in cc.indecs
                     if x.kind == "shift" and x.vertex == v]
        assert cc.shift(p) == shifted
        assert cc.tau[shifted] == cc.module_cid(cc.mod.inj_mid[v])


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_mesh_property_everywhere(category, family, rank):
    cc = category(family, rank)
    for z in cc.cids():
        assert set(cc.pred[z]) == set(cc.succ[cc.tau[z]])
        assert len(set(cc.succ[z])) == len(cc.succ[z])


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_winding_constant(category, family, rank):
    cc = category(family, rank)
    expected = rank + 3 if family == "A" else 2 * rank
    assert cc.winding == expected


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_height_offsets_are_integral(category, family, rank):
    # the category raises on an inconsistent offset while it is built
    cc = category(family, rank)
    H = cc.winding
    for x, y in cc.arrows():
        assert (cc.height[y] + cc.arrow_offsets[(x, y)] * H
                == cc.height[x] + 1)
    for x in cc.cids():
        assert (cc.height[x] - cc.tau_offsets[x] * H
                == cc.height[cc.tau[x]] + 2)


def test_a2_hom_table(category):
    cc = category("A", 2)
    for x in cc.cids():
        nonzero = {y for y in cc.cids() if cc.hom_dim_c(x, y)}
        assert nonzero == {x} | set(cc.succ[x])
        for y in nonzero:
            assert cc.hom_dim_c(x, y) == 1


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_every_indecomposable_is_rigid(category, family, rank):
    cc = category(family, rank)
    for x in cc.cids():
        assert cc.ext1_c(x, x) == 0
        assert cc.hom_dim_c(x, x) == 1


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_ext_symmetry(category, family, rank):
    cc = category(family, rank)
    for x in cc.cids():
        for y in cc.cids():
            assert cc.ext1_c(x, y) == cc.ext1_c(y, x)


@pytest.mark.parametrize("family,rank", ALL_RANKS)
def test_hom_dimension_bounds(category, family, rank):
    cc = category(family, rank)
    top = max(cc.hom_dim_c(x, y) for x in cc.cids() for y in cc.cids())
    if family == "A":
        assert top == 1
    else:
        assert top <= 2


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 4), ("D", 4)])
def test_mesh_basis_matches_additive_counts(category, family, rank):
    cc = category(family, rank)
    for x in cc.cids():
        for y in cc.cids():
            basis = cc.hom_basis(x, y)  # internal cardinality assert
            assert len(basis) == cc.hom_dim_c(x, y)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_identity_laws(category, family, rank):
    cc = category(family, rank)
    for x in cc.cids():
        idx = cc.identity_element(x)
        assert cc.compose(idx, idx) == idx
        for y in cc.cids():
            idy = cc.identity_element(y)
            for f in cc.hom_basis(x, y):
                assert cc.compose(idx, f) == f
                assert cc.compose(f, idy) == f


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_mesh_relations_hold(category, family, rank):
    cc = category(family, rank)
    for z in cc.cids():
        w = cc.tau[z]
        total = HomElement(cc, w, z, {})
        for e in cc.succ[w]:
            total = total + cc.compose(cc.arrow_element(w, e),
                                       cc.arrow_element(e, z))
        assert total.is_zero(), f"mesh relation fails at {cc.indecs[z]}"


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_arrow_elements_are_nonzero(category, family, rank):
    cc = category(family, rank)
    for x, y in cc.arrows():
        assert not cc.arrow_element(x, y).is_zero()


def test_nonzero_length_two_composite(category):
    cc = category("A", 3)
    p3 = cid_by_dim(cc, (0, 0, 1))
    p2 = cid_by_dim(cc, (0, 1, 1))
    p1 = cid_by_dim(cc, (1, 1, 1))
    f = cc.compose(cc.arrow_element(p3, p2), cc.arrow_element(p2, p1))
    assert not f.is_zero()
    assert cc.hom_dim_c(p3, p1) == 1


def test_compose_is_bilinear(category):
    cc = category("D", 4)
    rng = random.Random(7)
    pairs = [(x, y, z) for x in cc.cids() for y in cc.cids() for z in cc.cids()
             if cc.hom_dim_c(x, y) and cc.hom_dim_c(y, z)]
    for x, y, z in rng.sample(pairs, 40):
        fs = cc.hom_basis(x, y)
        gs = cc.hom_basis(y, z)
        f1, f2 = fs[0], fs[-1]
        g = gs[0]
        lhs = cc.compose(f1.scale(Fraction(2)) + f2.scale(Fraction(-3)), g)
        rhs = (cc.compose(f1, g).scale(Fraction(2))
               + cc.compose(f2, g).scale(Fraction(-3)))
        assert lhs == rhs
        h = gs[-1]
        lhs2 = cc.compose(f1, g.scale(Fraction(5)) + h)
        rhs2 = cc.compose(f1, g).scale(Fraction(5)) + cc.compose(f1, h)
        assert lhs2 == rhs2


@pytest.mark.parametrize("family,rank,samples", [("A", 3, None), ("D", 4, 250)])
def test_compose_is_associative(category, family, rank, samples):
    cc = category(family, rank)
    triples = [(x, y, z, w)
               for x in cc.cids() for y in cc.cids()
               for z in cc.cids() for w in cc.cids()
               if cc.hom_dim_c(x, y) and cc.hom_dim_c(y, z)
               and cc.hom_dim_c(z, w)]
    if samples is not None:
        triples = random.Random(11).sample(triples, min(samples, len(triples)))
    for x, y, z, w in triples:
        f = cc.hom_basis(x, y)[-1]
        g = cc.hom_basis(y, z)[-1]
        h = cc.hom_basis(z, w)[-1]
        assert cc.compose(cc.compose(f, g), h) == cc.compose(f, cc.compose(g, h))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_crossing_number_oracle(category, rank):
    cc = category("A", rank)
    diags = {diagonal_of(cc, c) for c in cc.cids()}
    assert len(diags) == len(cc.indecs)
    for x in cc.cids():
        for y in cc.cids():
            assert cc.ext1_c(x, y) == ext_dim_by_crossing(cc, x, y), \
                (cc.indecs[x], cc.indecs[y])


def test_hom_multiset_is_orientation_invariant(category):
    for variants in ([("A", 3, "default"), ("A", 3, ((2, 1), (2, 3))),
                      ("A", 3, ((1, 2), (3, 2)))],
                     [("D", 4, "default"), ("D", 4, ((3, 1), (3, 2), (3, 4)))]):
        tables = []
        for family, rank, orientation in variants:
            cc = category(family, rank, orientation)
            tables.append(sorted(cc.hom_dim_c(x, y)
                                 for x in cc.cids() for y in cc.cids()))
        assert all(t == tables[0] for t in tables)


def test_zero_and_scaling_normal_forms(category):
    cc = category("A", 3)
    x = 0
    y = cc.succ[x][0]
    f = cc.arrow_element(x, y)
    assert (f - f).is_zero()
    assert f.scale(0).is_zero()
    assert f.scale(Fraction(1, 2)).scale(2) == f
    assert HomElement(cc, x, y, {}) == f - f


@pytest.mark.parametrize("family,rank",
                         [("A", 4), ("A", 8), ("D", 4), ("D", 6), ("D", 8)])
def test_cover_actions_are_integral_units(category, family, rank):
    cc = category(family, rank)
    eng = cc._get_engine()
    for x in cc.cids():
        for mat in eng.functor(x).act.values():
            for row in mat:
                assert all(type(a) is int and a in (-1, 0, 1) for a in row)


def _full_window_size(cc, x):
    """Cover vertices in the 4h + 2 window above x, as knitted with no early stop."""
    top = cc.height[x] + 4 * cc.quiver.coxeter_number() + 2
    count = 0
    for c in cc.cids():
        hb = cc.height[c]
        kmin = -((hb - cc.height[x]) // cc.winding)
        count += max(0, (top - hb) // cc.winding - kmin + 1)
    return count


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 5), ("D", 6)])
def test_early_stop_keeps_hom_bases(category, family, rank):
    cc = category(family, rank)
    eng = cc._get_engine()
    for x in cc.cids():
        assert len(eng.functor(x).basis) < _full_window_size(cc, x)
        for y in cc.cids():
            assert len(cc.hom_basis(x, y)) == cc.hom_dim_c(x, y)
