import random
import re
from fractions import Fraction
from operator import add

import pytest

from clustercat.cluster import ClusterCategory, MeshConsistencyError, Table
from clustercat.dynkin import InputError, build_quiver
from clustercat.hammocks import sectional_path
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


# every rank up to 10, and the custom D7 and A7 of the closed-form pair test
ROWED = ([("A", rank, "default") for rank in range(2, 11)]
         + [("D", rank, "default") for rank in range(4, 11)]
         + [("D", 7, ((1, 3), (3, 2), (4, 3), (4, 5), (6, 5), (6, 7))),
            ("A", 7, ((2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7)))])
ROWED_IDS = [f"{f}{r}-" + (o if isinstance(o, str)
                           else ",".join(f"{s}{t}" for s, t in o))
             for f, r, o in ROWED]


@pytest.mark.parametrize("family,rank,orientation", ROWED, ids=ROWED_IDS)
def test_hom_row_is_the_sum_of_the_parts(category, family, rank, orientation):
    """The additive row of x, built in one pass, equals hom_parts_c pair by
    pair, and so does every entry of hom_dim_c's memo."""
    cc = category(family, rank, orientation)
    for x in cc.cids():
        row = cc.hom_row_c(x)
        assert len(row) == len(cc.indecs)
        for y in cc.cids():
            assert row[y] == sum(cc.hom_parts_c(x, y)), (x, y)
            assert cc.hom_dim_c(x, y) == row[y]


@pytest.mark.parametrize("family,rank,orientation", ROWED, ids=ROWED_IDS)
def test_two_calabi_yau_identities(category, family, rank, orientation):
    """Serre duality Hom(c, b) = D Hom(b, tau^2 c), which the hammock sweep
    and right_hammock read, and the symmetry of Ext^1, which completions
    reads."""
    cc = category(family, rank, orientation)
    tau = cc.tau
    for c in cc.cids():
        for b in cc.cids():
            assert cc.hom_dim_c(c, b) == cc.hom_dim_c(b, tau[tau[c]]), (c, b)
            assert cc.ext1_c(c, b) == cc.ext1_c(b, c), (c, b)


@pytest.mark.parametrize("family,rank,orientation", ROWED, ids=ROWED_IDS)
def test_compatible_masks_read_ext1(category, family, rank, orientation):
    """Bit y of compatible(x) is set exactly when Ext^1(x, y) = 0."""
    cc = category(family, rank, orientation)
    for x in cc.cids():
        mask = cc.compatible(x)
        assert mask >> len(cc.indecs) == 0
        for y in cc.cids():
            assert bool(mask >> y & 1) == (cc.ext1_c(x, y) == 0), (x, y)


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
        idx = cc.hom_basis(x, x)[0]
        assert cc.compose(x, x, x, idx, idx) == idx
        for y in cc.cids():
            idy = cc.hom_basis(y, y)[0]
            for f in cc.hom_basis(x, y):
                assert cc.compose(x, x, y, idx, f) == f
                assert cc.compose(x, y, y, f, idy) == f


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_mesh_relations_hold(category, family, rank):
    cc = category(family, rank)
    for z in cc.cids():
        w = cc.tau[z]
        total = [0] * cc.hom_dim_c(w, z)
        for e in cc.succ[w]:
            path = cc.compose(w, e, z, cc.arrow_element(w, e),
                              cc.arrow_element(e, z))
            total = list(map(add, total, path))
        assert not any(total), f"mesh relation fails at {cc.indecs[z]}"


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_arrow_elements_are_nonzero(category, family, rank):
    cc = category(family, rank)
    for x, y in cc.arrows():
        assert any(cc.arrow_element(x, y))


def test_nonzero_length_two_composite(category):
    cc = category("A", 3)
    p3 = cid_by_dim(cc, (0, 0, 1))
    p2 = cid_by_dim(cc, (0, 1, 1))
    p1 = cid_by_dim(cc, (1, 1, 1))
    f = cc.compose(p3, p2, p1, cc.arrow_element(p3, p2),
                   cc.arrow_element(p2, p1))
    assert any(f)
    assert cc.hom_dim_c(p3, p1) == 1


def lin(a, u, b, v):
    """a u + b v, for coordinate tuples u and v."""
    return tuple(a * s + b * t for s, t in zip(u, v))


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
        lhs = cc.compose(x, y, z, lin(Fraction(2), f1, Fraction(-3), f2), g)
        rhs = lin(Fraction(2), cc.compose(x, y, z, f1, g),
                  Fraction(-3), cc.compose(x, y, z, f2, g))
        assert lhs == rhs
        h = gs[-1]
        lhs2 = cc.compose(x, y, z, f1, lin(5, g, 1, h))
        rhs2 = lin(5, cc.compose(x, y, z, f1, g), 1, cc.compose(x, y, z, f1, h))
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
        assert cc.compose(x, z, w, cc.compose(x, y, z, f, g), h) == \
            cc.compose(x, y, w, f, cc.compose(y, z, w, g, h))


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


def _drop_a_successor(cc):
    c = next(c for c in cc.cids() if len(cc.succ[c]) > 1)
    cc.succ[c] = cc.succ[c][1:]


def _shift_an_offset(cc):
    arrow = next(iter(cc.arrow_offsets))
    cc.arrow_offsets[arrow] += 1


@pytest.mark.parametrize("stage,corrupt,message", [
    ("_build_arrows", _drop_a_successor, "tau does not carry the arrows"),
    ("_build_heights", _shift_an_offset, "tau moves the cover lift"),
], ids=["successors", "offset"])
def test_tau_must_be_a_quiver_automorphism(monkeypatch, stage, corrupt,
                                           message):
    """Relabelling F_x along tau needs both halves of the automorphism check."""
    build = getattr(ClusterCategory, stage)

    def corrupted(self):
        build(self)
        corrupt(self)

    monkeypatch.setattr(ClusterCategory, stage, corrupted)
    with pytest.raises(MeshConsistencyError, match=message):
        ClusterCategory(build_quiver("D", 5))


def test_table_fills_each_key_once_and_stores_no_raise():
    """A Table calls its fill once per key and hands back the stored entry;
    a fill that raises stores nothing and raises again on the next read;
    `in` and get() read without filling."""
    calls = []

    def fill(key):
        calls.append(key)
        if key < 0:
            raise MeshConsistencyError(f"no entry for {key}")
        return (key,)

    table = Table(fill)
    assert 1 not in table and table.get(1) is None and not calls
    first = table[1]
    assert first == (1,) and table[1] is first and calls == [1]
    for _ in range(2):
        with pytest.raises(MeshConsistencyError, match="no entry for -1"):
            table[-1]
        assert -1 not in table and table.get(-1) is None
    assert calls == [1, -1, -1] and dict(table) == {1: (1,)}


CID_CALLS = {
    "hom_basis": lambda cc, c: cc.hom_basis(c, 0),
    "hom_basis-target": lambda cc, c: cc.hom_basis(0, c),
    "ext1_c": lambda cc, c: cc.ext1_c(0, c),
    "shift": lambda cc, c: cc.shift(c),
    "hom_dim_c": lambda cc, c: cc.hom_dim_c(0, c),
    # the row of 1 is read first, so True finds a stored row
    "hom_row_c": lambda cc, c: (cc.hom_row_c(1), cc.hom_row_c(c)),
    "hom_parts_c": lambda cc, c: cc.hom_parts_c(c, 0),
    "hom_parts_c-target": lambda cc, c: cc.hom_parts_c(0, c),
    "compatible": lambda cc, c: cc.compatible(c),
    "compose": lambda cc, c: cc.compose(0, c, 1, (1,), (1,)),
    "arrow_element": lambda cc, c: cc.arrow_element(c, 1),
    "sectional_path": lambda cc, c: sectional_path(cc, 0, c),
}


@pytest.mark.parametrize("bad", [99, -1, 9, True, 1.0, None])
@pytest.mark.parametrize("call", CID_CALLS.values(), ids=CID_CALLS.keys())
def test_cid_arguments_are_cids_of_the_category(category, call, bad):
    """On A3 (cids 0..8) a cid past the category's, a negative one, a bool
    (an int, but no cid) or a non-int raises InputError naming it, where
    these calls raised KeyError or IndexError, answered for cid 1 or 8
    or found no sectional path.  No call stores a row under the bad cid:
    hom_dim_c raises for it afterwards too."""
    cc = category("A", 3)
    for read in (lambda: call(cc, bad), lambda: cc.hom_dim_c(bad, 0)):
        with pytest.raises(InputError, match=re.escape(
                f"no cid {bad!r} in this category")):
            read()
