"""The tables of the mesh engine against direct composition and reduction."""

import pytest

from clustercat import algebra
from clustercat.algebra import build_algebra
from clustercat.cluster import ClusterCategory, MeshConsistencyError, Table
from clustercat.dynkin import build_quiver
from clustercat.hammocks import sectional_path, verify_main_theorem
from clustercat.linalg import quotient_basis, unit_quotient_basis
from clustercat.meshhom import CoverFunctor
from clustercat.render import export_json
from clustercat.tilting import enumerate_tiltings, initial_tilting, mutate
from test_linalg import ref_nullspace

# the default orientation and one custom orientation per type
ORIENTED = [
    ("A", 4, "default"),
    ("A", 4, ((2, 1), (2, 3), (4, 3))),
    ("D", 4, "default"),
    ("D", 4, ((3, 1), (2, 3), (4, 3))),
    ("D", 5, "default"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5))),
]


def oriented_id(case):
    family, rank, orientation = case
    if isinstance(orientation, str):
        return f"{family}{rank}-{orientation}"
    return f"{family}{rank}-" + ",".join(f"{s}{t}" for s, t in orientation)


def direct_products(cc, x, y, z):
    """Per basis f of Hom(x, y), the matrix of g -> g . f built by compose,
    column-major: one column g . f per basis element g of Hom(y, z)."""
    targets = cc.hom_basis(y, z)
    return tuple(tuple(cc.compose(x, y, z, f, g) for g in targets)
                 for f in cc.hom_basis(x, y))


@pytest.mark.parametrize("family,rank,orientation", ORIENTED,
                         ids=[oriented_id(c) for c in ORIENTED])
def test_every_table_entry_equals_direct_composition(
        category, family, rank, orientation):
    """Every triple, those with a zero Hom space included."""
    cc = category(family, rank, orientation)
    eng = cc._get_engine()
    for x in cc.cids():
        for y in cc.cids():
            for z in cc.cids():
                assert eng.products(x, y, z) == direct_products(cc, x, y, z), \
                    (x, y, z)


@pytest.mark.parametrize("family,rank,orientation", ORIENTED,
                         ids=[oriented_id(c) for c in ORIENTED])
def test_projective_actions_equal_direct_composition(
        category, family, rank, orientation):
    """projective_module(k) acts on Hom(T, T_k) by precomposition."""
    cc = category(family, rank, orientation)
    for t in enumerate_tiltings(cc)[::7]:
        alg = build_algebra(cc, t)
        for k in alg.labels:
            p = alg.projective_module(k)
            assert p.dim_vector() == tuple(alg.hom_dim(i, k)
                                           for i in alg.labels)
            sk = alg.summand[k]
            for (i, j), mats in p.act.items():
                si, sj = alg.summand[i], alg.summand[j]
                assert len(mats) == alg.hom_dim(i, j)
                for b, mat in enumerate(mats):
                    f = cc.hom_basis(si, sj)[b]
                    cols = tuple(cc.compose(si, sj, sk, f, g)
                                 for g in cc.hom_basis(sj, sk))
                    assert mat == cols, (t.summands, k, (i, j, b))


def test_mesh_dimension_is_checked_against_the_additive_count(monkeypatch):
    """The mesh levels of F_x are checked against the additive row as a
    whole when F_x is built: a read of Hom(0, 0) fails on a wrong count of
    another pair of the row, the error names that pair, and no functor is
    stored."""
    cc = ClusterCategory(build_quiver("A", 3))
    y = next(y for y in cc.cids() if y and cc.hom_dim_c(0, y))
    row = list(cc.hom_row_c(0))
    row[y] += 1
    count = cc.hom_row_c
    monkeypatch.setattr(cc, "hom_row_c",
                        lambda x: tuple(row) if x == 0 else count(x))
    eng = cc._get_engine()
    with pytest.raises(MeshConsistencyError,
                       match=rf"Hom\(0,{y}\).*additive count"):
        eng.dim(0, 0)
    assert not eng._functors


def test_orbit_read_checks_the_additive_count(monkeypatch):
    """H(a, b) read from the representative of a still checks dim Hom(a, b)
    against the additive count, and stores nothing when they differ."""
    cc = ClusterCategory(build_quiver("A", 3))
    eng = cc._get_engine()
    a = next(x for x in cc.cids() if eng._orbit[x][1])
    b = next(y for y in cc.cids() if cc.hom_dim_c(a, y))
    count = cc.hom_dim_c
    monkeypatch.setattr(cc, "hom_dim_c",
                        lambda x, y: count(x, y) + ((x, y) == (a, b)))
    with pytest.raises(MeshConsistencyError, match="additive count"):
        eng.hammock(a, b)
    assert a * len(cc.indecs) + b not in eng._hammocks


@pytest.mark.parametrize("corrupt", [
    lambda lv: [(-1, 1)] + lv,   # a basis element below the seed
    lambda lv: [(0, 2)] + lv[1:],  # a second basis element at the seed
    lambda lv: [],               # End(x) = 0
], ids=["below-seed", "wide-seed", "empty"])
def test_identity_first_is_checked_when_a_functor_is_built(monkeypatch,
                                                           corrupt):
    cc = ClusterCategory(build_quiver("A", 3))
    init = CoverFunctor.__init__

    def corrupted(self, cc, src):
        init(self, cc, src)
        self.levels[src] = corrupt(self.levels[src])

    monkeypatch.setattr(CoverFunctor, "__init__", corrupted)
    eng = cc._get_engine()
    for x in cc.cids():
        with pytest.raises(MeshConsistencyError,
                           match="identity is not the first End basis"):
            eng.functor(x)
    assert not eng._functors


def test_coords_rejects_a_wrong_coordinate_count():
    """coords and both argument positions of compose check the length."""
    cc = ClusterCategory(build_quiver("A", 3))
    eng = cc._get_engine()
    x, y = next((x, y) for x in cc.cids() for y in cc.cids()
                if x != y and cc.hom_dim_c(x, y) == 1)
    f = cc.hom_basis(x, y)[0]
    assert eng.coords(x, y, f) == (1,)
    assert eng.coords(x, y, [1]) == (1,)
    idx, idy = cc.hom_basis(x, x)[0], cc.hom_basis(y, y)[0]
    assert cc.compose(x, x, y, idx, f) == cc.compose(x, y, y, f, idy) == f
    for bad in ((), (1, 0)):
        with pytest.raises(ValueError, match="coordinates for Hom"):
            eng.coords(x, y, bad)
        with pytest.raises(ValueError, match="coordinates for Hom"):
            cc.compose(x, x, y, idx, bad)
        with pytest.raises(ValueError, match="coordinates for Hom"):
            cc.compose(x, y, y, bad, idy)


# tau puts some mesh middles out of cid order in each, so a relabelled basis
# can differ from the knitted one
RELABELLED = [
    ("A", 5, "linear"),
    ("D", 5, "default"),
    ("D", 6, ((1, 3), (3, 2), (4, 3), (4, 5), (6, 5))),
    ("A", 6, ((2, 1), (2, 3), (4, 3), (4, 5), (6, 5))),
]
RELABELLED_IDS = [oriented_id(c) for c in RELABELLED]


def orbit_minima(cc):
    """The smallest cid of every tau-orbit."""
    seen, out = set(), []
    for c in cc.cids():
        if c not in seen:
            out.append(c)
            while c not in seen:
                seen.add(c)
                c = cc.tau[c]
    return out


@pytest.mark.parametrize("family,rank,orientation", RELABELLED,
                         ids=RELABELLED_IDS)
def test_relabelled_functors_have_the_knitted_levels(
        category, family, rank, orientation):
    cc = category(family, rank, orientation)
    eng = cc._get_engine()
    differ = 0
    for x in cc.cids():
        knitted = CoverFunctor(cc, x)
        assert eng.functor(x).levels == knitted.levels, x
        differ += eng.functor(x).basis != knitted.basis
    assert differ  # some path records follow the representative's middles


@pytest.mark.parametrize("family,rank,orientation", RELABELLED,
                         ids=RELABELLED_IDS)
def test_knitting_runs_once_per_tau_orbit(monkeypatch, family, rank,
                                          orientation):
    cc = ClusterCategory(build_quiver(family, rank, orientation))
    knitted = []
    init = CoverFunctor.__init__

    def counting(self, cc, src):
        knitted.append(src)
        init(self, cc, src)

    monkeypatch.setattr(CoverFunctor, "__init__", counting)
    eng = cc._get_engine()
    for x in reversed(cc.cids()):
        eng.functor(x)
    assert sorted(knitted) == orbit_minima(cc)


# every tilting of D6 and A6 takes seconds, so those two run with the sweeps
SWEPT_ABOVE_5 = [pytest.param(*case, marks=pytest.mark.sweep)
                 if case[1] > 5 else case for case in RELABELLED]


def knitted_category(family, rank, orientation):
    """A fresh category whose engine holds a knitted F_x for every x, so
    that its functor(x) reads no representative."""
    direct = ClusterCategory(build_quiver(family, rank, orientation))
    direct._get_engine()._functors.update(
        (x, CoverFunctor(direct, x)) for x in direct.cids())
    return direct


def arrow_paths(cc, x, length):
    """Every arrow path of at most length arrows out of x, as cid lists."""
    paths, last = [], [[x]]
    for _ in range(length):
        last = [p + [w] for p in last for w in cc.succ[p[-1]]]
        paths.extend(last)
    return paths


@pytest.mark.parametrize("family,rank,orientation", SWEPT_ABOVE_5,
                         ids=RELABELLED_IDS)
def test_orbit_reads_equal_a_direct_sweep(family, rank, orientation):
    """H(a, b) read from the tau-orbit representative of a is the sweep of
    a knitted F_a, in the same iteration order, for every pair (a, b); a
    sectional path composes to nonzero on the knitted F_x, and every arrow
    path of up to four arrows is zero on the representative exactly when
    it is zero on the knitted F_x; no other functor is built."""
    cc = ClusterCategory(build_quiver(family, rank, orientation))
    eng = cc._get_engine()
    direct = knitted_category(family, rank, orientation)
    oracle = direct._get_engine()
    for a in cc.cids():
        for b in cc.cids():
            want = oracle._sweep(a, b)
            assert eng.hammock(a, b) == want, (a, b)
            assert list(eng.hammock(a, b)) == list(want), (a, b)
    for x in cc.cids():
        fx = oracle.functor(x)
        for y in cc.cids():
            path = sectional_path(cc, x, y)
            if path is not None:
                assert fx.apply_path(zip(path, path[1:]), x, 0, (1,)), (x, y)
        for path in arrow_paths(cc, x, 4):
            assert eng.nonzero_path(path) == (
                fx.apply_path(zip(path, path[1:]), x, 0, (1,)) is not None
            ), path
    assert set(eng._functors) <= {eng._orbit[x][0] for x in cc.cids()}


@pytest.mark.parametrize("family,rank,orientation", SWEPT_ABOVE_5,
                         ids=RELABELLED_IDS)
def test_relabelled_bases_give_the_knitted_reports(
        category, family, rank, orientation):
    """verify_main_theorem on every tilting, against every F_x knitted.

    Only the product rows read the knitted functors of the second
    category: its hammocks are read from tau-orbit representatives as on
    the first, which test_orbit_reads_equal_a_direct_sweep checks against
    the sweep of each knitted F_a."""
    cc = category(family, rank, orientation)
    direct = knitted_category(family, rank, orientation)
    tiltings = enumerate_tiltings(cc)
    assert [t.summands for t in tiltings] == \
        [t.summands for t in enumerate_tiltings(direct)]
    for t in tiltings:
        got = verify_main_theorem(cc, t)
        want = verify_main_theorem(direct, t)
        assert (got.rows, got.modules, got.hij) == \
            (want.rows, want.modules, want.hij), t.summands


def arrow_inside_support(f):
    """(c, w, k, kw): a cover arrow (c, k) -> (w, kw) of the functor f with
    both ends nonzero, the last arrow of some basis record at (w, kw)."""
    for (w, kw), recs in f.basis.items():
        for rec in recs:
            if rec:
                c = rec[-1][0]
                k = kw - f.arrow_offsets[(c, w)]
                if f.basis.get((c, k)):
                    return c, w, k, kw
    raise AssertionError("no arrow between two nonzero vertices")


SMALL = [("A", 4, "default"), ("D", 4, ((3, 1), (2, 3), (4, 3)))]


@pytest.mark.parametrize("family,rank,orientation", SMALL,
                         ids=[oriented_id(c) for c in SMALL])
@pytest.mark.parametrize("part", ["act", "basis"])
def test_hammock_sweep_rejects_a_corrupted_functor(family, rank, orientation,
                                                   part):
    """An arrow matrix or a basis lift of F_a deleted after the knit."""
    cc = ClusterCategory(build_quiver(family, rank, orientation))
    eng = cc._get_engine()
    a = next(x for x in cc.cids() if len(eng.functor(x).basis) > 2)
    fa = eng.functor(a)
    c, w, k, kw = arrow_inside_support(fa)
    if part == "act":
        del fa.act[(c, w, k)]
    else:
        del fa.basis[(w, kw)]
    with pytest.raises(MeshConsistencyError, match="knitted vertices"):
        eng.hammock(a, w)


@pytest.mark.parametrize("family,rank,orientation", SMALL,
                         ids=[oriented_id(c) for c in SMALL])
@pytest.mark.parametrize("part", ["act", "basis"])
def test_product_rows_reject_a_corrupted_functor(family, rank, orientation,
                                                 part):
    """products(y, y, y) walks the records of F_y with F_y's own matrices,
    so every image is a basis vector; one matrix or lift deleted fails."""
    cc = ClusterCategory(build_quiver(family, rank, orientation))
    eng = cc._get_engine()
    y = next(x for x in cc.cids() if len(eng.functor(x).basis) > 2)
    fy = eng.functor(y)
    c, w, k, kw = arrow_inside_support(fy)
    if part == "act":
        del fy.act[(c, w, k)]
        match = "escaped the cover window"
    else:
        del fy.basis[(c, k) if (c, k) != (y, 0) else (w, kw)]
        match = "lost track|do not match its levels"
    with pytest.raises(MeshConsistencyError, match=match):
        eng.products(y, y, y)
    with pytest.raises(MeshConsistencyError, match=match):
        eng.product_rows([(x, y) for x in cc.cids()])
    if part == "basis":  # the step list of F_y raises: no row is stored
        n = len(cc.indecs)
        assert not [key for key in eng._rows if key % n == y]


@pytest.mark.parametrize("family,rank,orientation", ORIENTED,
                         ids=[oriented_id(c) for c in ORIENTED])
def test_rows_filled_in_one_batch_equal_rows_filled_one_at_a_time(
        family, rank, orientation):
    """On fresh categories: every row (x, y) filled in one batch equals the
    row filled alone, entry for entry and in the same order, and a second
    batch reads the stored rows."""
    # the categories stay referenced beside their engines
    categories = [ClusterCategory(build_quiver(family, rank, orientation))
                  for _ in range(2)]
    batch, alone = (cc._get_engine() for cc in categories)
    cids = categories[0].cids()
    pairs = [(x, y) for x in cids for y in cids]
    rows = batch.product_rows(pairs)
    for (x, y), row in zip(pairs, rows):
        assert list(row.items()) == \
            list(alone.product_rows([(x, y)])[0].items())
    for first, again in zip(rows, batch.product_rows(pairs)):
        assert again is first or again == first == {}
    assert batch._rows == alone._rows


A10_CUSTOM = ((2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7), (8, 7), (8, 9),
              (10, 9))


@pytest.mark.parametrize("family,rank,orientation,word,report", [
    ("D", 8, "default", (3, 5, 4, 6, 2, 3, 7, 5), verify_main_theorem),
    ("D", 8, "default", (3, 5, 4, 6, 2, 3, 7, 5), export_json),
    ("A", 10, A10_CUSTOM, (2, 3, 5, 4, 7, 6, 9, 8, 3), verify_main_theorem),
], ids=["D8-default", "D8-default-export",
        "A10-2-1,2-3,4-3,4-5,6-5,6-7,8-7,8-9,10-9"])
def test_cold_verify_builds_only_the_functors_it_reads(family, rank,
                                                       orientation, word,
                                                       report):
    """A fresh category's verify or export knits Hom(x, -) for x in add T
    and for tau-orbit representatives only: H(i, j) and the sectional
    paths of the closed forms are read on the representative of their
    source, and no product is stored with its source in add T[1]."""
    cc = ClusterCategory(build_quiver(family, rank, orientation))
    t = initial_tilting(cc)
    for k in word:
        t = mutate(cc, t, k)
    if report is verify_main_theorem:
        got = verify_main_theorem(cc, t)
        assert got.agreement and got.infinite_cids()
    else:
        assert '"agreement": true' in export_json(cc, t)
    eng = cc._get_engine()
    shifted = {cc.shift(s) for s in t.summands}
    # a summand and its shift lie in one tau-orbit; the closed forms' swing
    # routes also read sectional paths out of wide-mesh middles
    sources = t.summands if report is verify_main_theorem else cc.cids()
    allowed = set(t.summands) | {eng._orbit[x][0] for x in sources}
    assert set(eng._functors) <= allowed
    n = len(cc.indecs)
    assert eng._rows  # keyed x * n + y, one row of products per (x, y)
    assert not {key // n for key in eng._rows} & shifted


def unit_pivots(rows):
    """Whether the row reduction of rows meets only pivots +-1."""
    try:
        unit_quotient_basis(rows, len(rows[0]))
    except MeshConsistencyError:
        return False
    return True


def all_ints(quotient):
    return all(type(x) is int for row in quotient[1] for x in row)


def test_engine_quotients_equal_the_unit_reduction():
    """Integer matrices up to 4 x 5 with entries -1..1 and only unit
    pivots: a cold read of the engine's table and the warm one after it
    give the unit reduction and the Fraction-only null space, in ints."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrices = st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-1, 1)] * n), min_size=1, max_size=4,
    ).map(tuple)).filter(unit_pivots)
    eng = ClusterCategory(build_quiver("A", 3))._get_engine()

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(rows=matrices)
    def check(rows):
        n = len(rows[0])
        eng._quotients.pop((rows, n), None)
        want = unit_quotient_basis(rows, n)
        cold = eng._quotients[rows, n]
        assert cold == want and all_ints(cold)
        assert eng._quotients[rows, n] is cold  # warm: the stored entry
        assert list(cold[1]) == ref_nullspace(rows)

    check()


def test_a_pivot_other_than_one_raises_and_is_not_stored():
    eng = ClusterCategory(build_quiver("A", 3))._get_engine()
    for rows in (((2, 1, 0),), ((1, 1, 0), (1, -1, 1))):
        with pytest.raises(MeshConsistencyError, match="pivot -?2"):
            eng._quotients[rows, 3]
        assert (rows, 3) not in eng._quotients


@pytest.fixture(scope="module")
def d5_sweep():
    """Every D5 tilting verified on a freshly built category: the
    category, the reports and copies of its tables of quotients, of kernel
    blocks, of written blocks, of moving flags and of cover kernels."""
    cc = ClusterCategory(build_quiver("D", 5))
    reports = [verify_main_theorem(cc, t) for t in enumerate_tiltings(cc)]
    flags, blocks, written, kernels = map(dict, algebra._TABLES[cc])
    return (cc, reports, dict(cc._get_engine()._quotients), blocks, written,
            flags, kernels)


def test_every_quotient_after_a_d5_sweep_is_exact(d5_sweep):
    """Each entry is keyed by integer row tuples and holds the uncached
    rational reduction of its key, in ints.  Each written block is the one
    a fresh _written_block builds from those reductions, each moving
    flag says whether a matrix of its block past the identity (on a
    diagonal pair) has a nonzero entry, by a fresh scan of its key, and
    each cover kernel, keyed by the cover's columns, is the uncached
    reduction of their transpose."""
    _cc, _reports, table, _blocks, written, flags, kernels = d5_sweep
    assert table and written and flags and kernels
    for (cols, n), got in kernels.items():
        assert type(cols) is tuple
        assert all(type(col) is tuple for col in cols)
        rows = tuple(zip(*cols))
        assert got == quotient_basis(rows, n) and all_ints(got), (cols, n)
    for (mats, diagonal), moves in flags.items():
        assert moves is any(x for mat in mats[1 if diagonal else 0:]
                            for col in mat for x in col), (mats, diagonal)
    for (rows, n), got in table.items():
        assert type(rows) is tuple
        assert all(type(row) is tuple and len(row) == n for row in rows)
        assert all(type(x) is int for row in rows for x in row)
        assert got == quotient_basis(rows, n) and all_ints(got), (rows, n)
    reference = Table(lambda key: quotient_basis(*key))
    for key, got in written.items():
        assert got == algebra._written_block(reference, *key), key


def test_a_second_d5_sweep_adds_no_quotient(d5_sweep):
    """The first pass saturates the tables of quotients, of kernel blocks,
    of written blocks, of moving flags and of cover kernels: the second
    sends only queries they have seen, and the reports are the same."""
    cc, reports, table, blocks, written, flags, kernels = d5_sweep
    again = [verify_main_theorem(cc, t) for t in enumerate_tiltings(cc)]
    assert cc._get_engine()._quotients == table
    assert algebra._TABLES[cc][0] == flags
    assert algebra._TABLES[cc][1] == blocks
    assert algebra._TABLES[cc][2] == written
    assert algebra._TABLES[cc][3] == kernels
    assert again == reports


def test_a_second_category_starts_with_no_quotients(d5_sweep):
    """The tables of quotients and of kernel blocks belong to their
    category: a new one starts empty, fills its own, and leaves the first
    category's as they were."""
    cc, reports, table, blocks, _written, _flags, _kernels = d5_sweep
    other = ClusterCategory(build_quiver("D", 5))
    eng = other._get_engine()
    assert eng._quotients == {} and other not in algebra._TABLES
    first = enumerate_tiltings(other)[0]
    assert verify_main_theorem(other, first) == reports[0]
    assert eng._quotients and eng._quotients.keys() <= table.keys()
    assert algebra._TABLES[other][1].items() <= blocks.items()
    assert cc._get_engine()._quotients == table
    assert algebra._TABLES[cc][1] == blocks
