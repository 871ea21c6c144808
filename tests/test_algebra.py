import gc
import hashlib
import random
import re
import weakref
from fractions import Fraction

import pytest

from clustercat import algebra, linalg
from clustercat.algebra import (AlgebraModule, PdClass, build_algebra,
                                classify_modules, module_of, pd_class)
from clustercat.cluster import ClusterCategory, MeshConsistencyError
from clustercat.dynkin import InputError, build_quiver
from clustercat.hammocks import (classify_by_location, sectional_path,
                                 verify_main_theorem)
from clustercat.render import export_json
from clustercat.tilting import (TiltingObject, enumerate_tiltings,
                                initial_tilting, mutate)


def hereditary_algebra(category, family, rank):
    cc = category(family, rank)
    return cc, build_algebra(cc, initial_tilting(cc))


def radical_power_dim(alg, m):
    return sum(linalg.rank(vs) for vs in alg.radical_power_spans(m).values())


def mult_table(alg, i, j, k):
    """coords of hom[i,j][a] . hom[j,k][b] in the (i,k) basis, as [a][b]:
    the product table's columns."""
    return [list(mat) for mat in alg.products(i, j, k)]


def cyclic_a3_algebra(category):
    cc = category("A", 3)
    for t in enumerate_tiltings(cc):
        alg = build_algebra(cc, t)
        if not alg.gabriel_quiver_is_acyclic():
            return cc, alg
    raise AssertionError("A3 should have a cyclic cluster-tilted algebra")


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_initial_algebra_is_the_path_algebra(category, family, rank):
    cc, alg = hereditary_algebra(category, family, rank)
    # dim kQ = number of paths = sum over i,j of (dim P_j)_i
    paths = sum(cc.mod.dim(cc.mod.proj_mid[j])[i - 1]
                for i in cc.quiver.vertices for j in cc.quiver.vertices)
    assert alg.dim == paths
    arrows = {(i, j) for i, j, m in alg.gabriel_arrows()}
    mults = [m for _, _, m in alg.gabriel_arrows()]
    assert arrows == set(cc.quiver.arrows)
    assert all(m == 1 for m in mults)
    assert alg.gabriel_quiver_is_acyclic()


def test_cyclic_a3_quiver_and_radical(category):
    cc, alg = cyclic_a3_algebra(category)
    arrows = {(i, j) for i, j, _ in alg.gabriel_arrows()}
    # one oriented 3-cycle, in one of its two labellings
    assert arrows in ({(1, 2), (2, 3), (3, 1)}, {(1, 3), (3, 2), (2, 1)})
    assert alg.dim == 6
    assert radical_power_dim(alg, 1) == 3
    assert radical_power_dim(alg, 2) == 0


@pytest.mark.parametrize("maker", ["hereditary_d4", "cyclic_a3"])
def test_multiplication_is_associative(category, maker):
    if maker == "hereditary_d4":
        _, alg = hereditary_algebra(category, "D", 4)
    else:
        _, alg = cyclic_a3_algebra(category)
    labels = alg.labels
    for i in labels:
        for j in labels:
            for k in labels:
                for l in labels:
                    na, nb, nc = (alg.hom_dim(i, j), alg.hom_dim(j, k),
                                  alg.hom_dim(k, l))
                    if not (na and nb and nc):
                        continue
                    tab_ij_k = mult_table(alg, i, j, k)
                    tab_ik_l = mult_table(alg, i, k, l)
                    tab_jk_l = mult_table(alg, j, k, l)
                    tab_ij_l = mult_table(alg, i, j, l)
                    for a in range(na):
                        for b in range(nb):
                            ab = tab_ij_k[a][b]
                            for c in range(nc):
                                bc = tab_jk_l[b][c]
                                lhs = [sum(ab[t] * tab_ik_l[t][c][s]
                                           for t in range(alg.hom_dim(i, k)))
                                       for s in range(alg.hom_dim(i, l))]
                                rhs = [sum(tab_ij_l[a][t][s] * bc[t]
                                           for t in range(alg.hom_dim(j, l)))
                                       for s in range(alg.hom_dim(i, l))]
                                assert lhs == rhs


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_radical_powers_descend_to_zero(category, family, rank):
    cc = category(family, rank)
    for t in enumerate_tiltings(cc)[:6]:
        alg = build_algebra(cc, t)
        dims = [radical_power_dim(alg, m) for m in range(1, 8)]
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == 0  # nilpotent


def test_module_of_rejects_exactly_the_shifted_summands(category):
    cc = category("D", 4)
    for t in enumerate_tiltings(cc)[:8]:
        alg = build_algebra(cc, t)
        shifted = {cc.shift(c) for c in t.summands}
        for c in cc.cids():
            if c in shifted:
                with pytest.raises(ValueError):
                    module_of(alg, c)
            else:
                assert not module_of(alg, c).is_zero()


def test_summands_become_the_projective_modules(category):
    cc = category("D", 4)
    t = enumerate_tiltings(cc)[7]
    alg = build_algebra(cc, t)
    for label in alg.labels:
        m = module_of(alg, alg.summand[label])
        p = alg.projective_module(label)
        assert m.dim_vector() == p.dim_vector()
        assert m.syzygy().is_zero()
        assert pd_class(m) is PdClass.ZERO
        assert p.syzygy().is_zero()


def test_hereditary_modules_have_pd_at_most_one(category):
    for family, rank in [("A", 3), ("A", 4), ("D", 4)]:
        cc, alg = hereditary_algebra(category, family, rank)
        shifted = {cc.shift(c) for c in alg.tilting.summands}
        for c in cc.cids():
            if c in shifted:
                continue
            assert pd_class(module_of(alg, c)) in (PdClass.ZERO, PdClass.ONE)


def test_cyclic_a3_modules_are_projective_or_infinite(category):
    # rad^2 = 0 and the quiver is a cycle, so the algebra is self-injective
    cc, alg = cyclic_a3_algebra(category)
    shifted = {cc.shift(c) for c in alg.tilting.summands}
    classes = []
    for c in cc.cids():
        if c in shifted:
            continue
        classes.append(pd_class(module_of(alg, c)))
    assert classes.count(PdClass.ZERO) == 3
    assert classes.count(PdClass.INFINITE) == 3
    assert PdClass.ONE not in classes


def test_module_dimensions_are_hom_dimensions(category):
    cc = category("A", 4)
    t = enumerate_tiltings(cc)[11]
    alg = build_algebra(cc, t)
    for c in cc.cids():
        dims = tuple(cc.hom_dim_c(alg.summand[i], c) for i in alg.labels)
        if not any(dims):
            continue
        assert module_of(alg, c).dim_vector() == dims


def test_identity_multiplication(category):
    _, alg = hereditary_algebra(category, "A", 3)
    for i in alg.labels:
        for j in alg.labels:
            tab = mult_table(alg, i, i, j)
            for b in range(alg.hom_dim(i, j)):
                unit = tuple(Fraction(int(t == b))
                             for t in range(alg.hom_dim(i, j)))
                assert tab[0][b] == unit  # e_i . f = f
            tab2 = mult_table(alg, i, j, j)
            for a in range(alg.hom_dim(i, j)):
                unit = tuple(Fraction(int(t == a))
                             for t in range(alg.hom_dim(i, j)))
                assert tab2[a][0] == unit  # f . e_j = f


def test_arrow_representatives_match_multiplicities(category):
    for maker in ("her", "cyc"):
        if maker == "her":
            _, alg = hereditary_algebra(category, "D", 4)
        else:
            _, alg = cyclic_a3_algebra(category)
        reps = alg.arrow_representatives()
        for i, j, mult in alg.gabriel_arrows():
            assert len(reps[(i, j)]) == mult
            for r in reps[(i, j)]:
                assert len(r) == alg.hom_dim(j, i) and any(r)


def test_pd_classes_stable_under_seeded_resampling(category):
    cc = category("D", 4)
    rng = random.Random(5)
    ts = enumerate_tiltings(cc)
    for t in rng.sample(ts, 6):
        alg = build_algebra(cc, t)
        shifted = {cc.shift(c) for c in t.summands}
        first = {c: pd_class(module_of(alg, c))
                 for c in cc.cids() if c not in shifted}
        # a fresh algebra, so the second pass recomputes every syzygy
        again_alg = build_algebra(cc, t)
        again = {c: pd_class(module_of(again_alg, c))
                 for c in cc.cids() if c not in shifted}
        assert first == again


def corrupted_a4_module(category, key, mat):
    """Hom(T, M) with dim vector (1, 1, 1, 0) over hereditary A4, one action replaced."""
    cc, alg = hereditary_algebra(category, "A", 4)
    shifted = {cc.shift(c) for c in alg.tilting.summands}
    mod = next(m for m in (module_of(alg, c) for c in cc.cids()
                           if c not in shifted)
               if m.dim_vector() == (1, 1, 1, 0))
    assert mod.syzygy().dim_vector() == (0, 0, 0, 1)
    i, j, b = key
    act = dict(mod.act)
    act[(i, j)] = act[(i, j)][:b] + (mat,) + act[(i, j)][b + 1:]
    return AlgebraModule(alg, mod.dims, act)


def test_syzygy_rejects_a_kernel_that_is_not_a_submodule(category):
    # the arrow 1 -> 2 acting by zero breaks (3,1) = (3,2)(2,1): the cover
    # is still onto, but its kernel is not closed under the action
    bad = corrupted_a4_module(category, (2, 1, 0), ((0,),))
    with pytest.raises(MeshConsistencyError, match="left the kernel"):
        bad.syzygy()
    # a failure is not memoized: the second call runs the guard again
    with pytest.raises(MeshConsistencyError, match="left the kernel"):
        bad.syzygy()


def corrupt_table(monkeypatch, cc, triple, corrupt):
    """Make cc's product table hold corrupt(entry) for one triple (x, y, z),
    entry z of the row of (x, y), which products and module_of both read.

    cc must be built for the test: the patch sits on its engine's row.
    """
    x, y, z = triple
    row = cc._get_engine().product_rows([(x, y)])[0]
    monkeypatch.setitem(row, z, corrupt(row[z]))


def test_projective_with_a_corrupted_identity_block_is_rejected(monkeypatch):
    """Syzygies write identity blocks; projective_module checks them."""
    cc = ClusterCategory(build_quiver("D", 4))
    alg = build_algebra(cc, TiltingObject((0, 1, 3, 8)))
    s = alg.summand
    pairs = [(i, k) for i in alg.labels for k in alg.labels
             if alg.hom_dim(i, k)]
    for i, k in pairs:
        corrupt_table(monkeypatch, cc, (s[i], s[i], s[k]), lambda got: (
            tuple(tuple(0 for _ in row) for row in got[0]),) + got[1:])
        with pytest.raises(MeshConsistencyError,
                           match=f"identity of End\\(T_{i}\\)"):
            alg.projective_module(k)
        monkeypatch.undo()
    # a failure is not memoized, and the clean table passes the check
    assert [alg.projective_module(k).dims[i] for i, k in pairs] == \
        [alg.hom_dim(i, k) for i, k in pairs]


def test_syzygy_checks_the_image_where_the_kernel_is_zero(monkeypatch):
    """A pair with a zero kernel at its source label stores no block, yet
    its image must still vanish.

    Over this D4 tilting, M = cid 2 has top P_3 and Omega(M) is zero at
    label 3 and one-dimensional at label 4, so basis element 0 of pair
    (3, 4) acts by zero on P_3.  A table entry that makes it act by 1 sends the kernel at 4
    out of the zero kernel at 3.
    """
    cc = ClusterCategory(build_quiver("D", 4))
    t = TiltingObject((0, 1, 3, 8))
    clean = module_of(build_algebra(cc, t), 2).syzygy()
    assert clean.dim_vector() == (0, 0, 0, 1)
    assert clean.act == {(4, 4): (((1,),),)}
    alg = build_algebra(cc, t)
    mod = module_of(alg, 2)
    assert [k for k, _f in mod.top_lifts()] == [3]
    s = alg.summand
    assert alg.products(3, 4, 3) == (((0,),),)
    corrupt_table(monkeypatch, cc, (s[3], s[4], s[3]),
                  lambda _got: (((1,),),))
    with pytest.raises(MeshConsistencyError, match="left the kernel"):
        mod.syzygy()


def test_a_stored_kernel_block_never_masks_a_fault(monkeypatch):
    """The fault of test_syzygy_checks_the_image_where_the_kernel_is_zero,
    injected through the row table after every D4 tilting has filled the
    category's tables, still raises, and the input that raised leaves no
    entry in the table of kernel blocks."""
    cc = ClusterCategory(build_quiver("D", 4))
    for t in enumerate_tiltings(cc):
        assert verify_main_theorem(cc, t).agreement
    blocks = algebra._TABLES[cc][0]
    assert blocks
    alg = build_algebra(cc, TiltingObject((0, 1, 3, 8)))
    mod = module_of(alg, 2)
    raised = []
    build = algebra._block_on_kernel

    def recorded(quotient, *key):
        try:
            return build(quotient, *key)
        except MeshConsistencyError:
            raised.append(key)
            raise

    monkeypatch.setattr(algebra, "_block_on_kernel", recorded)
    s = alg.summand
    corrupt_table(monkeypatch, cc, (s[3], s[4], s[3]),
                  lambda _got: (((1,),),))
    with pytest.raises(MeshConsistencyError, match="left the kernel"):
        mod.syzygy()
    assert len(raised) == 1 and raised[0] not in blocks


def test_syzygy_rejects_a_nonzero_module_with_zero_top():
    # labels 3 and 4 of this D4 tilting carry arrows both ways; acting by
    # 1 on both puts all of V in V.rad, which no module can do
    cc = ClusterCategory(build_quiver("D", 4))
    alg = build_algebra(cc, TiltingObject((0, 1, 3, 8)))
    one = (((1,),),)
    bad = AlgebraModule(alg, {1: 0, 2: 0, 3: 1, 4: 1},
                        {pair: one for pair in ((3, 3), (3, 4),
                                                (4, 3), (4, 4))})
    with pytest.raises(MeshConsistencyError, match="zero top"):
        bad.syzygy()


def test_syzygy_rejects_a_pivot_other_than_one():
    """Every row reduction of the syzygy route accepts only pivots +-1.

    Over the D4 tilting (0, 1, 2, 3), M = cid 9 has dimension vector
    (1, 1, 1, 0) and the one basis element of pair (3, 1) acts by -1.
    Acting by 2 instead puts a pivot 2 into the reduction at label 3; it
    raises rather than giving a syzygy with Fraction entries.
    """
    cc = ClusterCategory(build_quiver("D", 4))
    alg = build_algebra(cc, TiltingObject((0, 1, 2, 3)))
    mod = module_of(alg, 9)
    assert mod.dim_vector() == (1, 1, 1, 0)
    assert mod.act[(3, 1)] == (((-1,),),)
    bad = AlgebraModule(alg, mod.dims, {**mod.act, (3, 1): (((2,),),)})
    with pytest.raises(MeshConsistencyError, match="pivot 2"):
        bad.syzygy()
    assert mod.syzygy().act[(4, 3)][0] == ((1, 1),)


def test_chain_rejects_projective_dimension_two(category, monkeypatch):
    """A zero third syzygy after a nonzero second one is pd 2."""
    cc, alg = hereditary_algebra(category, "A", 3)
    zero = AlgebraModule(alg, {i: 0 for i in alg.labels}, {})
    mod = alg.projective_module(1)
    depth = iter((mod, mod, zero))
    monkeypatch.setattr(AlgebraModule, "syzygy", lambda _self: next(depth))
    with pytest.raises(MeshConsistencyError, match="trichotomy"):
        pd_class(mod)


def test_syzygy_rejects_a_cover_that_misses_a_direction(category):
    # the unit of label 1 acting by zero: the top lifts at 1, but no element
    # of the projective cover reaches it
    bad = corrupted_a4_module(category, (1, 1, 0), ((0,),))
    with pytest.raises(MeshConsistencyError, match="not surjective"):
        bad.syzygy()


# the default orientation and one custom orientation per type
ORIENTED = [
    ("A", 4, "default"),
    ("A", 4, ((2, 1), (2, 3), (4, 3))),
    ("D", 4, "default"),
    ("D", 4, ((3, 1), (2, 3), (4, 3))),
    ("D", 5, "default"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5))),
]


def syzygy_chain(mod, memo=True):
    """The module and its syzygies 1..3; memo=False computes every step."""
    chain = [mod]
    for _ in range(3):
        chain.append(chain[-1].syzygy() if memo else chain[-1]._syzygy())
    return chain


def chain_summary(chain):
    """(dim vector, syzygy dim vectors, pd), the layout of report.modules."""
    dims = [m.dim_vector() for m in chain]
    zero = [not any(d) for d in dims[1:]]
    assert zero[1] or not zero[2], "projective dimension 2"
    pd = (PdClass.ZERO if zero[0] else PdClass.ONE if zero[1]
          else PdClass.INFINITE)
    return dims[0], tuple(dims[1:]), pd


@pytest.mark.parametrize("family,rank,orientation", ORIENTED, ids=[
    f"{f}{r}-" + (o if isinstance(o, str) else ",".join(f"{s}{t}" for s, t in o))
    for f, r, o in ORIENTED])
def test_syzygy_memo_is_exact(category, family, rank, orientation):
    """Chains that share one memo equal chains that never read a memo.

    The memo-free chain calls _syzygy at every step, on an algebra over a
    fresh category per tilting, whose tables of kernel blocks and
    quotients hold that tilting's entries only.  The report's modules
    agree in dims and pd; an algebra over the shared category, whose
    tables every tilting before has filled, gives the same dims and action
    matrices at every step as well, so a stale or mis-keyed table entry
    fails here.
    """
    cc = category(family, rank, orientation)
    for t in enumerate_tiltings(cc):
        report = verify_main_theorem(cc, t)
        shared = build_algebra(cc, t)
        fresh = build_algebra(
            ClusterCategory(build_quiver(family, rank, orientation)), t)
        for m in report.modules:
            alone = syzygy_chain(module_of(fresh, m), memo=False)
            assert report.modules[m] == chain_summary(alone), (t.summands, m)
            assert [(s.dims, s.act) for s in
                    syzygy_chain(module_of(shared, m))] == \
                [(s.dims, s.act) for s in alone], (t.summands, m)


@pytest.mark.parametrize("family,rank,runs", [("D", 5, 4203), ("A", 5, 2197)])
def test_exhaustive_verify_runs_each_syzygy_once_per_content(
        category, family, rank, runs, monkeypatch):
    """An exhaustive verify runs _syzygy a fixed number of times.

    The memo is per algebra and keyed by content, so the count is the
    number of distinct (tilting, module content) pairs met on the way.  A
    key that stops merging equal contents raises it; a key that merges
    unequal ones lowers it.
    """
    cc = category(family, rank)
    count = 0
    run = AlgebraModule._syzygy

    def counted(self):
        nonlocal count
        count += 1
        return run(self)

    monkeypatch.setattr(AlgebraModule, "_syzygy", counted)
    for t in enumerate_tiltings(cc):
        verify_main_theorem(cc, t)
    assert count == runs


def test_classify_frees_its_algebra_without_the_cycle_collector(
        category, monkeypatch):
    """Reading the last class frees the algebra and its syzygy memo.

    Modules refer to their algebra and the algebra keeps its projectives
    and syzygies; classify_modules empties those tables, so reference
    counting frees all of it with the cyclic collector switched off.
    """
    cc = category("D", 5)
    t = enumerate_tiltings(cc)[3]
    refs = []

    def build(cc, t):
        alg = build_algebra(cc, t)
        refs.append(weakref.ref(alg))
        return alg

    monkeypatch.setattr(algebra, "build_algebra", build)
    gc.disable()
    try:
        classes = list(classify_modules(cc, t))
        assert classes and refs[0]() is None
    finally:
        gc.enable()


def test_gabriel_and_sectional_searches_leave_no_cyclic_garbage(category):
    """The Gabriel cycle check, the sectional-path search and the arrow
    representatives build no reference cycle.

    Each is called once to warm what it reads; then, with the cyclic
    collector switched off, a collection after each call finds nothing to
    free.  A nested function that calls itself would leave a cycle behind.
    """
    cc, alg = cyclic_a3_algebra(category)
    x, y = 0, cc.succ[0][0]
    calls = (alg.gabriel_quiver_is_acyclic, lambda: sectional_path(cc, x, y),
             alg.arrow_representatives)
    for call in calls:
        call()
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()


def test_content_equal_module_gets_the_same_syzygy(category):
    cc = category("D", 4)
    for t in enumerate_tiltings(cc)[:10]:
        alg = build_algebra(cc, t)
        shifted = {cc.shift(c) for c in t.summands}
        for c in cc.cids():
            if c not in shifted:
                m = module_of(alg, c)
                copy = AlgebraModule(alg, m.dims, dict(m.act))
                assert copy.syzygy() is m.syzygy()
                # the memo reads the blocks in label pair order, whatever
                # order the dict was filled in
                turned = AlgebraModule(alg, m.dims,
                                       dict(reversed(m.act.items())))
                assert turned.syzygy() is m.syzygy()


def test_entry_points_leave_no_cyclic_garbage(category):
    """The public entry points free what they build by reference counting.

    On a D5 category warmed by one call of each, with the cyclic collector
    switched off, a collection after each call finds nothing to free; so
    does building and dropping a category that never builds its mesh
    engine.  Two cycles are left, and no call here makes one:
    - a category whose engine was built: the engine and every cover
      functor refer back to it.  Breaking that cycle moves the
      benchmark's full collections into a timed set-up, so it waits on a
      change to the benchmark;
    - an algebra whose projectives or syzygies a caller read directly:
      each module refers to its algebra, which keeps it.  A memo of
      records in place of modules read a warm D7 verify 8-13% slower.
    """
    cc = category("D", 5)
    t = enumerate_tiltings(cc)[3]
    calls = {
        "enumerate_tiltings": lambda: enumerate_tiltings(cc),
        "verify_main_theorem": lambda: verify_main_theorem(cc, t),
        "export_json": lambda: export_json(cc, t),
        "classify_by_location": lambda: classify_by_location(cc, t),
        "classify_modules": lambda: classify_modules(cc, t),
        "mutate": lambda: mutate(cc, t, 2),
        "gabriel_quiver_is_acyclic":
            lambda: build_algebra(cc, t).gabriel_quiver_is_acyclic(),
        "a category without its engine":
            lambda: ClusterCategory(build_quiver("D", 5)),
    }
    for call in calls.values():
        call()
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_module_of_takes_only_a_cid_of_the_category(category):
    """On A3 with the tilting (0, 1, 3), cid -1 would read the last entry of
    every row and build a record with no block for the live pair (3, 3),
    which pd_class would report as a failed internal check."""
    cc = category("A", 3)
    alg = build_algebra(cc, TiltingObject((0, 1, 3)))
    for bad in (-1, len(cc.indecs), 1.0, True, None):
        with pytest.raises(InputError, match=re.escape(
                f"no cid {bad!r} in this category")):
            module_of(alg, bad)
    assert module_of(alg, len(cc.indecs) - 1).dim_vector() == (0, 0, 1)


def test_constructor_checks_the_live_pairs_and_orders_the_blocks():
    """AlgebraModule(alg, dims, act) takes a non-negative int dimension at
    every label and at nothing else, a block of the right shape for every
    live pair and for no other, made of tuples of ints, and keeps the
    blocks in label-pair order; a bad input raises ValueError naming the
    label or the pair.

    Over the D4 tilting (0, 1, 2, 3), M = cid 9 has dimension vector
    (1, 1, 1, 0): (1, 1) is live, (4, 1) is not (nothing at label 4) and
    neither is (1, 2) (Hom(T_1, T_2) = 0).
    """
    cc = ClusterCategory(build_quiver("D", 4))
    alg = build_algebra(cc, TiltingObject((0, 1, 2, 3)))
    mod = module_of(alg, 9)
    assert mod.dim_vector() == (1, 1, 1, 0)
    missing = {pair: mats for pair, mats in mod.act.items() if pair != (1, 1)}
    with pytest.raises(ValueError, match=re.escape("live pair (1, 1)")):
        AlgebraModule(alg, mod.dims, missing)
    for pair in ((4, 1), (1, 2)):
        with pytest.raises(ValueError,
                           match=re.escape(f"pair {pair}, which is not live")):
            AlgebraModule(alg, mod.dims, {**mod.act, pair: (((0,),),)})
    turned = AlgebraModule(alg, mod.dims, dict(reversed(mod.act.items())))
    assert list(turned.act) == sorted(mod.act) == list(mod.act)
    assert turned.act == mod.act and turned.dims == mod.dims
    # dims gives a non-negative int at every label and at nothing else
    dims = dict(mod.dims)
    for label, bad in ((2, None), (4, -1), (4, 0.0), (4, True), (4, "0")):
        wrong = {k: v for k, v in dims.items() if k != label}
        if bad is not None:
            wrong[label] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"no non-negative int dimension at label {label}")):
            AlgebraModule(alg, wrong, mod.act)
    for extra in (0, 5):
        with pytest.raises(ValueError, match=re.escape(
                f"a dimension at {extra}, which is not a label")):
            AlgebraModule(alg, {**dims, extra: 0}, mod.act)
    # a negative vector would reach the syzygy as a module with no top
    with pytest.raises(ValueError, match="label 1"):
        AlgebraModule(alg, {1: -1, 2: 0, 3: 0, 4: 0}, {})
    # each block has dim Hom(T_i, T_j) matrices of dims[j] columns of
    # length dims[i]: here one matrix of one column of length one
    for bad in ((), (((1,),), ((0,),)), (((1, 0),),), (((1,), (0,)),)):
        with pytest.raises(ValueError, match=re.escape(
                "the block of the pair (3, 1) is not 1 matrices of 1 "
                "columns of length 1")):
            AlgebraModule(alg, dims, {**mod.act, (3, 1): bad})
    # and it is a tuple of tuples of tuples of ints, no bool; unchecked,
    # each of these would raise a bare TypeError here, or fail later in
    # pd_class with MeshConsistencyError or TypeError
    for bad in (((1,),), "x", (((1.5,),),), (((True,),),), [[[1]]],
                ([[1]],), (([1],),)):
        with pytest.raises(ValueError, match=re.escape(
                "the block of the pair (1, 1) is not 1 matrices of 1 "
                "columns of length 1, tuples of ints")):
            AlgebraModule(alg, dims, {**mod.act, (1, 1): bad})


def live_pairs(alg, dv):
    """The label-ordered pairs (i, j) with Hom(T_i, T_j), dv[i - 1] and
    dv[j - 1] all nonzero."""
    return [(i, j) for i in alg.labels for j in alg.labels
            if alg.hom_dim(i, j) and dv[i - 1] and dv[j - 1]]


@pytest.mark.parametrize("family,rank,orientation", [
    ("A", 5, "default"), ("D", 5, "default"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5)))],
    ids=["A5", "D5", "D5-31,32,43,45"])
def test_modules_hold_exactly_their_live_pairs(
        category, family, rank, orientation):
    """module_of and every syzygy along each chain store a block for
    exactly the live pairs of their dimension vector, in label-pair order."""
    cc = category(family, rank, orientation)
    for t in enumerate_tiltings(cc):
        alg = build_algebra(cc, t)
        shifted = {cc.shift(c) for c in t.summands}
        for m in cc.cids():
            if m not in shifted:
                for mod in syzygy_chain(module_of(alg, m)):
                    assert list(mod.act) == live_pairs(
                        alg, mod.dim_vector()), (t.summands, m)


def row_scan_record(alg, m):
    """Hom_C(T, M) read by scanning every product row of the tilting for
    M: the dimension vector and the (pair, block) items, in label-pair
    order."""
    return (tuple(row[m] for row in alg._dim_rows),
            [(pair, row[m]) for pair, row in alg._rows.items() if m in row])


def per_lift_tops(mod):
    """top_lifts by its definition, one lift at a time: the free columns
    of an uncached quotient of V_k by the span of the columns of every
    radical basis element's matrix on a block of a pair (k, j)."""
    lifts = []
    for k, d in zip(mod.alg.labels, mod.dim_vector()):
        if d:
            span = [col for (i, j), mats in mod.act.items() if i == k
                    for mat in mats[1 if i == j else 0:] for col in mat]
            lifts += [(k, f) for f in linalg.quotient_basis(span, d)[0]]
    return lifts


@pytest.mark.parametrize("family,rank,orientation", [
    ("A", 5, "default"), ("D", 5, "default"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5)))],
    ids=["A5", "D5", "D5-31,32,43,45"])
def test_indexed_module_of_and_tops_equal_their_definitions(
        category, family, rank, orientation):
    """module_of, which reads the rows that hold M from an index filled in
    one pass, gives the record of a scan of every row: the dimension
    vector, the very blocks the rows hold, in label-pair order.  The cids
    are read in reverse, so no order of first use is assumed.  top_lifts,
    derived from the tops by label, equals the per-lift definition on
    every module and syzygy of each chain."""
    cc = category(family, rank, orientation)
    for t in enumerate_tiltings(cc):
        alg = build_algebra(cc, t)
        shifted = {cc.shift(c) for c in t.summands}
        for m in reversed(cc.cids()):
            if m in shifted:
                continue
            mod = module_of(alg, m)
            dv, items = row_scan_record(alg, m)
            assert (mod.dim_vector(), list(mod.act.items())) == (dv, items)
            assert all(mod.act[pair] is blk for pair, blk in items)
            for each in syzygy_chain(mod):
                assert each.top_lifts() == per_lift_tops(each), \
                    (t.summands, m)


# sha256 of the repr of every tilting's summands with its modules (cid,
# dimension vector, syzygy dimension vectors, pd class), over every tilting
# in enumeration order.  Syzygy dimension vectors do not depend on the
# choice of kernel basis, so these hold whatever bases the route picks.
RESULT_DIGESTS = [
    ("D", 5, "default",
     "1fc14dda11846d2fd21f0eec1f28e9a0bbca40bf7248486b4d65cb939f29600a"),
    ("A", 6, "default",
     "e22036cdad91738c9b2a99784e8cd26476be97e78969ec8c43c40e0645f28c47"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5)),
     "57b91e17b44db84669a7524f53cc15ff10950bba2480d6d540062a7f1e10a6f4"),
]


@pytest.mark.parametrize("family,rank,orientation,digest", RESULT_DIGESTS,
                         ids=["D5", "A6", "D5-31,32,43,45"])
def test_public_results_are_pinned(category, family, rank, orientation,
                                   digest):
    cc = category(family, rank, orientation)
    results = [(t.summands, [(m, dv, syz, pd.value) for m, (dv, syz, pd)
                             in verify_main_theorem(cc, t).modules.items()])
               for t in enumerate_tiltings(cc)]
    assert hashlib.sha256(repr(results).encode()).hexdigest() == digest


# sha256 of the repr of (gabriel_arrows(), arrow_representatives(),
# gabriel_quiver_is_acyclic()) per tilting, in enumeration order
GABRIEL_DIGESTS = [
    ("A", 5, "default",
     "9ac0767325835133a8932cbb55d14379155193fa9cb496bcc90f6fbabd43bc89"),
    ("D", 5, "default",
     "527a396c68ff15efd5db0e5dfbd06fdecb0ae7ca699c40f55291a81412a07c5e"),
    ("D", 5, ((3, 1), (3, 2), (4, 3), (4, 5)),
     "c75afa28a4598777e6b2007ddde97a5d086c58e4b6c0d6dd76e75c21bd6003a3"),
]


@pytest.mark.parametrize("family,rank,orientation,digest", GABRIEL_DIGESTS,
                         ids=["A5", "D5", "D5-31,32,43,45"])
def test_gabriel_quivers_are_pinned(category, family, rank, orientation,
                                    digest):
    cc = category(family, rank, orientation)
    quivers = []
    for t in enumerate_tiltings(cc):
        alg = build_algebra(cc, t)
        quivers.append((alg.gabriel_arrows(), alg.arrow_representatives(),
                        alg.gabriel_quiver_is_acyclic()))
    assert hashlib.sha256(repr(quivers).encode()).hexdigest() == digest


def block(mod, key):
    """The action matrix of basis element b of Hom(T_i, T_j), key (i, j, b),
    column-major; the zero matrix of its shape if (i, j) is not live."""
    i, j, b = key
    mats = mod.act.get((i, j))
    return mats[b] if mats else ((0,) * mod.dims[i],) * mod.dims[j]


@pytest.mark.parametrize("family,rank,orientation", ORIENTED, ids=[
    f"{f}{r}-" + (o if isinstance(o, str) else ",".join(f"{s}{t}" for s, t in o))
    for f, r, o in ORIENTED])
def test_syzygies_are_modules(category, family, rank, orientation):
    """Every module of a syzygy chain satisfies the module axioms.

    The identity of each End(T_i) acts as the identity, and f then g acts
    as g . f: act(f) act(g) = sum_c (g . f)_c act(h_c), with the
    coordinates of g . f read off the product table.  The written blocks
    of a syzygy (identities and zeros) are held to this as well.
    """
    cc = category(family, rank, orientation)
    for t in enumerate_tiltings(cc)[::5]:
        alg = build_algebra(cc, t)
        shifted = {cc.shift(c) for c in t.summands}
        keys = {(i, j): tuple((i, j, b) for b in range(alg.hom_dim(i, j)))
                for i, j in alg.pairs}
        for c in cc.cids():
            if c in shifted:
                continue
            for mod in syzygy_chain(module_of(alg, c)):
                for i in alg.labels:
                    assert block(mod, (i, i, 0)) == tuple(
                        tuple(int(r == q) for q in range(mod.dims[i]))
                        for r in range(mod.dims[i]))
                for (i, j), fs in keys.items():
                    for k in alg.labels:
                        if (j, k) not in keys:
                            continue
                        prods = alg.products(i, j, k)
                        hs = keys.get((i, k), ())
                        for f in fs:
                            for g in keys[(j, k)]:
                                af, ag = block(mod, f), block(mod, g)
                                lhs = [[sum(af[p][r] * ag[q][p]
                                            for p in range(mod.dims[j]))
                                        for q in range(mod.dims[k])]
                                       for r in range(mod.dims[i])]
                                rhs = [[sum(prods[f[2]][g[2]][h[2]]
                                            * block(mod, h)[q][r]
                                            for h in hs)
                                        for q in range(mod.dims[k])]
                                       for r in range(mod.dims[i])]
                                assert lhs == rhs, (t.summands, c, f, g)
