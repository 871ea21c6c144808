import random
from fractions import Fraction

import pytest

from clustercat import linalg
from clustercat.algebra import (AlgebraModule, PdClass, build_algebra,
                                module_of, pd_class)
from clustercat.cluster import MeshConsistencyError
from clustercat.tilting import enumerate_tiltings, initial_tilting


def hereditary_algebra(category, family, rank):
    cc = category(family, rank)
    return cc, build_algebra(cc, initial_tilting(cc))


def radical_power_dim(alg, m):
    return sum(linalg.rank(vs) for vs in alg.radical_power_spans(m).values())


def mult_table(alg, i, j, k):
    """coords of hom[i,j][a] . hom[j,k][b] in the (i,k) basis, as [a][b]."""
    return [[tuple(row[b] for row in mat) for b in range(alg.hom_dim(j, k))]
            for mat in alg.products(i, j, k)]


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
                assert not r.is_zero()


def test_pd_classes_stable_under_seeded_resampling(category):
    cc = category("D", 4)
    rng = random.Random(5)
    ts = enumerate_tiltings(cc)
    for t in rng.sample(ts, 6):
        alg = build_algebra(cc, t)
        shifted = {cc.shift(c) for c in t.summands}
        first = {c: pd_class(module_of(alg, c))
                 for c in cc.cids() if c not in shifted}
        again = {c: pd_class(module_of(alg, c))
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
    act = dict(mod.act)
    act[key] = mat
    return AlgebraModule(alg, mod.dims, act)


def test_syzygy_rejects_a_kernel_that_is_not_a_submodule(category):
    # the arrow 1 -> 2 acting by zero breaks (3,1) = (3,2)(2,1): the cover
    # is still onto, but its kernel is not closed under the action
    bad = corrupted_a4_module(category, (2, 1, 0), ((0,),))
    with pytest.raises(MeshConsistencyError, match="left the kernel"):
        bad.syzygy()


def test_syzygy_rejects_a_cover_that_misses_a_direction(category):
    # the unit of label 1 acting by zero: the top lifts at 1, but no element
    # of the projective cover reaches it
    bad = corrupted_a4_module(category, (1, 1, 0), ((0,),))
    with pytest.raises(MeshConsistencyError, match="not surjective"):
        bad.syzygy()
