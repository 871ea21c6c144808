"""The product table of the mesh engine against direct composition."""

import pytest

from clustercat.algebra import build_algebra
from clustercat.tilting import enumerate_tiltings

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
    """Per basis f of Hom(x, y), the matrix of g -> g . f built by compose."""
    eng = cc._get_engine()
    targets = cc.hom_basis(y, z)
    rows = cc.hom_dim_c(x, z)
    out = []
    for f in cc.hom_basis(x, y):
        cols = [eng.coords(cc.compose(f, g)) for g in targets]
        out.append(tuple(tuple(col[r] for col in cols) for r in range(rows)))
    return tuple(out)


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
    eng = cc._get_engine()
    for t in enumerate_tiltings(cc)[::7]:
        alg = build_algebra(cc, t)
        for k in alg.labels:
            p = alg.projective_module(k)
            assert p.dim_vector() == tuple(alg.hom_dim(i, k)
                                           for i in alg.labels)
            for (i, j, b), mat in p.act.items():
                f = alg.hom[(i, j)][b]
                cols = [eng.coords(cc.compose(f, g)) for g in alg.hom[(j, k)]]
                assert mat == tuple(tuple(col[r] for col in cols)
                                    for r in range(alg.hom_dim(i, k))), \
                    (t.summands, k, (i, j, b))
