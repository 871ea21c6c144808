"""Exact kernels: integer results agree with a Fraction-only reference.

quotient_basis, rref and rank are the untabled rational kernel of the
representation oracle.  unit_quotient_basis is the engine's kernel; the
engine keeps its results in a table per category, which
tests/test_meshhom.py holds to it.
"""

from fractions import Fraction

import pytest

from clustercat.cluster import MeshConsistencyError
from clustercat.linalg import quotient_basis, rank, rref, unit_quotient_basis

UNIT_PIVOTS = ((1, -1, 0, 1), (-1, 1, 1, 0), (0, 1, -1, -1))
MATRICES = (
    UNIT_PIVOTS,
    ((2, 1, 0), (0, 1, 1)),               # pivot 2
    ((1, 2, -1), (2, 4, 0), (0, 1, 1)),   # pivot 2 after elimination
    ((3, 6), (1, 2)),
    ((0, 0, 0), (0, -1, 1)),
    ((0, -1, 2),),                        # one row: scaled by -1
    ((0, 2, 1),),                         # one row, pivot 2
    ((0, 0),),
)


def ref_rref(rows):
    """Gauss-Jordan over Fraction only: the reference the kernels must match."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        sel = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def ref_nullspace(rows):
    red, pivots = ref_rref(rows)
    m = len(rows[0])
    basis = []
    for f in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("mat", MATRICES)
def test_kernels_match_fraction_reference(mat):
    assert rref(mat) == ref_rref(mat)
    assert rank(mat) == len(ref_rref(mat)[1])
    assert list(quotient_basis(mat, len(mat[0]))[1]) == ref_nullspace(mat)
    # the augmented systems A x = b reduce as the reference reduces them
    for b in ((1, 0, 0)[:len(mat)], (0, 1, 2)[:len(mat)], (2, -1, 1)[:len(mat)]):
        augmented = [tuple(row) + (bi,) for row, bi in zip(mat, b)]
        assert rref(augmented) == ref_rref(augmented)


def test_unit_pivots_stay_integral():
    red, _ = rref(UNIT_PIVOTS)
    assert all(type(x) is int for row in red for x in row)
    assert all(type(x) is int
               for v in quotient_basis(UNIT_PIVOTS, 4)[1] for x in v)
    augmented = [row + (bi,) for row, bi in zip(UNIT_PIVOTS, (1, 0, 2))]
    assert all(type(x) is int for row in rref(augmented)[0] for x in row)
    free, proj = unit_quotient_basis(UNIT_PIVOTS, 4)
    assert (free, proj) == quotient_basis(UNIT_PIVOTS, 4)
    assert all(type(x) is int for row in proj for x in row)


def test_other_pivots_switch_to_fractions():
    red, _ = rref(((2, 1, 0), (0, 1, 1)))
    assert red[0][2] == Fraction(-1, 2) and isinstance(red[0][2], Fraction)


def test_unit_quotient_rejects_pivot_two():
    with pytest.raises(MeshConsistencyError):
        unit_quotient_basis([(2, 1, 0)], 3)
    with pytest.raises(MeshConsistencyError):
        unit_quotient_basis([(1, 1, 0), (1, -1, 1)], 3)


def test_every_query_reads_what_the_reduction_gives():
    """int, Fraction and list rows of one matrix give the same quotient:
    the free columns of its rref and the Fraction-only null space."""
    for mat in MATRICES:
        n = len(mat[0])
        pivots = ref_rref(mat)[1]
        fractions = tuple(tuple(map(Fraction, row)) for row in mat)
        for rows in (mat, fractions, [list(row) for row in mat]):
            free, proj = quotient_basis(rows, n)
            assert free == tuple(c for c in range(n) if c not in pivots)
            assert list(proj) == ref_nullspace(mat)


def test_empty_span_gives_the_identity():
    for n in range(5):
        identity = tuple(tuple(int(r == c) for c in range(n))
                         for r in range(n))
        for rows in ((), []):
            assert quotient_basis(rows, n) == (tuple(range(n)), identity)
            assert unit_quotient_basis(rows, n) == (tuple(range(n)), identity)
