"""Exact kernels: integer results agree with a Fraction-only reference.

quotient_basis reads a process-wide table; the tests here hold every read
of it, cold or warm, to the uncached reduction, in values and in types.
"""

from fractions import Fraction

import pytest

import clustercat.linalg as linalg
from clustercat.cluster import MeshConsistencyError
from clustercat.hammocks import verify_main_theorem
from clustercat.linalg import (
    _complement_rows,
    quotient_basis,
    rank,
    rref,
    unit_quotient_basis,
)
from clustercat.tilting import enumerate_tiltings

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


def uncached(rows, n):
    return _complement_rows(*rref(rows), n)


def typed(result):
    """A quotient with the type of every entry next to its value."""
    free, proj = result
    return free, tuple(tuple((type(x), x) for x in row) for row in proj)


def test_every_query_reads_what_the_reduction_gives():
    """A Fraction query after an equal int one (2 == Fraction(2), and both
    hash alike) gets Fractions, as its own reduction does; an int query
    after a Fraction one gets ints; list rows read the same entry as tuple
    rows."""
    for mat in MATRICES:
        n = len(mat[0])
        fractions = tuple(tuple(map(Fraction, row)) for row in mat)
        for rows in (mat, fractions, mat, [list(row) for row in mat]):
            assert typed(quotient_basis(rows, n)) == typed(uncached(rows, n))
        assert typed(linalg._QUOTIENTS[mat, n]) == typed(uncached(mat, n))


def test_empty_span_gives_the_identity():
    for n in range(5):
        identity = tuple(tuple(int(r == c) for c in range(n))
                         for r in range(n))
        for rows in ((), []):
            assert quotient_basis(rows, n) == (tuple(range(n)), identity)


def test_random_small_matrices_read_exact_quotients():
    """Integer matrices up to 4 x 5 with entries -2..2: a cold query, one
    whose entry is dropped first, and the warm query after it both give
    the uncached reduction and the Fraction-only reference."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrices = st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=4))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(rows=matrices, as_lists=st.booleans())
    def check(rows, as_lists):
        n = len(rows[0])
        query = [list(row) for row in rows] if as_lists else rows
        linalg._QUOTIENTS.pop((tuple(rows), n), None)
        want = typed(uncached(rows, n))
        assert typed(quotient_basis(query, n)) == want  # cold
        assert typed(quotient_basis(query, n)) == want  # warm
        assert list(quotient_basis(rows, n)[1]) == ref_nullspace(rows)

    check()


@pytest.fixture(scope="module")
def d5_from_a_clear_table(category):
    """Every D5 tilting verified on an empty table: the reports and the
    table they leave.  The process-wide table is put back afterwards."""
    cc = category("D", 5)
    saved, linalg._QUOTIENTS = linalg._QUOTIENTS, {}
    try:
        reports = [verify_main_theorem(cc, t) for t in enumerate_tiltings(cc)]
        yield cc, reports, dict(linalg._QUOTIENTS)
    finally:
        linalg._QUOTIENTS = saved


def test_every_entry_after_a_d5_sweep_is_exact(d5_from_a_clear_table):
    _cc, _reports, table = d5_from_a_clear_table
    assert table
    for (rows, n), got in table.items():
        assert all(type(x) is int for row in rows for x in row)
        assert typed(got) == typed(uncached(rows, n)), (rows, n)


def test_a_second_d5_sweep_adds_no_entry(d5_from_a_clear_table):
    """The first pass saturates the table: the second sends only queries
    it has seen, and the reports are the same."""
    cc, reports, table = d5_from_a_clear_table
    saved, linalg._QUOTIENTS = linalg._QUOTIENTS, dict(table)
    try:
        again = [verify_main_theorem(cc, t) for t in enumerate_tiltings(cc)]
        assert linalg._QUOTIENTS == table
    finally:
        linalg._QUOTIENTS = saved
    assert again == reports
