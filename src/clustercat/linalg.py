"""Small exact linear algebra kernel over the rationals.

Matrices are lists (or tuples) of rows; rows are sequences of int or
Fraction.  Integer input stays integer wherever the arithmetic allows: row
reduction keeps ints across pivots of +-1, and only another pivot makes it
divide, which turns the rows it touches into exact Fractions.
Everything is immutable from the caller's point of view: functions never
mutate their arguments and return fresh tuples.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .cluster import MeshConsistencyError

Row = Sequence


def rref(rows) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Deterministic:
    pivots are chosen left to right, first nonzero entry in column order.
    """
    return _rref(rows, unit_pivots=False)


def _rref(rows, unit_pivots):
    """rref; with unit_pivots, a pivot other than +-1 raises instead."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        for sel in range(r, nrows):
            if mat[sel][c]:
                break
        else:
            continue
        row_r = mat[sel]
        mat[sel] = mat[r]
        piv = row_r[c]
        if piv == -1:
            row_r = [-x for x in row_r]
        elif piv != 1:
            if unit_pivots:
                raise MeshConsistencyError(
                    f"pivot {piv} in an integer quotient; expected +-1")
            inv = Fraction(1) / piv
            row_r = [x * inv for x in row_r]
        mat[r] = row_r
        for i in range(nrows):
            f = mat[i][c]
            if f and i != r:
                mat[i] = [a - f * b for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple([tuple(row) for row in mat[:r]]), tuple(pivots)


def rank(rows) -> int:
    """Rank of a rational matrix.

    Integer matrices take a fraction-free (Bareiss) path; anything else is
    eliminated over Fraction.  Both are exact.
    """
    mat = [list(row) for row in rows]
    if not mat or not mat[0]:
        return 0
    if all(isinstance(x, int) for row in mat for x in row):
        return _rank_bareiss(mat)
    return len(rref(mat)[0])


def _rank_bareiss(mat) -> int:
    n, m = len(mat), len(mat[0])
    prev = 1
    r = 0
    for c in range(m):
        sel = None
        for i in range(r, n):
            if mat[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, n):
            fi = mat[i][c]
            row_i, row_r = mat[i], mat[r]
            for j in range(c, m):
                row_i[j] = (piv * row_i[j] - fi * row_r[j]) // prev
        prev = piv
        r += 1
        if r == n:
            break
    return r


def nullspace(rows, ncols=None):
    """Basis of the right kernel {x : A x = 0}.

    ncols is required when rows is empty (the kernel is then everything).
    """
    mat = list(rows)
    if not mat:
        if ncols is None:
            raise ValueError("nullspace of empty matrix needs ncols")
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref(mat)
    return list(_complement_rows(red, pivots, len(mat[0]))[1])


def _complement_rows(red, pivots, ncols):
    """(free columns, one row per free column f: e_f minus its pivot parts)."""
    pivset = set(pivots)
    free = tuple(c for c in range(ncols) if c not in pivset)
    out = []
    for f in free:
        row = [0] * ncols
        row[f] = 1
        for i, p in enumerate(pivots):
            row[p] = -red[i][f]
        out.append(tuple(row))
    return free, tuple(out)


def quotient_basis(span_rows, ambient_dim):
    """Data for the quotient of Q^ambient_dim by the row span of span_rows.

    Returns (free_indices, projection), where projection is a matrix with
    len(free_indices) rows and ambient_dim columns; applying it to a vector
    yields its class in the quotient, coordinates dual to the images of the
    unit vectors e_f for f in free_indices.  Its rows are also a basis of
    the right kernel of span_rows, the identity on the free columns.
    """
    red, pivots = rref(span_rows) if span_rows else ((), ())
    return _complement_rows(red, pivots, ambient_dim)


def unit_quotient_basis(span_rows, ambient_dim):
    """quotient_basis of an integer span whose row reduction has only +-1 pivots.

    The projection is then integral.  Any other pivot raises
    MeshConsistencyError: mesh cokernels are integral, so one would be a bug,
    never a case to handle over Fraction.
    """
    red, pivots = _rref(span_rows, unit_pivots=True) if span_rows else ((), ())
    return _complement_rows(red, pivots, ambient_dim)


def matvec(mat, vec):
    return tuple([sum(map(mul, row, vec)) for row in mat])


def matmul(a, b):
    if not b:
        return tuple(() for _ in a)
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)

