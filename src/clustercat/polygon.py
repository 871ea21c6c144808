"""Geometric model for type A: diagonals of a convex (n+3)-gon.

For the linearly oriented A_n quiver (1 -> 2 -> ... -> n) every
indecomposable of the cluster category corresponds to one diagonal of the
polygon with vertices 0..n+2.  A module supported on the interval [i..j]
maps to the diagonal (i-1, j+1), and the translate acts by rotating both
endpoints one step forward.  In particular P_k goes to (k-1, n+1) and the
shifted projective P_k[1] to (k, n+2).

dim Ext^1 between two objects equals the crossing number of their diagonals
(0 or 1).  This is a route to Ext that never touches the mesh machinery or
the module category, so it anchors both.
"""

from __future__ import annotations

from .cluster import ClusterCategory
from .dynkin import InputError


def diagonal_of(cc: ClusterCategory, cid: int) -> tuple[int, int]:
    """The polygon diagonal of an indecomposable; linear type A only."""
    q = cc.quiver
    if q.family != "A":
        raise InputError("the polygon model is specific to type A")
    n = q.rank
    expected = tuple((v, v + 1) for v in range(1, n))
    if tuple(sorted(q.arrows)) != expected:
        raise InputError("the polygon model assumes the linear orientation")
    m = n + 3
    X = cc.indecs[cid]
    if X.kind == "shift":
        a, b = X.vertex, n + 2
    else:
        support = [v for v in range(1, n + 1) if X.dim[v - 1]]
        if X.dim != tuple(1 if v in support else 0 for v in range(1, n + 1)):
            raise InputError("type A dimension vectors must be 0/1 intervals")
        a, b = support[0] - 1, support[-1] + 1
    a, b = a % m, b % m
    return (a, b) if a < b else (b, a)


def crossing_number(diag1, diag2, m: int) -> int:
    """1 when the two polygon diagonals cross in the interior, else 0."""
    a, b = diag1
    c, d = diag2
    if {a, b} & {c, d}:
        return 0

    def between(x, lo, hi):
        return lo < x < hi

    inside = between(c, a, b) + between(d, a, b)
    return 1 if inside == 1 else 0


def ext_dim_by_crossing(cc: ClusterCategory, x: int, y: int) -> int:
    return crossing_number(diagonal_of(cc, x), diagonal_of(cc, y),
                           cc.quiver.rank + 3)
