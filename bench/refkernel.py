"""The reference kernel: a fixed amount of pure-Python work.

One call is one reference unit (ru).  The benchmark runs it between the
timed operations of a run, so it sees the same host speed as they do, and
divides their CPU time by its CPU time.  On a shared virtual machine the CPU
time of the same work drifts by more than a tenth between runs; the ratio
drifts far less, because both sides slow down together.

The work imitates the program's hot path without calling it: exact rational
row reduction over Fraction (what meshhom and linalg do with coordinates)
and dict/tuple churn keyed by small integer tuples (what the Hom engine does
with cover vertices).  It must never change: a changed kernel changes the
unit every ru metric is measured in.
"""

from fractions import Fraction

_SIZE = 6
CHECKSUM = 5359  # what ref_kernel() returns; run.py checks every call
_CHURN = 5000


def _matrix(shift):
    return [[Fraction((3 * i + 5 * j + shift) % 11 - 5, 1 + (i + 2 * j) % 4)
             for j in range(_SIZE + 2)] for i in range(_SIZE)]


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank, rows


def _churn():
    table = {}
    for a in range(_CHURN):
        key = (a % 17, (a * 7) % 13, a % 5)
        prev = table.get(key, ())
        table[key] = prev + ((a, len(prev)),) if len(prev) < 8 else prev[1:]
    return sum(len(v) for v in table.values())


def ref_kernel():
    """Run the fixed work once; returns a checksum that never changes."""
    total = 0
    for shift in range(4):
        rank, rows = _rank(_matrix(shift))
        total += rank + sum(x.numerator for x in rows[-1])
    return total + _churn()
