"""Output checks computed apart from the program.

Nothing here imports clustercat.  Each check is either a closed form from the
literature or a property the method must have; none compares against a stored
copy of the program's output.  A failed check raises CheckError.
"""

from math import comb


class CheckError(AssertionError):
    """A program output that cannot be right."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def tilting_count_d(n):
    """Cluster-tilting objects in type D_n: (3n-2)/n * binom(2n-2, n-1)."""
    return (3 * n - 2) * comb(2 * n - 2, n - 1) // n


def indec_count(family, n):
    """Indecomposables of the cluster category: positive roots plus n."""
    return n * (n + 3) // 2 if family == "A" else n * n


def orientation_arrows(family, n, orientation):
    """Quiver arrows for a CLI orientation string, by the documented rules."""
    if orientation == "default":
        orientation = "linear" if family == "A" else "fork"
    if orientation == "linear":
        return [(i, i + 1) for i in range(1, n)]
    if orientation == "fork":
        return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]
    return [tuple(int(v) for v in a.split("-"))
            for a in orientation[len("custom:"):].split(",")]


# -- the Gabriel quiver by Fomin-Zelevinsky mutation ---------------------------
#
# The quiver of End(mu_k T) is the Fomin-Zelevinsky mutation at k of the
# quiver of End(T) (Buan-Marsh-Reiten), and End of the initial tilting
# P_1 + ... + P_n has the quiver Q itself.  So a mutation word fixes the
# Gabriel quiver without any Hom computation.


def mutated_quiver(arrows, n, word):
    """Skew-symmetric exchange matrix after mutating at each label of word."""
    b = [[0] * (n + 1) for _ in range(n + 1)]
    for s, t in arrows:
        b[s][t] += 1
        b[t][s] -= 1
    for k in word:
        new = [row[:] for row in b]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == k or j == k:
                    new[i][j] = -b[i][j]
                else:
                    new[i][j] = b[i][j] + (abs(b[i][k]) * b[k][j]
                                           + b[i][k] * abs(b[k][j])) // 2
        b = new
    return b


def has_oriented_cycle(b):
    n = len(b) - 1
    out = {i: [j for j in range(1, n + 1) if b[i][j] > 0]
           for i in range(1, n + 1)}
    state = dict.fromkeys(out, 0)

    def visit(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and visit(w)):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in out)


# -- triangulations of the (n+3)-gon for linear A_n ----------------------------
#
# For 1 -> 2 -> ... -> n the module with support [i..j] is the diagonal
# (i-1, j+1) and the shifted projective P_k[1] is (k, n+2).  P_k has support
# [k..n], so the initial tilting is the fan (k-1, n+1), k = 1..n, and
# mutation at label k is the flip of that label's diagonal.


def diagonal(n, kind, dim=None, vertex=None):
    if kind == "shift":
        return (vertex, n + 2)
    support = [v for v in range(1, n + 1) if dim[v - 1]]
    require(list(dim) == [1 if support[0] <= v <= support[-1] else 0
                          for v in range(1, n + 1)],
            f"type A dimension vector {dim} is not a 0/1 interval")
    return (support[0] - 1, support[-1] + 1)


def flipped_triangulation(n, word):
    """Diagonals by label after flipping the initial fan along word."""
    m = n + 3
    tri = {k: (k - 1, n + 1) for k in range(1, n + 1)}
    sides = {frozenset((v, (v + 1) % m)) for v in range(m)}
    for k in word:
        edges = sides | {frozenset(d) for d in tri.values()}
        a, b = tri[k]
        apex = [c for c in range(m) if c not in (a, b)
                and frozenset((a, c)) in edges and frozenset((b, c)) in edges]
        require(len(apex) == 2, f"diagonal {tri[k]} bounds {len(apex)} triangles")
        tri[k] = tuple(sorted(apex))
    return tri


def crosses(d1, d2):
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return a < c < b < d or c < a < d < b
