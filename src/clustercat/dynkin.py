"""Dynkin quivers of types A and D and the AR quiver of their module category.

Conventions, fixed once for the whole package:

* Vertices are 1..n.  Type A_n is the path 1 - 2 - ... - n; type D_n (n >= 4)
  has the two fork vertices 1, 2 attached to 3, then the chain 3 - 4 - ... - n.
* A representation places a vector space at every vertex and a linear map
  along every arrow (source space -> target space).
* The indecomposable projective P_i is supported on the vertices reachable
  from i, so Hom(P_i, Y) has dimension (dim Y)_i.  The injective I_i is
  supported on the vertices that reach i.
* Arrows of the AR quiver between projectives run P_l -> P_i for every quiver
  arrow i -> l (inclusion of a radical summand).

Knitting builds the AR quiver from the projectives: a vertex is resolved once
all its predecessors are, and then either it is injective (its dimension
vector equals some dim I_i; dimension vectors identify indecomposables here)
or the mesh ending at its inverse translate is filled in by additivity.

This is the package's bottom module, so it also declares the package's
two error types: InputError, the one error type of every input check, and
MeshConsistencyError, the one error type of every internal check.  The
modules above raise them and name no builtin exception class; cluster
re-exports MeshConsistencyError, and cli and the package re-export
InputError.
"""

from __future__ import annotations

from collections import deque

FAMILIES = ("A", "D")


class InputError(ValueError):
    """An argument the package cannot take: a quiver that is no orientation
    of its diagram, summands that are not a cluster-tilting object of the
    category, a cid or a label out of range, a render option outside its
    alphabet.  The library makes every such check; the command line only
    parses its strings and reports an InputError with exit code 2."""


class MeshConsistencyError(RuntimeError):
    """An internal check of the package failed: knitting, mesh closure, a
    cross-engine disagreement, an exhausted cover window, a pivot other
    than +-1 in an integer quotient, a reflection walk out of step.  Always
    a bug, never bad input; bad input raises InputError before any check
    runs."""


def diagram_edges(family: str, rank: int):
    """Undirected edge set of the Dynkin diagram, as a set of frozensets."""
    if family == "A":
        if rank < 1:
            raise InputError(f"type A needs rank >= 1, got {rank}")
        return {frozenset((i, i + 1)) for i in range(1, rank)}
    if family == "D":
        if rank < 4:
            raise InputError(f"type D needs rank >= 4, got {rank}")
        edges = {frozenset((1, 3)), frozenset((2, 3))}
        edges.update(frozenset((i, i + 1)) for i in range(3, rank))
        return edges
    raise InputError(f"unknown family {family!r}, expected one of {FAMILIES}")


class QuiverDescriptor:
    """An orientation of a Dynkin diagram.

    arrows is a tuple of (source, target) vertex pairs covering every diagram
    edge exactly once.
    """

    def __init__(self, family: str, rank: int, arrows):
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        edges = diagram_edges(family, rank)
        seen = [frozenset(a) for a in arrows]
        if len(seen) != len(edges) or set(seen) != edges or len(set(seen)) != len(seen):
            raise InputError(
                f"arrows {arrows} are not an orientation of the {family}{rank} diagram"
            )
        self.family = family
        self.rank = rank
        self.arrows = arrows
        self.vertices = tuple(range(1, rank + 1))

    def __repr__(self):
        return f"QuiverDescriptor({self.family}{self.rank}, {list(self.arrows)})"

    def out_arrows(self, v):
        return [a for a in self.arrows if a[0] == v]

    def in_arrows(self, v):
        return [a for a in self.arrows if a[1] == v]

    def coxeter_number(self) -> int:
        return self.rank + 1 if self.family == "A" else 2 * self.rank - 2


def build_quiver(family: str, rank: int, orientation="default") -> QuiverDescriptor:
    """Quiver for a family/rank and an orientation.

    orientation: "default" ("linear" for A, "fork" for D), "linear", "fork",
    or an explicit iterable of (source, target) pairs.
    """
    family = family.upper()
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if orientation == "default":
        orientation = "linear" if family == "A" else "fork"
    if orientation == "linear":
        if family != "A":
            raise InputError("linear orientation is the type A default; give explicit arrows for D")
        arrows = [(i, i + 1) for i in range(1, rank)]
    elif orientation == "fork":
        if family != "D":
            raise InputError("fork orientation is the type D default; give explicit arrows for A")
        arrows = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
    else:
        arrows = list(orientation)
    return QuiverDescriptor(family, rank, arrows)


def positive_roots(family: str, rank: int):
    """All positive roots of the diagram, by reflection closure from the simples.

    Independent of any quiver or knitting: works directly on the diagram.
    """
    edges = diagram_edges(family, rank)
    nbrs = {i: [] for i in range(1, rank + 1)}
    for e in edges:
        a, b = sorted(e)
        nbrs[a].append(b)
        nbrs[b].append(a)

    def reflect(d, i):
        out = list(d)
        out[i - 1] = sum(d[j - 1] for j in nbrs[i]) - d[i - 1]
        return tuple(out)

    simples = {tuple(int(i == j) for j in range(1, rank + 1)) for i in range(1, rank + 1)}
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        nxt = set()
        for d in frontier:
            for i in range(1, rank + 1):
                r = reflect(d, i)
                if r not in roots and all(x >= 0 for x in r):
                    nxt.add(r)
        roots |= nxt
        frontier = nxt
    return roots


class ModIndec:
    """Indecomposable module: a vertex of the AR quiver of mod kQ."""

    __slots__ = ("mid", "dim", "orbit", "offset", "projective", "injective")

    def __init__(self, mid, dim, orbit, offset):
        self.mid = mid
        self.dim = dim
        self.orbit = orbit  # vertex of the projective heading this tau-orbit
        self.offset = offset  # number of tau^{-1} steps from that projective
        self.projective = offset == 0
        self.injective = False  # set by knit

    def __repr__(self):
        return f"M{self.mid}{list(self.dim)}"


class ModARQuiver:
    """AR quiver of mod kQ with memoized Hom dimension rows."""

    def __init__(self, quiver: QuiverDescriptor):
        self.quiver = quiver
        self.indecs: list[ModIndec] = []
        self.succ: dict[int, list[int]] = {}
        self.pred: dict[int, list[int]] = {}
        self.tau: dict[int, int] = {}  # non-projective mid -> mid
        self.tau_inv: dict[int, int] = {}
        self.proj_mid: dict[int, int] = {}  # vertex -> mid of P_vertex
        self.inj_mid: dict[int, int] = {}
        self._hom_rows: list[tuple[int, ...]] | None = None

    # -- structure ---------------------------------------------------------

    def arrows(self):
        return [(x, y) for x in range(len(self.indecs)) for y in self.succ[x]]

    def dim(self, mid):
        return self.indecs[mid].dim

    # -- Hom/Ext dimensions -------------------------------------------------

    def _rows(self):
        if self._hom_rows is None:
            rows: list[tuple[int, ...]] = []
            n_all = len(self.indecs)
            for x in self.indecs:
                if x.projective:
                    v = x.orbit
                    rows.append(tuple(y.dim[v - 1] for y in self.indecs))
                else:
                    w = self.tau[x.mid]
                    row = [0] * n_all
                    for s in self.succ[w]:
                        rs = rows[s]
                        for k in range(n_all):
                            row[k] += rs[k]
                    rw = rows[w]
                    for k in range(n_all):
                        row[k] -= rw[k]
                    row[w] += 1
                    rows.append(tuple(row))
            self._hom_rows = rows
        return self._hom_rows

    def hom_dim(self, x: int, y: int) -> int:
        return self._rows()[x][y]

    def ext_dim(self, x: int, y: int) -> int:
        """dim Ext^1(X, Y) = dim Hom(Y, tau X); zero for projective X."""
        if x not in self.tau:
            return 0
        return self.hom_dim(y, self.tau[x])


def _path_closure(quiver, start, forward=True):
    """Vertices reachable from start along arrows (or against them)."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        arrows = quiver.out_arrows(v) if forward else quiver.in_arrows(v)
        for a in arrows:
            w = a[1] if forward else a[0]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def knit(quiver: QuiverDescriptor) -> ModARQuiver:
    """Knit the AR quiver of mod kQ from the projectives to the injectives.

    Dimension vectors obey mesh additivity dim tau^{-1}(X) =
    sum(middles) - dim(X).  Any non-positive result, duplicated dimension
    vector, or unresolved leftover raises MeshConsistencyError.
    """
    n = quiver.rank
    q = ModARQuiver(quiver)

    inj_dims = {}
    for i in quiver.vertices:
        support = _path_closure(quiver, i, forward=False)
        d = tuple(int(v in support) for v in quiver.vertices)
        inj_dims[d] = i

    seen_dims = {}

    def new_vertex(dim, orbit, offset):
        mid = len(q.indecs)
        if any(x < 0 for x in dim) or all(x == 0 for x in dim):
            raise MeshConsistencyError(f"mesh additivity produced dim {dim}")
        if dim in seen_dims:
            raise MeshConsistencyError(f"dimension vector {dim} knitted twice")
        seen_dims[dim] = mid
        m = ModIndec(mid, dim, orbit, offset)
        if dim in inj_dims:
            m.injective = True
            q.inj_mid[inj_dims[dim]] = mid
        q.indecs.append(m)
        q.succ[mid] = []
        q.pred[mid] = []
        return mid

    for i in quiver.vertices:
        support = _path_closure(quiver, i, forward=True)
        d = tuple(int(v in support) for v in quiver.vertices)
        q.proj_mid[i] = new_vertex(d, i, 0)
    for (i, l) in quiver.arrows:
        src, tgt = q.proj_mid[l], q.proj_mid[i]
        q.succ[src].append(tgt)
        q.pred[tgt].append(src)

    pending = {mid: len(q.pred[mid]) for mid in range(len(q.indecs))}
    queue = deque(mid for mid in sorted(pending) if pending[mid] == 0)
    resolved = set()

    while queue:
        x = queue.popleft()
        if x in resolved:
            raise MeshConsistencyError(f"M{x} resolved twice")
        xv = q.indecs[x]
        if not xv.injective:
            middles = list(q.succ[x])
            dim = list(xv.dim)
            for s in middles:
                for k in range(n):
                    dim[k] += q.indecs[s].dim[k]
            for k in range(n):
                dim[k] -= 2 * xv.dim[k]
            z = new_vertex(tuple(dim), xv.orbit, xv.offset + 1)
            q.tau[z] = x
            q.tau_inv[x] = z
            pending[z] = len(middles)
            for s in middles:
                q.succ[s].append(z)
                q.pred[z].append(s)
            if pending[z] == 0:  # empty mesh, rank-1 edge case
                queue.append(z)
        resolved.add(x)
        for s in q.succ[x]:
            pending[s] -= 1
            if pending[s] == 0:
                queue.append(s)

    if len(resolved) != len(q.indecs):
        raise MeshConsistencyError(
            f"knitting stalled: {len(resolved)} resolved of {len(q.indecs)} created"
        )
    for i in quiver.vertices:
        if i not in q.inj_mid:
            raise MeshConsistencyError(f"injective at vertex {i} never reached")
    return q


def euler_form(quiver: QuiverDescriptor, dx, dy) -> int:
    """Euler form <dx, dy> = sum_i dx_i dy_i - sum_{i->j} dx_i dy_j."""
    total = sum(a * b for a, b in zip(dx, dy))
    for (i, j) in quiver.arrows:
        total -= dx[i - 1] * dy[j - 1]
    return total
