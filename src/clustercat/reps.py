"""Explicit quiver representations and a brute-force Hom oracle.

The indecomposable with a given positive root is built by reflection
functors: walk the root down to a simple root through sink reflections, then
rebuild the representation upwards with the source-reflection construction
(cokernel of the combined map out of the source).  Everything is exact
rational linear algebra and no knitting data is consulted, so Hom dimensions
computed here are an independent check on the mesh-based engine.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .dynkin import InputError, MeshConsistencyError, QuiverDescriptor


class Representation:
    """Spaces dims[v] (vertex -> dimension) and a matrix per arrow.

    maps[(s, t)] has dims[t] rows and dims[s] columns, acting source -> target.
    """

    def __init__(self, quiver, dims, maps):
        self.quiver = quiver
        self.dims = dict(dims)
        self.maps = {
            a: tuple(tuple(Fraction(x) for x in row) for row in m) for a, m in maps.items()
        }

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.quiver.vertices)


def _zero_matrix(nrows, ncols):
    return tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows))


def _simple_rep(quiver, i):
    dims = {v: int(v == i) for v in quiver.vertices}
    maps = {a: _zero_matrix(dims[a[1]], dims[a[0]]) for a in quiver.arrows}
    return Representation(quiver, dims, maps)


def _reverse_at(quiver, i):
    arrows = [((t, s) if s == i or t == i else (s, t)) for (s, t) in quiver.arrows]
    return QuiverDescriptor(quiver.family, quiver.rank, arrows)


def _simple_vertex(quiver, d):
    if sum(d) != 1:
        return None
    return d.index(1) + 1


def _reflection_plan(quiver, root):
    """Sink reflections taking root down to a simple root.

    Returns (plan, base_vertex, bottom_quiver) where plan lists (quiver, sink)
    in the order applied going down.  Sweeps admissible sink orderings; simple
    reflections permute the positive roots other than the simple at the pivot,
    so a valid positive root must reach a simple within the step bound.
    """
    nbrs = {v: [] for v in quiver.vertices}
    for (s, t) in quiver.arrows:
        nbrs[s].append(t)
        nbrs[t].append(s)

    def reflect(d, i):
        out = list(d)
        out[i - 1] = sum(d[j - 1] for j in nbrs[i]) - d[i - 1]
        return tuple(out)

    plan = []
    cur_q, cur_d = quiver, tuple(int(x) for x in root)
    if any(x < 0 for x in cur_d) or all(x == 0 for x in cur_d):
        raise InputError(f"{root} is not a positive root of this diagram")
    max_steps = quiver.rank * quiver.rank * quiver.coxeter_number() + 64
    steps = 0
    while steps < max_steps:
        base = _simple_vertex(cur_q, cur_d)
        if base is not None:
            return plan, base, cur_q
        for v in sorted(v for v in cur_q.vertices if not cur_q.out_arrows(v)):
            base = _simple_vertex(cur_q, cur_d)
            if base is not None:
                return plan, base, cur_q
            nxt = reflect(cur_d, v)
            if any(x < 0 for x in nxt):
                raise InputError(f"{root} is not a positive root of this diagram")
            plan.append((cur_q, v))
            cur_d = nxt
            cur_q = _reverse_at(cur_q, v)
            steps += 1
    raise InputError(f"reflection walk from {root} did not reach a simple root")


def _apply_source_reflection(rep, i):
    """Source reflection at i: rep over a quiver with source i -> reversed quiver.

    The new space at i is the cokernel of the combined map N_i -> sum of the
    arrow targets; the new arrows into i are block inclusion followed by the
    cokernel projection.
    """
    q = rep.quiver
    out = q.out_arrows(i)
    targets = [t for (_, t) in out]
    sizes = [rep.dims[t] for t in targets]
    total = sum(sizes)
    offsets = {}
    off = 0
    for t, size in zip(targets, sizes):
        offsets[t] = off
        off += size

    stacked = []  # matrix of the combined map, total x dims[i]
    for (s, t) in out:
        stacked.extend(rep.maps[(s, t)])
    span_rows = []
    for c in range(rep.dims[i]):
        span_rows.append(tuple(stacked[r][c] for r in range(total)))
    free, proj = linalg.quotient_basis(span_rows, total)

    new_q = _reverse_at(q, i)
    dims = dict(rep.dims)
    dims[i] = len(free)
    maps = {}
    for (s, t) in q.arrows:
        if s == i:
            inc = []
            base = offsets[t]
            for r in range(total):
                row = [Fraction(0)] * rep.dims[t]
                if base <= r < base + rep.dims[t]:
                    row[r - base] = Fraction(1)
                inc.append(tuple(row))
            maps[(t, i)] = linalg.matmul(proj, inc)
        else:
            maps[(s, t)] = rep.maps[(s, t)]
    return Representation(new_q, dims, maps)


def indecomposable_rep(quiver: QuiverDescriptor, root) -> Representation:
    """The indecomposable representation of quiver with dimension vector root."""
    plan, base_vertex, bottom_q = _reflection_plan(quiver, root)
    rep = _simple_rep(bottom_q, base_vertex)
    for (q_at, v) in reversed(plan):
        rep = _apply_source_reflection(rep, v)
        if rep.quiver.arrows != q_at.arrows:
            raise MeshConsistencyError("reflection bookkeeping out of sync")
    if rep.dim_vector() != tuple(int(x) for x in root):
        raise MeshConsistencyError(f"built {rep.dim_vector()} instead of {tuple(root)}")
    return rep


def brute_force_hom_dim(rep_x: Representation, rep_y: Representation) -> int:
    """dim Hom(X, Y) as the nullity of the intertwiner system.

    Unknowns are the per-vertex matrices phi_v; each arrow a: s -> t imposes
    phi_t X_a = Y_a phi_s.
    """
    qx = rep_x.quiver
    offsets = {}
    total = 0
    for v in qx.vertices:
        offsets[v] = total
        total += rep_x.dims[v] * rep_y.dims[v]
    rows = []
    for (s, t) in qx.arrows:
        xs, xt = rep_x.dims[s], rep_x.dims[t]
        ys, yt = rep_y.dims[s], rep_y.dims[t]
        xa = rep_x.maps[(s, t)]
        ya = rep_y.maps[(s, t)]
        # one equation per entry (r, c) of the yt x xs product matrix:
        # sum_k phi_t[r, k] xa[k, c] - sum_k ya[r, k] phi_s[k, c] = 0
        for r in range(yt):
            for c in range(xs):
                row = [Fraction(0)] * total
                for k in range(xt):
                    row[offsets[t] + r * xt + k] += xa[k][c]
                for k in range(ys):
                    row[offsets[s] + k * xs + c] -= ya[r][k]
                if any(x != 0 for x in row):
                    rows.append(row)
    return total - linalg.rank(rows)
