"""Explicit Hom spaces of the cluster category via mesh functors on the cover.

For a fixed source X the functor Hom(X, -) is knitted over the universal
cover of the AR quiver: the cover vertex (v, k) sits at global height
height(v) + k * winding, the seed (X, 0) carries the identity, and every
higher vertex V with translate U and mesh middles E_1..E_r gets

    F(V) = (F(E_1) + ... + F(E_r)) / image(F(U)),

the cokernel of the mesh map, whose span is the transpose of the
middles' arrow matrices at U, stacked in middle order.  Exactness of the
mesh (AR triangle) makes this the genuine Hom space at every vertex above
the seed.  Each basis element remembers one representative path of arrows
from the seed, the record of a predecessor's basis element followed by one
arrow, so composition is path application through the stored arrow
matrices; compose walks whole paths and is the reference the two tables
below are tested against.

MeshHomEngine.product_rows tabulates the composites of basis elements once
per category, one dict per row (x, y, -) from z to the entry of (x, y, z),
and fills the missing rows of one target together: F_y's records become
one step list, in knit order, and the image of each record under a unit
vector of F_x is one arrow matrix of F_x applied to the image of its
prefix.  A row reads F_x's levels and the dimension rows of x and y once,
for the starts, zero column and zero matrix of every target z.  An entry
is column-major, the coordinate tuple of g . f per pair of basis elements
(f, g), the order the walk produces them in; products(x, y, z) reads one
entry.  The algebra reads its modules and structure constants from its
rows, and their dimension vectors from dim_row, dim Hom(x, -) as a tuple
over the cids: the category's additive row, which functor(x) checks once
against the mesh levels of F_x.
MeshHomEngine.hammock keeps H(a, b), the objects that a nonzero a -> b
factors through, once per pair, by one sweep of F_a from the top of its
window down that tracks which functionals some arrow path carries to a
lift of b: it builds no functor of a middle object and reads no product.

Knitting stops early: the mesh at height g reads only heights g - 1 (the
middles) and g - 2 (the translate), so once two consecutive height levels
vanish everything above them vanishes too, and no vertex above is built.
Supports die after at most 2h + 3 levels (h the Coxeter number); the window
of 4h + 2 levels stays as a hard cap, and support reaching its top two
levels means the window or the theory is wrong and raises
MeshConsistencyError.

Only one functor per tau-orbit is knitted, that of the orbit's smallest
cid r.  tau is an automorphism of the category (ClusterCategory checks
that it carries the arrows and their cover offsets along), so F_x for
x = tau^m r is F_r with every cover vertex, path record and act key moved
by tau^m; CoverFunctor.moved builds it so, relabelling through a list
indexed by cid, and shares the arrow matrices.
Hammocks and path composites read F_r itself: H(tau^m r, b) is
tau^m H(r, tau^-m b), so only representatives are ever swept.

All coordinates are exact integers.  Every row reduction of the category,
the mesh cokernels and those of its algebras, is read from the table
MeshHomEngine._quotients and accepts only pivots +-1, so the action matrices
stay integral (entries in {-1, 0, 1} on types A and D); any other pivot
raises MeshConsistencyError rather than falling back to Fractions.
Basis order is deterministic: cover vertices by (height, cid), mesh
middles by cid, quotient bases by the free indices of the rref; a relabelled
F_x keeps the order of its representative, so where tau puts the middles of
a mesh out of cid order its hom_basis differs from a knitted one.  Every F_x
at x starts with the identity, which functor(x) checks once per object.

A morphism x -> y is the tuple of its coordinates in hom_basis(x, y) order;
its source and target are passed beside it.  compose and arrow_element serve
the tests and the quiver presets; the algebra, the witness search and the
hammock code read the integer tables.  Both tables are exact: the product
rows are integer matrix products, and the sweep keeps its spans as integer
echelon bases.

The engine declares its tables here: cover functors, product rows,
hammocks and quotients.  Only a quotient depends on its key alone, so only
_quotients is a cluster.Table; every other fill reads the engine, so a
method fills its table on a miss.  The algebra module declares the syzygy
route's tables, and the hammocks module the closed forms.
"""

from __future__ import annotations

from bisect import insort
from math import gcd
from operator import mul

from .cluster import ClusterCategory, MeshConsistencyError, Table
from .dynkin import InputError
from .linalg import matvec, unit_quotient_basis


class CoverFunctor:
    """Hom(X, -) on the cover window, with path representatives.

    levels[y] lists the (level, dimension) pairs of the nonzero lifts of y,
    sorted by level; arrow_offsets are the category's, which apply_path
    reads.
    """

    def __init__(self, cc: ClusterCategory, src: int):
        self.arrow_offsets = cc.arrow_offsets
        self.src = src
        h = cc.quiver.coxeter_number()
        H = cc.winding
        g0 = cc.height[src]
        top = g0 + 4 * h + 2
        # the cover vertices at global height g are (c, k) with c at height
        # g mod H and k = (g - height(c)) / H; cids ascend within a height
        tau_offsets, arrow_offsets = cc.tau_offsets, cc.arrow_offsets
        at_height: dict[int, list[int]] = {}
        for c in cc.cids():
            at_height.setdefault(cc.height[c], []).append(c)

        self.basis: dict[tuple[int, int], list[tuple]] = {}
        self.act: dict[tuple[int, int, int], tuple] = {}
        basis, act, height, tau = self.basis, self.act, cc.height, cc.tau
        quotients = cc._get_engine()._quotients
        last = g0  # highest height with a nonzero vertex so far
        for g, c, k in (
                (g, c, (g - height[c]) // H)
                for g in range(g0, top + 1)
                for c in at_height.get(g % H, ())):
            if g - last > 2:
                break
            if g == g0:
                basis[(c, k)] = [()] if c == src else []
                continue
            w = tau[c]
            kw = k + tau_offsets[c]
            # (middle p, its level, its basis, its first ambient coordinate)
            blocks = []
            amb = 0
            for p in cc.pred[c]:
                kp = k - arrow_offsets[(p, c)]
                bp = basis.get((p, kp), ())
                blocks.append((p, kp, bp, amb))
                amb += len(bp)
            # the image of each basis element of F(U) in the middles: one
            # transpose of their arrow matrices, stacked in middle order
            dw = len(basis.get((w, kw), ()))
            if dw:
                rows = [row for p, kp, bp, _o in blocks if bp
                        for row in act[(w, p, kw)]]
                span = tuple(zip(*rows)) if rows else ((),) * dw
            else:
                span = ()
            free, proj = quotients[span, amb]
            recs = []
            for f in free:
                for p, kp, bp, o in blocks:
                    if o <= f < o + len(bp):
                        recs.append(bp[f - o] + ((p, c),))
                        break
            basis[(c, k)] = recs
            if recs:
                last = g
            for p, kp, bp, o in blocks:
                act[(p, c, kp)] = tuple([row[o:o + len(bp)] for row in proj])

        if last > top - 2:
            raise MeshConsistencyError(
                f"Hom({src}, -) support reached the cover window boundary")

        self.levels: dict[int, list[tuple[int, int]]] = {}
        for (c, k), recs in self.basis.items():
            if recs:
                self.levels.setdefault(c, []).append((k, len(recs)))
        for lv in self.levels.values():
            lv.sort()

    @classmethod
    def moved(cls, rep: CoverFunctor, move: list) -> CoverFunctor:
        """F_{tau^m x} from F_x = rep, with move[c] = (tau^m c, s_m(c)).

        s_m(c) adds up the tau offsets along c, tau c, ..., tau^{m-1} c, so
        tau^m lifts to the cover as (c, k) -> (tau^m c, k + s_m(c)), and
        ClusterCategory checks that it maps arrows to arrows with their
        offsets.  Shifted to keep the seed at level 0, every vertex, path
        record and act key of rep is relabelled; the arrow matrices, the
        level dimensions and the arrow offsets are shared.
        """
        self = cls.__new__(cls)
        self.arrow_offsets = rep.arrow_offsets
        self.src, s0 = move[rep.src]
        lift = [(d, s - s0) for d, s in move]
        to = [d for d, _s in move]  # cid -> tau^m cid
        self.basis = {}
        for (c, k), recs in rep.basis.items():
            d, s = lift[c]
            # a fresh pair per arrow: reusing one pair per arrow allocates
            # fewer objects, which moves where the cyclic collector runs
            # (ROADMAP item 7)
            self.basis[(d, k + s)] = [
                tuple([(to[p], to[q]) for p, q in r]) for r in recs]
        self.act = {}
        for (p, c, kp), mat in rep.act.items():
            d, s = lift[p]
            self.act[(d, to[c], kp + s)] = mat
        self.levels = {}
        for c, lv in rep.levels.items():
            d, s = lift[c]
            self.levels[d] = [(k + s, dim) for k, dim in lv]
        return self

    def apply_path(self, path, start, level, vec):
        """Push vec in F(start, level) through a path of AR-quiver arrows.

        Returns (end_vertex, end_level, vec) or None when the result is zero.
        """
        act, offsets = self.act, self.arrow_offsets
        cur, lvl, v = start, level, tuple(vec)
        for a, b in path:
            if a != cur:
                raise InputError("path does not start where the previous arrow ended")
            mat = act.get((a, b, lvl))
            if mat is None:
                if any(v):
                    raise MeshConsistencyError(
                        "nonzero morphism escaped the cover window")
                return None
            v = matvec(mat, v)
            lvl += offsets[(a, b)]
            cur = b
        if not any(v):
            return None
        return cur, lvl, v


_NO_OBJECTS = frozenset()  # every empty H(a, b) of every category


def _echelon_add(span, vec):
    """Add the integer row vec to span unless it lies in its row span.

    span is an echelon basis: (pivot, row) pairs sorted by pivot, each row
    zero before its pivot.  vec is reduced in pivot order by integer
    cross-multiplication, so nothing leaves the integers, and what remains
    is divided by its gcd.
    """
    for p, row in span:
        if vec[p]:
            f, g = row[p], vec[p]
            vec = [f * x - g * y for x, y in zip(vec, row)]
    for p, x in enumerate(vec):
        if x:
            g = gcd(*vec)
            insort(span, (p, tuple([e // g for e in vec])))
            return


def _level_starts(levels):
    """Level -> first coordinate, for sorted (level, dimension) pairs."""
    at, off = {}, 0
    for k, d in levels:
        at[k] = off
        off += d
    return at


def zero_products(dxy: int, dyz: int, dxz: int):
    """products of a triple with a zero Hom space: dxy tuples of dyz zero
    columns of length dxz."""
    return (((0,) * dxz,) * dyz,) * dxy


class MeshHomEngine:
    """Hom spaces of one category, and its tables of cover functors, basis
    products, hammocks and quotients.

    functor(x) is built once per object, product_rows once per row (x, y,
    -), hammock(a, b) once per pair and _quotients[rows, n] once per
    distinct query, and all are read by every tilting of the category;
    identical matrices are shared through one intern map.  The tables of
    cids are keyed by one int per object or pair, which takes less memory
    than a tuple key.
    """

    def __init__(self, cc: ClusterCategory):
        self.cc = cc
        self._n = len(cc.indecs)
        self._functors: dict[int, CoverFunctor] = {}
        # x -> (r, m) with x = tau^m r, r the smallest cid of the tau-orbit
        self._orbit: dict[int, tuple[int, int]] = {}
        for r in cc.cids():
            x, m = r, 0
            while x not in self._orbit:
                self._orbit[x] = (r, m)
                x, m = cc.tau[x], m + 1
        self._moves = [[(c, 0) for c in cc.cids()]]  # m -> tau^m on the cover
        self._rows: dict[int, dict] = {}  # x * n + y -> {z: products(x, y, z)}
        self._interned: dict[tuple, tuple] = {}
        self._hammocks: dict[int, frozenset] = {}  # a * n + b -> H(a, b)
        # (rows, n) -> unit_quotient_basis(rows, n), for a tuple of integer
        # row tuples; a query that raises is not stored
        self._quotients = Table(lambda key: unit_quotient_basis(*key))

    def functor(self, x: int) -> CoverFunctor:
        """F_x, built once; its basis of End(x) must start with the identity.

        Only the smallest cid r of each tau-orbit is knitted; x = tau^m r
        relabels F_r by tau^m, which is an automorphism of the category.
        The levels of F_x are summed per cid in one pass and checked as a
        whole against the additive row cc.hom_row_c(x), which dim and
        dim_row then read.  A functor that fails a check raises, the row
        check naming its first differing pair, and is not stored.
        """
        got = self._functors.get(x)
        if got is None:
            r, m = self._orbit[x]
            if m:
                got = CoverFunctor.moved(self.functor(r), self._move(m))
            else:
                got = CoverFunctor(self.cc, x)
            lv = got.levels.get(x)
            if not lv or lv[0] != (0, 1):
                raise MeshConsistencyError(
                    "identity is not the first End basis element")
            row = [0] * self._n
            for y, at in got.levels.items():
                row[y] = sum(d for _k, d in at)
            expect = self.cc.hom_row_c(x)
            if tuple(row) != expect:
                y = next(y for y, d in enumerate(row) if d != expect[y])
                raise MeshConsistencyError(
                    f"mesh basis of Hom({x},{y}) has {row[y]} elements, "
                    f"additive count gives {expect[y]}")
            self._functors[x] = got
        return got

    def _move(self, m: int):
        """(tau^m c, s_m(c)) at index c for every cid c, see
        CoverFunctor.moved."""
        moves, tau, t = self._moves, self.cc.tau, self.cc.tau_offsets
        while len(moves) <= m:
            moves.append([(tau[d], s + t[d]) for d, s in moves[-1]])
        return moves[m]

    def levels(self, x: int, y: int):
        """Sorted (level, dimension) pairs with nonzero F_x at lifts of y."""
        return self.functor(x).levels.get(y, ())

    def _starts(self, x: int, y: int):
        """Level of F_x at a lift of y -> its first coordinate in hom_basis(x, y)."""
        return _level_starts(self.levels(x, y))

    def dim(self, x: int, y: int) -> int:
        """dim Hom(x, y), read from dim_row(x)."""
        return self.dim_row(x)[y]

    def dim_row(self, x: int) -> tuple:
        """dim Hom(x, y) for every cid y in turn: the category's row
        cc.hom_row_c(x), read once F_x has been checked against it.  The
        algebra reads the dimension vectors of its modules from the rows of
        its summands."""
        if x not in self._functors:
            self.functor(x)
        return self.cc.hom_row_c(x)

    def hom_basis(self, x: int, y: int):
        """The unit coordinate vectors of Hom(x, y)."""
        d = self.dim(x, y)
        return [tuple(int(i == j) for i in range(d)) for j in range(d)]

    def coords(self, x: int, y: int, vec):
        """vec as a coordinate tuple of Hom(x, y); its length must be the dim."""
        d = self.dim(x, y)
        if len(vec) != d:
            raise InputError(
                f"{len(vec)} coordinates for Hom({x},{y}) of dimension {d}")
        return tuple(vec)

    def arrow_element(self, x: int, y: int):
        """The coordinates of the AR-quiver arrow x -> y."""
        if y not in self.cc.succ[x]:
            raise InputError(f"no arrow {x}->{y} in the AR quiver")
        out = [0] * self.dim(x, y)
        res = self.functor(x).apply_path(((x, y),), x, 0, (1,))
        if res is not None:
            _, lvl, v = res
            start = self._starts(x, y)[lvl]
            out[start:start + len(v)] = v
        return tuple(out)

    def compose(self, x: int, y: int, z: int, g, h):
        """h after g, for g: x -> y and h: y -> z, by path application; the
        product table is not read."""
        gc, hc = self.coords(x, y, g), self.coords(y, z, h)
        fx, fy = self.functor(x), self.functor(y)
        at_y, at = self._starts(x, y), self._starts(x, z)
        gvs = [(k, gc[at_y[k]:at_y[k] + d]) for k, d in self.levels(x, y)]
        out = [0] * self.dim(x, z)
        paths = ((l, path) for l, _d in self.levels(y, z)
                 for path in fy.basis[(z, l)])
        for (l, path), coeff in zip(paths, hc):
            if coeff == 0:
                continue
            for k, gv in gvs:
                res = fx.apply_path(path, y, k, gv)
                if res is None:
                    continue
                cur, lvl, v = res
                if cur != z or lvl != k + l or lvl not in at:
                    raise MeshConsistencyError("path application lost track")
                for r, a in enumerate(v, at[lvl]):
                    out[r] += coeff * a
        return tuple(out)

    def products(self, x: int, y: int, z: int):
        """One matrix per basis element f of Hom(x, y): g -> g . f.

        The matrix maps Hom(y, z) to Hom(x, z) in hom_basis coordinates and
        is stored column-major: products(x, y, z)[f][g] is the coordinate
        tuple of g . f in Hom(x, z), the layout of a module action.  It is
        entry z of the row of (x, y), see product_rows; a triple with a zero
        Hom space has no entry, its matrices are zero, of the shape the
        dimensions give.
        """
        dxy, dyz, dxz = self.dim(x, y), self.dim(y, z), self.dim(x, z)
        if not (dxy and dyz and dxz):
            return zero_products(dxy, dyz, dxz)
        return self.product_rows(((x, y),))[0][z]

    def product_rows(self, pairs) -> list:
        """The row of each pair (x, y) of cids, in order: z -> products(x,
        y, z) for every z with Hom(y, z) and Hom(x, z) nonzero, read by
        every tilting and changed by no reader.  The missing rows are filled
        one target y at a time, from one step list of F_y (_steps) built for
        all of them and then dropped; a step list that raises stores no row
        of its target."""
        n, rows = self._n, self._rows
        got = [rows.get(x * n + y) for x, y in pairs]
        if None in got:
            missing = {}  # target y -> the indices of its missing rows
            for k, (x, y) in enumerate(pairs):
                if got[k] is None:
                    if self.dim(x, y):
                        missing.setdefault(y, []).append(k)
                    else:
                        got[k] = {}
            for y, ks in missing.items():
                steps = self._steps(y)
                for k in ks:
                    x = pairs[k][0]
                    got[k] = rows[x * n + y] = self._fill_row(x, y, steps)
        return got

    def _steps(self, y: int) -> list:
        """The path records of F_y in knit order, one step per record: the
        index of its prefix (-1 for the seed), the tail and F_y level of
        its last arrow, and where its image goes: the end c, its F_y level
        l and its column in Hom(y, c).  Knit order puts every prefix first.
        """
        fy, offsets = self.functor(y), self.cc.arrow_offsets
        starts = {c: _level_starts(lv) for c, lv in fy.levels.items()}
        steps, index = [], {}
        for (c, l), recs in fy.basis.items():
            if not recs:
                continue
            for i, rec in enumerate(recs, starts[c][l]):
                index[rec] = len(steps)
                if not rec:
                    steps.append((-1, None, None, c, l, i))
                    continue
                p = rec[-1][0]
                q = index.get(rec[:-1])
                if q is None:
                    raise MeshConsistencyError("path application lost track")
                steps.append((q, p, l - offsets[(p, c)], c, l, i))
        if len(steps) != sum(d for lv in fy.levels.values() for _k, d in lv):
            raise MeshConsistencyError(
                f"path records of Hom({y}, -) do not match its levels")
        return steps

    def _fill_row(self, x: int, y: int, steps: list) -> dict:
        """products(x, y, z) for every z with Hom(y, z) and Hom(x, z)
        nonzero, in one walk of the steps of F_y per unit vector of F_x.

        A unit vector e of F_x at a lift (y, k) is the image of the seed
        record.  Every other record of F_y, at (c, l), is the record of a
        predecessor (p, l') followed by the arrow p -> c, so its image is
        the arrow matrix of F_x at (p, k + l') applied to the image of that
        prefix.  The image of the record of basis element g of Hom(y, z) is
        column g of the matrix of e, and the columns are stored as they are.
        """
        fx, fy = self.functor(x), self.functor(y)
        act, at_x = fx.act, fx.levels
        to_x, to_y = self.cc.hom_row_c(x), self.cc.hom_row_c(y)
        # the targets z, with F_x's starts at their lifts, the zero column
        # of Hom(x, z), the dim Hom(y, z) zero columns a unit vector's
        # matrix starts from, and the matrices of the unit vectors done
        starts, zeros, blank = {}, {}, {}
        for z in fy.levels:
            if z in at_x:
                starts[z] = _level_starts(at_x[z])
                zeros[z] = zero = (0,) * to_x[z]
                blank[z] = [zero] * to_y[z]
        mats = {z: [] for z in starts}
        for k, dk in at_x[y]:
            for a in range(dk):
                images = []  # per record: its image at (c, k + l), or None
                cols = {z: b.copy() for z, b in blank.items()}
                for q, p, lp, c, l, col in steps:
                    if q < 0:
                        v = tuple([int(i == a) for i in range(dk)])
                    elif (v := images[q]) is not None:
                        mat = act.get((p, c, k + lp))
                        if mat is None:
                            raise MeshConsistencyError(
                                "nonzero morphism escaped the cover window")
                        v = matvec(mat, v)
                        if not any(v):
                            v = None
                    images.append(v)
                    if v is None:
                        continue
                    at = starts[c].get(k + l) if c in starts else None
                    if at is None:
                        raise MeshConsistencyError(
                            "path application lost track")
                    zero = zeros[c]
                    cols[c][col] = zero[:at] + v + zero[at + len(v):]
                for z, done in mats.items():
                    done.append(self._intern(tuple(cols[z])))
        return {z: self._intern(tuple(done)) for z, done in mats.items()}

    def hammock(self, a: int, b: int) -> frozenset:
        """H(a, b): the cids x with some nonzero composite a -> x -> b.

        Swept from F_a (_sweep) for a the representative r of its tau-orbit,
        else read as H(tau^m r, b) = tau^m H(r, tau^-m b), rebuilt in cid
        order like a sweep, with Hom(a, b) checked against the mesh count
        of Hom(r, tau^-m b).  An empty Hom(a, b) gives the empty set.
        """
        key = a * self._n + b
        got = self._hammocks.get(key)
        if got is None:
            r, m = self._orbit[a]
            if m:
                br = self._untau(b, m)
                d, expect = self.dim(r, br), self.cc.hom_dim_c(a, b)
                if d != expect:
                    raise MeshConsistencyError(
                        f"mesh basis of Hom({r},{br}) has {d} elements, "
                        f"additive count of Hom({a},{b}) gives {expect}")
                move = self._move(m)
                got = frozenset(sorted([move[x][0]
                                        for x in self.hammock(r, br)]))
            else:
                got = self._sweep(a, b) if self.dim(a, b) else None
            got = self._hammocks[key] = got or _NO_OBJECTS
        return got

    def nonzero_path(self, path) -> bool:
        """Whether the arrows of path (a list of cids) compose to nonzero,
        read on F_r for path[0] = tau^m r as the tau^-m image of the path."""
        r, m = self._orbit[path[0]]
        back = [self._untau(v, m) for v in path]
        return self.functor(r).apply_path(
            zip(back, back[1:]), r, 0, (1,)) is not None

    def _untau(self, y: int, m: int) -> int:
        """tau^-m y."""
        tau_inv = self.cc.tau_inv
        for _ in range(m):
            y = tau_inv[y]
        return y

    def _sweep(self, a: int, b: int) -> frozenset:
        """H(a, b) swept over the knitted cover vertices of F_a, top down.
        R(v) is the row span of the functionals on F_a(v) that some arrow
        path carries to a lift of b: all of them at a lift of b, elsewhere
        the span of R(w) . act[v -> w] over the arrows v -> w.  Arrow paths
        span every Hom space of the mesh category, so x belongs exactly when
        R != 0 at some lift of x.  A vertex c with Hom(c, b) = 0 is skipped;
        that count is read as dim Hom(b, tau^2 c) from the one row of b, by
        Serre duality Hom(X, Y) = D Hom(Y, X[2]) with [1] = tau on objects.
        R(v) is an integer echelon basis, kept only for the sweep."""
        fa, cc = self.functor(a), self.cc
        basis, act = fa.basis, fa.act
        to_b, tau = cc.hom_row_c(b), cc.tau
        succ, offsets = cc.succ, cc.arrow_offsets
        spans = {}
        found = set()
        # every arrow of the cover raises the height, and knit order (which
        # CoverFunctor.moved keeps) ascends it, so reversed it is top down
        for (c, k), recs in reversed(basis.items()):
            d = len(recs)
            if not d or not to_b[tau[tau[c]]]:
                continue
            if c == b:
                span = [(i, tuple(int(i == j) for j in range(d)))
                        for i in range(d)]
            else:
                span = []
                for w in succ[c]:
                    kw = k + offsets[(c, w)]
                    mat = act.get((c, w, k))
                    if len(basis.get((w, kw), ())) != (
                            0 if mat is None else len(mat)):
                        raise MeshConsistencyError(
                            f"arrow {c}->{w} of Hom({a}, -) has no matrix "
                            "matching its knitted vertices")
                    for _p, row in spans.get((w, kw), ()):
                        if len(span) < d:
                            _echelon_add(span, [sum(map(mul, col, row))
                                                for col in zip(*mat)])
            if span:
                spans[(c, k)] = span
                found.add(c)
        # filled in cid order: a set's iteration order can depend on the
        # order it was filled in, and the reports print these sets
        return frozenset(x for x in cc.cids() if x in found)

    def _intern(self, value):
        return self._interned.setdefault(value, value)
