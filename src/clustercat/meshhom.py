"""Explicit Hom spaces of the cluster category via mesh functors on the cover.

For a fixed source X the functor Hom(X, -) is knitted over the universal
cover of the AR quiver: the cover vertex (v, k) sits at global height
height(v) + k * winding, the seed (X, 0) carries the identity, and every
higher vertex V with translate U and mesh middles E_1..E_r gets

    F(V) = (F(E_1) + ... + F(E_r)) / image(F(U)),

the cokernel of the mesh map.  Exactness of the mesh (AR triangle) makes
this the genuine Hom space at every vertex above the seed.  Each basis
element remembers one representative path of arrows from the seed, so
composition is path application through the stored arrow matrices.

Knitting stops early: the mesh at height g reads only heights g - 1 (the
middles) and g - 2 (the translate), so once two consecutive height levels
vanish everything above them vanishes too, and no vertex above is built.
Supports die after at most 2h + 3 levels (h the Coxeter number); the window
of 4h + 2 levels stays as a hard cap, and support reaching its top two
levels means the window or the theory is wrong and raises
MeshConsistencyError.

All coordinates are exact integers.  Every mesh cokernel is taken by an
integer row reduction that accepts only pivots +-1, so the action matrices
stay integral (entries in {-1, 0, 1} on types A and D); any other pivot
raises MeshConsistencyError rather than falling back to Fractions.
HomElement still accepts rational coefficients, which compose exactly.
Basis order is deterministic: cover vertices by (height, cid), mesh
middles by cid, quotient bases by the free indices of the rref.
"""

from __future__ import annotations

from .cluster import ClusterCategory, MeshConsistencyError
from .linalg import matvec, unit_quotient_basis


class HomElement:
    """Morphism X -> Y as level-indexed coordinate vectors in F_X."""

    __slots__ = ("cc", "src", "tgt", "comps")

    def __init__(self, cc, src, tgt, comps):
        self.cc = cc
        self.src = src
        self.tgt = tgt
        self.comps = {k: tuple(v) for k, v in comps.items() if any(v)}

    def is_zero(self):
        return not self.comps

    def __add__(self, other):
        if (other.src, other.tgt) != (self.src, self.tgt):
            raise ValueError("cannot add morphisms with different ends")
        comps = dict(self.comps)
        for k, v in other.comps.items():
            if k in comps:
                comps[k] = tuple(a + b for a, b in zip(comps[k], v))
            else:
                comps[k] = v
        return HomElement(self.cc, self.src, self.tgt, comps)

    def scale(self, c):
        return HomElement(self.cc, self.src, self.tgt,
                          {k: tuple(c * a for a in v) for k, v in self.comps.items()})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, HomElement)
                and (self.src, self.tgt) == (other.src, other.tgt)
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.src, self.tgt,
                     tuple(sorted(self.comps.items()))))

    def __repr__(self):
        if self.is_zero():
            return f"0: {self.src}->{self.tgt}"
        parts = ", ".join(f"{k}:{list(v)}" for k, v in sorted(self.comps.items()))
        return f"Hom({self.src}->{self.tgt}; {parts})"


class CoverFunctor:
    """Hom(X, -) on the cover window, with path representatives.

    levels[y] lists the (level, dimension) pairs of the nonzero lifts of y,
    sorted by level.
    """

    def __init__(self, cc: ClusterCategory, src: int):
        self.cc = cc
        self.src = src
        h = cc.quiver.coxeter_number()
        H = cc.winding
        g0 = cc.height[src]
        top = g0 + 4 * h + 2
        verts = []
        for c in cc.cids():
            hb = cc.height[c]
            kmin = -((hb - g0) // H) if hb >= g0 else (g0 - hb + H - 1) // H
            k = kmin
            while hb + k * H <= top:
                if hb + k * H >= g0:
                    verts.append((hb + k * H, c, k))
                k += 1
        verts.sort()

        self.basis: dict[tuple[int, int], list[tuple]] = {}
        self.act: dict[tuple[int, int, int], tuple] = {}
        last = g0  # highest height with a nonzero vertex so far
        for g, c, k in verts:
            if g - last > 2:
                break
            if g == g0:
                self.basis[(c, k)] = [()] if c == src else []
                continue
            w = cc.tau[c]
            kw = k + cc.tau_level_offset(c)
            ubasis = self.basis.get((w, kw), ())
            blocks = []
            for p in cc.pred[c]:
                kp = k - cc.arrow_level_offset(p, c)
                blocks.append((p, kp, self.basis.get((p, kp), ())))
            amb = sum(len(bp) for _, _, bp in blocks)
            span = []
            for j in range(len(ubasis)):
                col = []
                for p, kp, bp in blocks:
                    if bp:
                        a = self.act[(w, p, kw)]
                        col.extend(a[r][j] for r in range(len(bp)))
                span.append(tuple(col))
            free, proj = unit_quotient_basis(span, amb)
            recs = []
            offsets = []
            off = 0
            for p, kp, bp in blocks:
                offsets.append(off)
                off += len(bp)
            for f in free:
                for (p, kp, bp), o in zip(blocks, offsets):
                    if o <= f < o + len(bp):
                        recs.append(bp[f - o] + ((p, c),))
                        break
            self.basis[(c, k)] = recs
            if recs:
                last = g
            for (p, kp, bp), o in zip(blocks, offsets):
                self.act[(p, c, kp)] = tuple(
                    tuple(row[o + j] for j in range(len(bp))) for row in proj)

        if last > top - 2:
            raise MeshConsistencyError(
                f"Hom({src}, -) support reached the cover window boundary")

        self.levels: dict[int, list[tuple[int, int]]] = {}
        for (c, k), recs in self.basis.items():
            if recs:
                self.levels.setdefault(c, []).append((k, len(recs)))
        for lv in self.levels.values():
            lv.sort()

    def apply_path(self, path, start, level, vec):
        """Push vec in F(start, level) through a path of AR-quiver arrows.

        Returns (end_vertex, end_level, vec) or None when the result is zero.
        """
        cc = self.cc
        cur, lvl, v = start, level, tuple(vec)
        for a, b in path:
            if a != cur:
                raise ValueError("path does not start where the previous arrow ended")
            mat = self.act.get((a, b, lvl))
            if mat is None:
                if any(v):
                    raise MeshConsistencyError(
                        "nonzero morphism escaped the cover window")
                return None
            v = matvec(mat, v)
            lvl += cc.arrow_level_offset(a, b)
            cur = b
        if not any(v):
            return None
        return cur, lvl, v


class MeshHomEngine:
    def __init__(self, cc: ClusterCategory):
        self.cc = cc
        self._functors: dict[int, CoverFunctor] = {}

    def functor(self, x: int) -> CoverFunctor:
        got = self._functors.get(x)
        if got is None:
            got = CoverFunctor(self.cc, x)
            self._functors[x] = got
        return got

    def levels(self, x: int, y: int):
        """Sorted (level, dimension) pairs with nonzero F_x at lifts of y."""
        return self.functor(x).levels.get(y, ())

    def hom_basis(self, x: int, y: int):
        elems = []
        for k, dim in self.levels(x, y):
            for j in range(dim):
                vec = tuple(int(i == j) for i in range(dim))
                elems.append(HomElement(self.cc, x, y, {k: vec}))
        expect = self.cc.hom_dim_c(x, y)
        if len(elems) != expect:
            raise MeshConsistencyError(
                f"mesh basis of Hom({x},{y}) has {len(elems)} elements, "
                f"additive count gives {expect}")
        return elems

    def coords(self, elem: HomElement):
        """Coordinates of elem in hom_basis(src, tgt) order."""
        levels = self.levels(elem.src, elem.tgt)
        out = []
        for k, dim in levels:
            v = elem.comps.get(k)
            out.extend(v if v is not None else (0,) * dim)
        for k in elem.comps:
            if all(k != lk for lk, _ in levels):
                raise MeshConsistencyError("component outside the Hom basis levels")
        return tuple(out)

    def identity(self, x: int):
        return HomElement(self.cc, x, x, {0: (1,)})

    def zero(self, x: int, y: int):
        return HomElement(self.cc, x, y, {})

    def arrow_element(self, x: int, y: int):
        if y not in self.cc.succ[x]:
            raise ValueError(f"no arrow {x}->{y} in the AR quiver")
        fx = self.functor(x)
        res = fx.apply_path(((x, y),), x, 0, (1,))
        if res is None:
            return self.zero(x, y)
        _, lvl, v = res
        return HomElement(self.cc, x, y, {lvl: v})

    def compose(self, g: HomElement, h: HomElement) -> HomElement:
        """h after g."""
        if g.tgt != h.src:
            raise ValueError("morphisms are not composable")
        fx = self.functor(g.src)
        fy = self.functor(h.src)
        acc: dict[int, list] = {}
        for l, hv in h.comps.items():
            recs = fy.basis[(h.tgt, l)]
            for b, coeff in enumerate(hv):
                if coeff == 0:
                    continue
                for k, gv in g.comps.items():
                    res = fx.apply_path(recs[b], h.src, k, gv)
                    if res is None:
                        continue
                    cur, lvl, v = res
                    if cur != h.tgt or lvl != k + l:
                        raise MeshConsistencyError("path application lost track")
                    slot = acc.get(lvl)
                    if slot is None:
                        acc[lvl] = [coeff * a for a in v]
                    else:
                        for i, a in enumerate(v):
                            slot[i] += coeff * a
        return HomElement(self.cc, g.src, h.tgt, {k: tuple(v) for k, v in acc.items()})
