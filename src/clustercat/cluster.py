"""The cluster category of a Dynkin quiver as a finite stable translation quiver.

Objects are the indecomposables of mod kQ plus one shifted projective P_i[1]
per vertex.  The translate tau is total: on a non-projective module it is the
module-category translate, tau(P_i) = P_i[1], and tau(P_i[1]) = I_i.  The
shift [1] coincides with tau as a map on vertices.  Arrows extend the module
AR quiver by mesh closure: predecessors of every vertex must equal the
successors of its translate.

Hom dimensions come from the orbit-category sum Hom(X, Y) + Hom(X, FY) in the
derived category with F = tau^{-1} [1]; only those two summands survive for a
hereditary Dynkin algebra.  Explicit morphism spaces with composition live in
meshhom and are reached through hom_basis/compose here.

The integer grading ("height") makes every arrow raise the height by exactly
1 and tau lower it by 2.  On the finite quotient the height is only defined
modulo the winding constant H; unrolling it by integer levels reconstructs
the universal cover on which meshhom works.
"""

from __future__ import annotations

import math

from .dynkin import QuiverDescriptor, knit


class MeshConsistencyError(RuntimeError):
    """Cross-engine disagreement or exhausted cover window; always a bug."""


class ClusterIndec:
    __slots__ = ("cid", "kind", "mid", "vertex", "dim")

    def __init__(self, cid, kind, mid=None, vertex=None, dim=None):
        self.cid = cid
        self.kind = kind  # "mod" | "shift"
        self.mid = mid
        self.vertex = vertex
        self.dim = dim

    def __repr__(self):
        if self.kind == "shift":
            return f"P{self.vertex}[1]"
        return f"C{self.cid}{list(self.dim)}"


class ClusterCategory:
    def __init__(self, quiver: QuiverDescriptor):
        self.quiver = quiver
        self.mod = knit(quiver)
        self.n = quiver.rank
        self.indecs: list[ClusterIndec] = []
        self._mod_cid = {}
        self._shift_cid = {}
        for m in self.mod.indecs:
            cid = len(self.indecs)
            self.indecs.append(ClusterIndec(cid, "mod", mid=m.mid, dim=m.dim))
            self._mod_cid[m.mid] = cid
        for v in quiver.vertices:
            cid = len(self.indecs)
            self.indecs.append(ClusterIndec(cid, "shift", vertex=v))
            self._shift_cid[v] = cid

        self.tau: dict[int, int] = {}
        for m in self.mod.indecs:
            if m.mid in self.mod.tau:
                self.tau[self._mod_cid[m.mid]] = self._mod_cid[self.mod.tau[m.mid]]
            else:  # projective
                self.tau[self._mod_cid[m.mid]] = self._shift_cid[m.orbit]
        for v in quiver.vertices:
            self.tau[self._shift_cid[v]] = self._mod_cid[self.mod.inj_mid[v]]
        if sorted(self.tau.values()) != list(range(len(self.indecs))):
            raise MeshConsistencyError("tau is not a permutation")
        self.tau_inv = {v: k for k, v in self.tau.items()}

        self._build_arrows()
        self._build_heights()
        self._hom_memo: dict[tuple[int, int], int] = {}
        self._engine = None

    # -- structure ----------------------------------------------------------

    def module_cid(self, mid):
        return self._mod_cid[mid]

    def cids(self):
        return range(len(self.indecs))

    def shift(self, cid):
        """The suspension [1] on vertices; equals tau here."""
        return self.tau[cid]

    def _build_arrows(self):
        succ = {c: set() for c in self.cids()}
        pred = {c: set() for c in self.cids()}
        for x, ys in self.mod.succ.items():
            for y in ys:
                succ[self._mod_cid[x]].add(self._mod_cid[y])
                pred[self._mod_cid[y]].add(self._mod_cid[x])

        changed = True
        while changed:
            changed = False
            for z in self.cids():
                w = self.tau[z]
                for x in succ[w] - pred[z]:
                    succ[x].add(z)
                    pred[z].add(x)
                    changed = True
                for x in pred[z] - succ[w]:
                    succ[w].add(x)
                    pred[x].add(w)
                    changed = True
        for z in self.cids():
            if pred[z] != succ[self.tau[z]]:
                raise MeshConsistencyError(f"mesh closure failed at {self.indecs[z]}")
            if z in succ[z]:
                raise MeshConsistencyError(f"loop at {self.indecs[z]}")
        self.succ = {c: tuple(sorted(succ[c])) for c in self.cids()}
        self.pred = {c: tuple(sorted(pred[c])) for c in self.cids()}

    def arrows(self):
        return [(x, y) for x in self.cids() for y in self.succ[x]]

    def _build_heights(self):
        """Height modulo the winding constant H, plus per-edge level offsets.

        BFS assigns provisional integer heights along arrows (+1) and tau
        (-2); every inconsistency around a cycle is a multiple of H, and
        their gcd is H itself because the quotient's fundamental group is
        generated by a single winding loop.
        """
        raw = {0: 0}
        order = [0]
        queue = [0]
        disc = []
        edges = []  # (u, v, delta) with h(v) = h(u) + delta
        for x in self.cids():
            for y in self.succ[x]:
                edges.append((x, y, 1))
            edges.append((x, self.tau[x], -2))
        adj = {c: [] for c in self.cids()}
        for u, v, d in edges:
            adj[u].append((v, d))
            adj[v].append((u, -d))
        while queue:
            u = queue.pop()
            for v, d in adj[u]:
                if v in raw:
                    gap = raw[u] + d - raw[v]
                    if gap:
                        disc.append(abs(gap))
                else:
                    raw[v] = raw[u] + d
                    order.append(v)
                    queue.append(v)
        if len(raw) != len(self.indecs):
            raise MeshConsistencyError("cluster AR quiver is not connected")
        if not disc:
            raise MeshConsistencyError("no winding found; quotient cannot be finite")
        winding = 0
        for g in disc:
            winding = math.gcd(winding, g)
        self.winding = winding
        self.height = {c: raw[c] % winding for c in self.cids()}
        # level offsets of every arrow and every translate, for the cover
        self.arrow_offsets = {}
        for x, y in self.arrows():
            off, rem = divmod(self.height[x] + 1 - self.height[y], winding)
            if rem:
                raise MeshConsistencyError(f"inconsistent height along arrow {x}->{y}")
            self.arrow_offsets[(x, y)] = off
        self.tau_offsets = {}
        for x in self.cids():
            off, rem = divmod(self.height[x] - 2 - self.height[self.tau[x]], winding)
            if rem:
                raise MeshConsistencyError(f"inconsistent height along tau at {x}")
            self.tau_offsets[x] = off

    # -- Hom dimensions (derived-category route) ----------------------------

    def hom_dim_c(self, x: int, y: int) -> int:
        """dim Hom_C(X, Y) = dim Hom_D(X, Y) + dim Hom_D(X, FY)."""
        key = (x, y)
        got = self._hom_memo.get(key)
        if got is not None:
            return got
        X, Y = self.indecs[x], self.indecs[y]
        mod = self.mod
        if X.kind == "mod" and Y.kind == "mod":
            total = mod.hom_dim(X.mid, Y.mid)
            if Y.mid in mod.tau_inv:
                total += mod.ext_dim(X.mid, mod.tau_inv[Y.mid])
        elif X.kind == "mod":
            total = mod.ext_dim(X.mid, mod.proj_mid[Y.vertex])
        elif Y.kind == "mod":
            if Y.mid in mod.tau_inv:
                total = mod.dim(mod.tau_inv[Y.mid])[X.vertex - 1]
            else:
                total = 0
        else:
            total = mod.dim(mod.proj_mid[Y.vertex])[X.vertex - 1]
        self._hom_memo[key] = total
        return total

    def ext1_c(self, x: int, y: int) -> int:
        """dim Ext^1_C(X, Y) = dim Hom_C(X, Y[1])."""
        return self.hom_dim_c(x, self.shift(y))

    # -- morphism spaces (mesh-category route) ------------------------------

    def _get_engine(self):
        if self._engine is None:
            from .meshhom import MeshHomEngine

            self._engine = MeshHomEngine(self)
        return self._engine

    def hom_basis(self, x: int, y: int):
        """Basis of Hom_C(X, Y) in the mesh category of the AR quiver.

        Cardinality is checked against hom_dim_c (once per pair, since the
        mesh levels never change); disagreement raises MeshConsistencyError.
        """
        return self._get_engine().hom_basis(x, y)

    def compose(self, g, h):
        """h after g, for g: X -> Y and h: Y -> Z."""
        return self._get_engine().compose(g, h)

    def identity_element(self, x: int):
        return self._get_engine().identity(x)

    def arrow_element(self, x: int, y: int):
        return self._get_engine().arrow_element(x, y)


def build_cluster(quiver: QuiverDescriptor) -> ClusterCategory:
    return ClusterCategory(quiver)
