"""The cluster category of a Dynkin quiver as a finite stable translation quiver.

Objects are the indecomposables of mod kQ plus one shifted projective P_i[1]
per vertex.  The translate tau is total: on a non-projective module it is the
module-category translate, tau(P_i) = P_i[1], and tau(P_i[1]) = I_i.  The
shift [1] coincides with tau as a map on vertices.  Arrows extend the module
AR quiver by mesh closure: predecessors of every vertex must equal the
successors of its translate.

Hom dimensions come from the orbit-category sum Hom(X, Y) + Hom(X, FY) in the
derived category with F = tau^{-1} [1]; only those two summands survive for a
hereditary Dynkin algebra.  They are counted a row Hom(X, -) at a time, and
Ext^1 = 0 is kept per object as a bit mask of cids (compatible), which
tilting reads.  Explicit morphism spaces live in meshhom, reached through
hom_basis/compose here; a morphism is its coordinate tuple.

The integer grading ("height") makes every arrow raise the height by exactly
1 and tau lower it by 2.  On the finite quotient the height is only defined
modulo the winding constant H; unrolling it by integer levels reconstructs
the universal cover on which meshhom works.
"""

from __future__ import annotations

import math

# MeshConsistencyError is re-exported: clustercat.cluster keeps the name
from .dynkin import MeshConsistencyError, QuiverDescriptor, knit


class Table(dict):
    """A memo table whose entry depends on its key alone: reading a missing
    key stores and returns fill(key), and a fill that raises stores
    nothing.  `in` and get() read without filling.  A fill refers to no
    owner of the table, so a table never keeps its owner alive."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


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
        self._check_tau_is_automorphism()
        # per cid Y: the module Y (None for a P_v[1]), and the module Z with
        # Z[1] the summand of Y + FY one shift up in D: tau^-1 Y (None for
        # an injective Y), or P_v for Y = P_v[1]
        self._hom_keys = [
            (Y.mid, self.mod.tau_inv.get(Y.mid)) if Y.kind == "mod"
            else (None, self.mod.proj_mid[Y.vertex]) for Y in self.indecs]
        self._hom_memo: dict[tuple[int, int], int] = {}
        self._hom_rows: dict[int, tuple] = {}  # x -> dim Hom_C(X, Y) per cid Y
        self._compatible: dict[int, int] = {}  # x -> compatible(x)
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

    def _check_tau_is_automorphism(self):
        """tau moves arrows to arrows and their level offsets along.

        meshhom builds Hom(tau^m x, -) by relabelling Hom(x, -), which is
        sound exactly when tau(succ(c)) = succ(tau c) for every c and each
        arrow p -> c keeps its cover lift under tau: offset(tau p, tau c) =
        offset(p, c) + tau_offset(c) - tau_offset(p).
        """
        tau, t = self.tau, self.tau_offsets
        for c in self.cids():
            if set(self.succ[tau[c]]) != {tau[y] for y in self.succ[c]}:
                raise MeshConsistencyError(
                    f"tau does not carry the arrows out of {self.indecs[c]}")
        for (p, c), off in self.arrow_offsets.items():
            if self.arrow_offsets.get((tau[p], tau[c])) != off + t[c] - t[p]:
                raise MeshConsistencyError(
                    f"tau moves the cover lift of the arrow {p}->{c}")

    # -- Hom dimensions (derived-category route) ----------------------------

    def hom_parts_c(self, x: int, y: int) -> tuple[int, int]:
        """(dim Hom_D(X, Y), dim Hom_D(X, FY)): the parts of Hom_C(X, Y) of
        F-degree 0 and 1, for X and Y in the fundamental domain."""
        X, Y = self.indecs[x], self.indecs[y]
        mod = self.mod
        up = mod.tau_inv.get(Y.mid)  # tau^-1 Y; None if Y is injective or P[1]
        if X.kind == "mod" and Y.kind == "mod":
            return (mod.hom_dim(X.mid, Y.mid),
                    0 if up is None else mod.ext_dim(X.mid, up))
        if X.kind == "mod":
            return mod.ext_dim(X.mid, mod.proj_mid[Y.vertex]), 0
        if Y.kind == "mod":
            return 0, (0 if up is None else mod.dim(up)[X.vertex - 1])
        return mod.dim(mod.proj_mid[Y.vertex])[X.vertex - 1], 0

    def hom_row_c(self, x: int) -> tuple:
        """dim Hom_C(X, Y) for every cid Y in turn, the sums of hom_parts_c,
        built once per x in one pass over the Hom rows of mod kQ and their
        transpose; each entry is stored once in hom_dim_c's memo too.

        With Z[1] the summand of Y + FY one shift up (see _hom_keys), the sum
        is Hom(X, Y) + Ext^1(X, Z) for a module X, Ext^1(X, Z) = D Hom(Z,
        tau X) by the Auslander-Reiten formula, and Hom(P_v, Z) for X =
        P_v[1]."""
        got = self._hom_rows.get(x)
        if got is None:
            mod, X = self.mod, self.indecs[x]
            rows = mod._rows()
            if X.kind == "shift":
                pv = rows[mod.proj_mid[X.vertex]]
                row = [0 if z is None else pv[z] for _m, z in self._hom_keys]
            else:
                r = rows[X.mid]
                row = [0 if m is None else r[m] for m, _z in self._hom_keys]
                t = mod.tau.get(X.mid)  # None for a projective X
                if t is not None:
                    col = [rz[t] for rz in rows]  # Hom(-, tau X)
                    for y, (_m, z) in enumerate(self._hom_keys):
                        if z is not None:
                            row[y] += col[z]
            got = self._hom_rows[x] = tuple(row)
            memo = self._hom_memo
            for y, d in enumerate(got):
                memo[(x, y)] = d
        return got

    def hom_dim_c(self, x: int, y: int) -> int:
        """dim Hom_C(X, Y) = dim Hom_D(X, Y) + dim Hom_D(X, FY); a miss
        fills the whole row of x (hom_row_c)."""
        got = self._hom_memo.get((x, y))
        if got is None:
            got = self.hom_row_c(x)[y]
        return got

    def ext1_c(self, x: int, y: int) -> int:
        """dim Ext^1_C(X, Y) = dim Hom_C(X, Y[1])."""
        return self.hom_dim_c(x, self.shift(y))

    def compatible(self, x: int) -> int:
        """The int bit mask of the cids y with Ext^1_C(X, Y) = 0: bit y is
        set when hom_row_c(x)[tau y] = 0, as Y[1] = tau Y.  Built once per
        x; bit x is set exactly when X is rigid."""
        got = self._compatible.get(x)
        if got is None:
            row, tau = self.hom_row_c(x), self.tau
            got = 0
            for y in self.cids():
                if not row[tau[y]]:
                    got |= 1 << y
            self._compatible[x] = got
        return got

    # -- morphism spaces (mesh-category route) ------------------------------

    def _get_engine(self):
        if self._engine is None:
            from .meshhom import MeshHomEngine

            self._engine = MeshHomEngine(self)
        return self._engine

    def hom_basis(self, x: int, y: int):
        """Unit coordinate vectors of Hom_C(X, Y); hom_basis(x, x)[0] is 1_X.

        Cardinality is checked against hom_row_c (once per functor Hom(X,
        -), when it is built); disagreement raises MeshConsistencyError.
        """
        return self._get_engine().hom_basis(x, y)

    def compose(self, x: int, y: int, z: int, g, h):
        """h after g, for coordinate tuples g: X -> Y and h: Y -> Z."""
        return self._get_engine().compose(x, y, z, g, h)

    def arrow_element(self, x: int, y: int):
        return self._get_engine().arrow_element(x, y)

