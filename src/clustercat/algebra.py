"""Endomorphism algebras of cluster-tilting objects and their modules.

The algebra of a tilting object T = T_1 + ... + T_n is the direct sum of all
Hom_C(T_i, T_j) with composition as multiplication.  Each End(T_i) is local
with a one-dimensional semisimple part, so the identity of the algebra is
the sum of the level-0 basis elements and the radical is spanned by every
other basis element.

An arrow i -> j of the Gabriel quiver corresponds to an irreducible morphism
T_j -> T_i; with that convention the hereditary case T = kQ gives back Q
itself.  Multiplicities are dim rad/rad^2 in the matching Hom component.

Modules are plain coordinate data: a dimension per label and one matrix per
algebra basis element f in Hom(T_i, T_j), acting V_j -> V_i by
precomposition.  Hom_C(T, M) is such a module, projectives are Hom_C(T, T_k),
and syzygies are kernels of minimal projective covers with the restricted
action.  Syzygies decide the projective dimension class: 0, 1, or infinite;
a finite dimension of 2 or more cannot occur and is guarded by an assertion
on the third syzygy.
"""

from __future__ import annotations

import enum

from .cluster import ClusterCategory, MeshConsistencyError
from .linalg import matvec, quotient_basis, rank
from .tilting import TiltingObject

_ONE = 1


class PdClass(enum.Enum):
    ZERO = "0"
    ONE = "1"
    INFINITE = "inf"

    def __str__(self):
        return self.value


class ClusterTiltedAlgebra:
    def __init__(self, cc: ClusterCategory, tilting: TiltingObject):
        self.cc = cc
        self.tilting = tilting
        self.n = len(tilting)
        self.labels = tuple(range(1, self.n + 1))
        self.summand = {i: tilting[i - 1] for i in self.labels}
        self._engine = cc._get_engine()
        self.hom = {}
        for i in self.labels:
            for j in self.labels:
                self.hom[(i, j)] = cc.hom_basis(self.summand[i], self.summand[j])
        self.hom_dims = {key: len(b) for key, b in self.hom.items()}
        self.dim = sum(self.hom_dims.values())
        self._radical_keys = tuple(
            (i, j, b) for (i, j), d in self.hom_dims.items()
            for b in range(1 if i == j else 0, d))
        for i in self.labels:
            ident = self._engine.identity(self.summand[i])
            if not self.hom[(i, i)] or self.hom[(i, i)][0] != ident:
                raise MeshConsistencyError(
                    "identity is not the first End basis element")
        self._mult: dict[tuple[int, int, int], list[list[tuple]]] = {}
        self._rad_pow: dict[int, dict[tuple[int, int], list[tuple]]] = {}
        self._proj: dict[int, AlgebraModule] = {}

    def hom_dim(self, i: int, j: int) -> int:
        return self.hom_dims[(i, j)]

    def coords(self, elem):
        return self._engine.coords(elem)

    def mult_table(self, i: int, j: int, k: int):
        """coords of hom[i,j][a] . hom[j,k][b] in the (i,k) basis."""
        key = (i, j, k)
        got = self._mult.get(key)
        if got is None:
            eng = self._engine
            got = [[eng.coords(eng.compose(f, g)) for g in self.hom[(j, k)]]
                   for f in self.hom[(i, j)]]
            self._mult[key] = got
        return got

    def radical_keys(self):
        """(i, j, b) triples indexing a basis of the radical."""
        return self._radical_keys

    def radical_power_spans(self, m: int):
        """Spanning vectors of (rad^m)_{(i,j)} in hom coordinates, per (i,j)."""
        if m < 1:
            raise ValueError("radical powers start at 1")
        got = self._rad_pow.get(m)
        if got is not None:
            return got
        spans: dict[tuple[int, int], list[tuple]] = {
            (i, j): [] for i in self.labels for j in self.labels}
        if m == 1:
            for i, j, b in self.radical_keys():
                d = self.hom_dim(i, j)
                spans[(i, j)].append(
                    tuple(_ONE if t == b else 0 for t in range(d)))
        else:
            prev = self.radical_power_spans(m - 1)
            for i in self.labels:
                for j in self.labels:
                    for vec in prev[(i, j)]:
                        for k in self.labels:
                            start = 1 if j == k else 0
                            for b in range(start, self.hom_dim(j, k)):
                                table = self.mult_table(i, j, k)
                                out = None
                                for a, ca in enumerate(vec):
                                    if not ca:
                                        continue
                                    row = table[a][b]
                                    if out is None:
                                        out = [ca * x for x in row]
                                    else:
                                        for t, x in enumerate(row):
                                            out[t] += ca * x
                                if out and any(out):
                                    spans[(i, k)].append(tuple(out))
        self._rad_pow[m] = spans
        return spans

    def radical_power_dim(self, m: int) -> int:
        return sum(rank(vs) for vs in self.radical_power_spans(m).values())

    def gabriel_arrows(self):
        """(i, j, multiplicity) per Gabriel arrow i -> j, multiplicity >= 1."""
        rad2 = self.radical_power_spans(2)
        arrows = []
        for i in self.labels:
            for j in self.labels:
                d = self.hom_dim(j, i)
                if d - (1 if i == j else 0) == 0:
                    continue
                span = list(rad2[(j, i)])
                if i == j:
                    # quotient by the identity line as well, leaving rad/rad^2
                    span.append(tuple(_ONE if t == 0 else 0 for t in range(d)))
                mult = d - rank(span)
                if mult > 0:
                    arrows.append((i, j, mult))
        return arrows

    def arrow_representatives(self):
        """One Hom element per Gabriel arrow (i, j), modulo rad^2."""
        rad2 = self.radical_power_spans(2)
        reps: dict[tuple[int, int], list] = {}
        for i, j, mult in self.gabriel_arrows():
            span = list(rad2[(j, i)])
            d = self.hom_dim(j, i)
            if i == j:
                span.append(tuple(_ONE if t == 0 else 0 for t in range(d)))
            free, _ = quotient_basis(span, d)
            if len(free) != mult:
                raise MeshConsistencyError("arrow count and complement disagree")
            reps[(i, j)] = [self.hom[(j, i)][f] for f in free]
        return reps

    def gabriel_quiver_is_acyclic(self) -> bool:
        arrows = [(i, j) for i, j, _ in self.gabriel_arrows()]
        out = {i: [] for i in self.labels}
        for i, j in arrows:
            if i == j:
                return False
            out[i].append(j)
        state = {i: 0 for i in self.labels}

        def dfs(v):
            state[v] = 1
            for w in out[v]:
                if state[w] == 1 or (state[w] == 0 and dfs(w)):
                    return True
            state[v] = 2
            return False

        return not any(state[v] == 0 and dfs(v) for v in self.labels)

    def projective_module(self, k: int) -> "AlgebraModule":
        got = self._proj.get(k)
        if got is None:
            dims = {i: self.hom_dim(i, k) for i in self.labels}
            act = {}
            for i in self.labels:
                for j in self.labels:
                    table = self.mult_table(i, j, k)
                    for b in range(self.hom_dim(i, j)):
                        # f = hom[i,j][b] sends g in Hom(T_j,T_k) to g.f
                        cols = [table[b][g] for g in range(self.hom_dim(j, k))]
                        act[(i, j, b)] = tuple(
                            tuple(col[r] for col in cols)
                            for r in range(self.hom_dim(i, k)))
            got = AlgebraModule(self, dims, act)
            self._proj[k] = got
        return got


class AlgebraModule:
    """Coordinate module: dims per label, one matrix per algebra basis element.

    act[(i, j, b)] is the matrix of precomposition with hom[i,j][b], mapping
    the label-j component to the label-i component.
    """

    __slots__ = ("alg", "dims", "act")

    def __init__(self, alg: ClusterTiltedAlgebra, dims, act):
        self.alg = alg
        self.dims = dict(dims)
        self.act = act

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def dim_vector(self):
        return tuple(self.dims[i] for i in self.alg.labels)

    def radical_image(self):
        """Spanning vectors of (V . rad)_i per label i."""
        spans = {i: [] for i in self.alg.labels}
        for key in self.alg.radical_keys():
            i, j, b = key
            mat = self.act[key]
            for c in range(self.dims[j]):
                col = tuple(mat[r][c] for r in range(self.dims[i]))
                if any(col):
                    spans[i].append(col)
        return spans

    def top_lifts(self):
        """(label, index) pairs: the unit vectors lifting a basis of V / V.rad."""
        spans = self.radical_image()
        return [(k, f) for k in self.alg.labels
                for f in quotient_basis(spans[k], self.dims[k])[0]]

    def syzygy(self) -> "AlgebraModule":
        """Kernel of the minimal projective cover, with restricted action.

        The cover sends basis element b of the summand P_k at a lift e_f to
        column f of act[(i, k, b)].  One row reduction per label gives the
        rank of the cover and a kernel basis that is the identity on the
        free columns, so a kernel vector's coordinates are its entries
        there; rebuilding the vector from them checks that it lies in the
        kernel.
        """
        alg = self.alg
        hom_dims = alg.hom_dims
        lifts = self.top_lifts()
        if not lifts:
            if not self.is_zero():
                raise MeshConsistencyError("nonzero module with zero top")
            return AlgebraModule(alg, {i: 0 for i in alg.labels},
                                 {k: () for k in self.act})
        summands = [(k, alg.projective_module(k)) for k, _ in lifts]
        kernels = {}
        for i in alg.labels:
            rows = [tuple(self.act[(i, k, b)][r][f] for k, f in lifts
                          for b in range(hom_dims[(i, k)]))
                    for r in range(self.dims[i])]
            ncols = sum(hom_dims[(i, k)] for k, _ in lifts)
            free, basis = quotient_basis(rows, ncols)
            if ncols - len(free) != self.dims[i]:
                raise MeshConsistencyError("projective cover is not surjective")
            kernels[i] = free, basis
        dims = {i: len(kernels[i][0]) for i in alg.labels}
        act = {}
        for key in self.act:
            i, j, _b = key
            free, basis = kernels[i]
            cols = []
            for w in kernels[j][1]:
                img = []
                off = 0
                for k, pk in summands:
                    d = hom_dims[(j, k)]
                    img.extend(matvec(pk.act[key], w[off: off + d]))
                    off += d
                coeffs = [img[f] for f in free]
                rebuilt = [0] * len(img)
                for c, u in zip(coeffs, basis):
                    if c:
                        for t, x in enumerate(u):
                            if x:
                                rebuilt[t] += c * x
                if rebuilt != img:
                    raise MeshConsistencyError("syzygy action left the kernel")
                cols.append(coeffs)
            # rows follow the kernel basis of i, columns that of j: the
            # action matrix V_j -> V_i
            act[key] = tuple(tuple(col[r] for col in cols)
                             for r in range(len(free)))
        return AlgebraModule(alg, dims, act)

    def is_projective(self) -> bool:
        return self.syzygy().is_zero()


def build_algebra(cc: ClusterCategory, tilting: TiltingObject) -> ClusterTiltedAlgebra:
    return ClusterTiltedAlgebra(cc, tilting)


def module_of(alg: ClusterTiltedAlgebra, m_cid: int) -> AlgebraModule:
    """Hom_C(T, M) as a module over the algebra; M outside add T[1]."""
    cc = alg.cc
    eng = alg._engine
    bases = {i: cc.hom_basis(alg.summand[i], m_cid) for i in alg.labels}
    dims = {i: len(bases[i]) for i in alg.labels}
    if not any(dims.values()):
        raise ValueError(
            "Hom_C(T, M) = 0: M lies in the shift of the tilting object")
    act = {}
    for i in alg.labels:
        for j in alg.labels:
            for b, f in enumerate(alg.hom[(i, j)]):
                if not dims[i]:
                    # g . f lies in Hom(T_i, M) = 0
                    act[(i, j, b)] = ()
                    continue
                cols = [eng.coords(eng.compose(f, g)) for g in bases[j]]
                act[(i, j, b)] = tuple(tuple(col[r] for col in cols)
                                       for r in range(dims[i]))
    return AlgebraModule(alg, dims, act)


def _syzygy_chain(module: AlgebraModule):
    """Dimension vectors of the syzygies 1..3 of module, and its pd class.

    The chain stops at the first zero syzygy; the later ones are zero as
    well, and its zero vector stands in for them.  A zero third syzygy
    after a nonzero second one would be projective dimension 2, which the
    trichotomy excludes.
    """
    dims = []
    cur = module
    for pd in (PdClass.ZERO, PdClass.ONE, None):
        cur = cur.syzygy()
        dims.append(cur.dim_vector())
        if cur.is_zero():
            if pd is None:
                raise MeshConsistencyError(
                    "projective dimension 2 encountered; "
                    "the trichotomy is violated")
            return tuple(dims) + (dims[-1],) * (3 - len(dims)), pd
    return tuple(dims), PdClass.INFINITE


def pd_class(module: AlgebraModule) -> PdClass:
    return _syzygy_chain(module)[1]


def classify_modules(cc: ClusterCategory, tilting: TiltingObject):
    """(cid, dim vector, syzygy dim vectors, pd class) per M outside add T[1].

    One algebra for the tilting, then one Hom_C(T, M) and one syzygy chain
    per module, in cid order.
    """
    alg = build_algebra(cc, tilting)
    shifted = {cc.shift(s) for s in tilting.summands}
    for m in cc.cids():
        if m not in shifted:
            mod = module_of(alg, m)
            yield (m, mod.dim_vector()) + _syzygy_chain(mod)
