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
live algebra basis element f in Hom(T_i, T_j), acting V_j -> V_i by
precomposition.  A basis element is live when V_i and V_j are both nonzero;
any other acts by the empty matrix that the dimension vector already fixes,
so no matrix is stored for it.  Hom_C(T, M) is such a module, projectives
are Hom_C(T, T_k), and syzygies are kernels of minimal projective covers
with the restricted action.  Syzygies are memoized per algebra by content
(dimension vector and live action matrices): the cover, its row reductions
and every guard run once per distinct module, and a module equal entry for
entry to one seen before gets the stored syzygy back.  The row reductions
beneath them (the top and the kernel of the cover, label by label, and the
identity blocks) are reads of the category's table of quotients,
MeshHomEngine.quotient, shared by every tilting of the category; a pivot
other than +-1 raises MeshConsistencyError, so every action matrix stays
integral.  Syzygies decide the projective dimension class: 0, 1, or
infinite; a finite dimension of 2 or more cannot occur and is guarded by an
assertion on the third syzygy.
"""

from __future__ import annotations

import enum
from operator import mul

from .cluster import ClusterCategory, MeshConsistencyError
from .tilting import TiltingObject

_ONE = 1


class PdClass(enum.Enum):
    ZERO = "0"
    ONE = "1"
    INFINITE = "inf"

    def __str__(self):
        return self.value


class ClusterTiltedAlgebra:
    """End_C(T) as integers only: Hom dimensions, basis keys and reads of
    the category's product and quotient tables.  The Hom engine checks,
    once per object, that the identity of each End(T_i) is its first basis
    element."""

    def __init__(self, cc: ClusterCategory, tilting: TiltingObject):
        self.cc = cc
        self.tilting = tilting
        self.n = len(tilting)
        self.labels = tuple(range(1, self.n + 1))
        self.summand = {i: tilting[i - 1] for i in self.labels}
        self._engine = eng = cc._get_engine()
        self._quotient = eng.quotient
        s = self.summand
        self.hom_dims = {(i, j): eng.dim(s[i], s[j])
                         for i in self.labels for j in self.labels}
        self.dim = sum(self.hom_dims.values())
        # the (i, j, b) keys of the basis elements of each Hom(T_i, T_j) != 0
        self.basis_keys = {(i, j): tuple((i, j, b) for b in range(d))
                           for (i, j), d in self.hom_dims.items() if d}
        self._radical_keys = tuple(
            key for (i, j), keys in self.basis_keys.items()
            for key in keys[1 if i == j else 0:])
        self._rad_pow: dict[int, dict[tuple[int, int], list[tuple]]] = {}
        self._proj: dict[int, tuple] = {}  # k -> (P_k, its moving blocks)
        self._covers: dict[tuple[int, ...], tuple] = {}
        # dim vector -> its live keys; (dim vector, live matrices) -> syzygy
        self._live: dict[tuple, tuple] = {}
        self._syzygies: dict[tuple, AlgebraModule] = {}

    def hom_dim(self, i: int, j: int) -> int:
        return self.hom_dims[(i, j)]

    def products(self, i: int, j: int, k: int):
        """Per basis element f of Hom(T_i, T_j), the matrix of g -> g . f
        from Hom(T_j, T_k) to Hom(T_i, T_k); a read of the category's table."""
        s = self.summand
        return self._engine.products(s[i], s[j], s[k])

    def radical_keys(self):
        """(i, j, b) triples indexing a basis of the radical."""
        return self._radical_keys

    def _live_keys(self, dv):
        """The keys (i, j, b) with dv[i - 1] and dv[j - 1] nonzero, in basis
        key order: the blocks a module of dimension vector dv stores."""
        got = self._live.get(dv)
        if got is None:
            got = self._live[dv] = tuple(
                key for (i, j), keys in self.basis_keys.items()
                if dv[i - 1] and dv[j - 1] for key in keys)
        return got

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
                            if self.hom_dim(j, k) <= start:
                                continue
                            mats = self.products(i, j, k)
                            for b in range(start, self.hom_dim(j, k)):
                                # (sum_a vec[a] f_a) then g_b, in (i,k) coords
                                out = tuple(
                                    sum(ca * mat[r][b]
                                        for ca, mat in zip(vec, mats))
                                    for r in range(self.hom_dim(i, k)))
                                if any(out):
                                    spans[(i, k)].append(out)
        self._rad_pow[m] = spans
        return spans

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
                mult = len(self._quotient(tuple(span), d)[0])
                if mult > 0:
                    arrows.append((i, j, mult))
        return arrows

    def arrow_representatives(self):
        """Per Gabriel arrow (i, j), coordinate tuples in Hom(T_j, T_i) of
        morphisms spanning its arrows modulo rad^2."""
        rad2 = self.radical_power_spans(2)
        reps: dict[tuple[int, int], list] = {}
        s = self.summand
        for i, j, mult in self.gabriel_arrows():
            span = list(rad2[(j, i)])
            d = self.hom_dim(j, i)
            if i == j:
                span.append(tuple(_ONE if t == 0 else 0 for t in range(d)))
            free, _ = self._quotient(tuple(span), d)
            if len(free) != mult:
                raise MeshConsistencyError("arrow count and complement disagree")
            basis = self.cc.hom_basis(s[j], s[i])
            reps[(i, j)] = [basis[f] for f in free]
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

    def _cover(self, tops):
        """The projective sum of P_k, k in tops: its dimensions and moving keys.

        ncols gives the dimension of the sum at each label.  moving maps
        each radical key to the (matrix, row offset, column offset, width)
        of every summand it acts on by a nonzero matrix; a radical key that
        moving lacks acts on the sum by zero.
        """
        got = self._covers.get(tops)
        if got is None:
            # per label, the first coordinate of each summand's block
            starts, ncols = {}, {}
            for i in self.labels:
                off, starts[i] = 0, []
                for k in tops:
                    starts[i].append(off)
                    off += self.hom_dims[(i, k)]
                ncols[i] = off
            moving = {}
            for n, k in enumerate(tops):
                for key, mat in self._projective(k)[1]:
                    i, j, _b = key
                    moving.setdefault(key, []).append(
                        (mat, starts[i][n], starts[j][n],
                         self.hom_dims[(j, k)]))
            got = self._covers[tops] = ncols, moving
        return got

    def projective_module(self, k: int) -> "AlgebraModule":
        """Hom_C(T, T_k), the indecomposable projective at label k.

        The identity of each End(T_i) must act on it as the identity:
        syzygies write their identity blocks and rest on this check.
        """
        return self._projective(k)[0]

    def _projective(self, k: int):
        """(P_k, its moving blocks): the (key, matrix) of every radical key
        acting on P_k by a nonzero matrix, which the covers read."""
        got = self._proj.get(k)
        if got is None:
            mod = module_of(self, self.summand[k])
            for i, d in mod.dims.items():
                if d and mod.act[(i, i, 0)] != self._quotient((), d)[1]:
                    raise MeshConsistencyError(
                        f"the identity of End(T_{i}) does not act as the "
                        f"identity on P_{k}")
            got = self._proj[k] = mod, tuple(
                (key, mat) for key, mat in mod.act.items()
                if (key[2] or key[0] != key[1]) and any(map(any, mat)))
        return got


class AlgebraModule:
    """Coordinate module: dims per label, one matrix per live basis element.

    act[(i, j, b)] is the matrix of precomposition with basis element b of
    Hom(T_i, T_j), mapping the label-j component to the label-i component,
    as a tuple of row tuples: syzygy hashes the matrices to find a module
    it has seen.  act holds exactly the live keys, those with dims[i] and
    dims[j] nonzero; every other key acts by the empty matrix its
    dimensions fix.
    """

    __slots__ = ("alg", "dims", "act")

    def __init__(self, alg: ClusterTiltedAlgebra, dims, act):
        self.alg = alg
        # in label order, which dim_vector reads
        self.dims = {i: dims[i] for i in alg.labels}
        self.act = act

    def is_zero(self) -> bool:
        return not any(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims.values())

    def radical_image(self):
        """Spanning vectors of (V . rad)_i per label i, from the live blocks."""
        act = self.act
        spans = {i: [] for i in self.alg.labels}
        for key in self.alg._live_keys(self.dim_vector()):
            i, j, b = key
            if b or i != j:
                spans[i].extend(col for col in zip(*act[key]) if any(col))
        return spans

    def top_lifts(self):
        """(label, index) pairs: the unit vectors lifting a basis of V / V.rad."""
        spans, quotient = self.radical_image(), self.alg._quotient
        # a zero label has no top; skipping it saves a quotient per label
        return [(k, f) for k in self.alg.labels if self.dims[k]
                for f in quotient(tuple(spans[k]), self.dims[k])[0]]

    def syzygy(self) -> "AlgebraModule":
        """Kernel of the minimal projective cover, with restricted action.

        The result depends only on the algebra, the dimensions and the
        action, so it is computed once per distinct content and kept on the
        algebra; a call that raises keeps nothing.
        """
        alg = self.alg
        dv = self.dim_vector()
        key = (dv, tuple(map(self.act.__getitem__, alg._live_keys(dv))))
        got = alg._syzygies.get(key)
        if got is None:
            got = alg._syzygies[key] = self._syzygy()
        return got

    def _syzygy(self) -> "AlgebraModule":
        """The syzygy of this content: one cover, its kernel and its guards.

        The cover sends basis element b of the summand P_k at a lift e_f to
        column f of act[(i, k, b)].  One row reduction per label gives the
        rank of the cover and a kernel basis that is the identity on the
        free columns, so a kernel vector's coordinates are its entries
        there.  Two kinds of block are written, not computed: the identity
        of End(T_i) acts as the identity (projective_module checks it on
        every summand), and a key that acts by zero on every summand acts
        by zero, an image that lies in every kernel.  Any other key builds
        the image of each kernel vector and rebuilds it from its
        coordinates, which checks that it lies in the kernel; where the
        kernel at label i is zero, that check asks for a zero image and the
        empty matrix is not stored.
        """
        alg = self.alg
        basis_keys, act, quotient = alg.basis_keys, self.act, alg._quotient
        lifts = self.top_lifts()
        if not lifts:
            if not self.is_zero():
                raise MeshConsistencyError("nonzero module with zero top")
            return AlgebraModule(alg, {i: 0 for i in alg.labels}, {})
        ncols, moving = alg._cover(tuple(k for k, _ in lifts))
        kernels = {}
        for i, n in ncols.items():
            # one column per lift (k, f) and basis element b of Hom(T_i, T_k)
            rows = tuple(zip(*[[row[f] for row in act[key]] for k, f in lifts
                               for key in basis_keys.get((i, k), ())])
                         ) if self.dims[i] else ()
            free, basis = quotient(rows, n)
            if n - len(free) != self.dims[i]:
                raise MeshConsistencyError("projective cover is not surjective")
            kernels[i] = free, basis
        dims = {i: len(kernels[i][0]) for i in alg.labels}
        out = {}
        for (i, j), keys in basis_keys.items():
            dj = dims[j]
            if not dj:
                continue
            di = dims[i]
            free, basis = kernels[i]
            n = ncols[i]
            for key in keys:
                terms = moving.get(key)
                if terms is None:
                    if di:  # the identity is the quotient of no rows
                        out[key] = (quotient((), di)[1] if i == j
                                    and not key[2] else ((0,) * dj,) * di)
                    continue
                cols = []
                for w in kernels[j][1]:
                    img = [0] * n
                    for mat, oi, oj, dk in terms:
                        seg = w[oj: oj + dk]
                        for r, row in enumerate(mat, oi):
                            img[r] = sum(map(mul, row, seg))
                    coeffs = [img[f] for f in free]
                    rebuilt = [0] * n
                    for c, u in zip(coeffs, basis):
                        if c:
                            for t, x in enumerate(u):
                                if x:
                                    rebuilt[t] += c * x
                    if rebuilt != img:
                        raise MeshConsistencyError(
                            "syzygy action left the kernel")
                    cols.append(coeffs)
                if di:
                    # rows follow the kernel basis of i, columns that of j:
                    # the action matrix V_j -> V_i
                    out[key] = tuple(zip(*cols))
        return AlgebraModule(alg, dims, out)


def build_algebra(cc: ClusterCategory, tilting: TiltingObject) -> ClusterTiltedAlgebra:
    return ClusterTiltedAlgebra(cc, tilting)


def module_of(alg: ClusterTiltedAlgebra, m_cid: int) -> AlgebraModule:
    """Hom_C(T, M) as a module over the algebra; M outside add T[1].

    Each live block is a read of the category's product table.
    """
    eng, s = alg._engine, alg.summand
    dims = {i: eng.dim(s[i], m_cid) for i in alg.labels}
    if not any(dims.values()):
        raise ValueError(
            "Hom_C(T, M) = 0: M lies in the shift of the tilting object")
    act = {}
    for (i, j), keys in alg.basis_keys.items():
        # act[(i, j, b)] sends g in Hom(T_j, M) to g . (basis element b)
        if dims[i] and dims[j]:
            act.update(zip(keys, eng.products(s[i], s[j], m_cid)))
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
