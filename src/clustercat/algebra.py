"""Endomorphism algebras of cluster-tilting objects and their modules.

The algebra of a tilting object T = T_1 + ... + T_n is the direct sum of all
Hom_C(T_i, T_j) with composition as multiplication.  Each End(T_i) is local
with a one-dimensional semisimple part, so the identity of the algebra is
the sum of the level-0 basis elements and the radical is spanned by every
other basis element.

An arrow i -> j of the Gabriel quiver corresponds to an irreducible morphism
T_j -> T_i; with that convention the hereditary case T = kQ gives back Q
itself.  Multiplicities are dim rad/rad^2 in the matching Hom component,
one quotient per label pair, taken once per algebra.

Modules are flat records of coordinate data: a dimension vector, a tuple
in label order, and one block per live label pair (i, j), in label-pair
order, the tuple over the basis elements f of Hom(T_i, T_j) of the
matrices by which f acts V_j -> V_i by precomposition.  Every matrix is
column-major, the image in V_i of each basis vector of V_j in turn: the
layout of the category's product table.  A pair is live when
Hom(T_i, T_j), V_i and V_j are all nonzero; any other basis element acts
by the empty matrix that the dimension vector already fixes, so no block
is stored for it.  Hom_C(T, M) is such a module, its blocks the category's
product table entries as they are, one per product row of the tilting
that holds M; projectives are Hom_C(T, T_k), and syzygies are kernels of
minimal projective covers with the restricted action, their blocks built
and written in the same layout, one walk of the algebra's pairs deciding
for each whether its block is written, computed, or read only to check
the kernel.  Syzygies are memoized per algebra by content (the dimension
vector and the blocks in their order): the cover, its row reductions and
every guard run once per distinct module, and a module equal block for
block to one seen before gets the stored syzygy back.  The memo and the
covers stay with the algebra: keyed by the cids of the cover's summands,
few syzygy contents repeat across tiltings.  The work repeats at the step
instead: the action block of one label pair on the kernel of a cover
depends on six things only (see AlgebraModule._syzygy), and an
exhaustive verify meets few distinct inputs of it (README gives the
counts).  So the blocks, the written blocks (those of a pair that acts by
zero on every summand of the cover) and the kernels of the covers are
kept in three tables of the category, filled on first use and read by
every tilting; an input that raises stores nothing.  A kernel is keyed
by (the cover's columns at a label, the cover's dimension there): the
columns mat[f] exactly as the blocks hold them, so a hit builds no
transposed copy, and the key compares equal item by item against the
very column objects the stored key holds; only a miss transposes them
into the rows that the table of quotients reduces.  The covers keep each
projective's blocks as module_of stored them, so no matrix is copied
into a second layout on the way to the kernel action; a cover reads
only the blocks in which a radical basis element acts by a nonzero
matrix, decided once per projective (_moves).  The top of a module is
taken once per step as (label, free indices) groups, from which the
cover's summands and each label's kernel columns are read, one block
lookup per top label.  classify_modules returns its rows as a dict by
cid, the modules table of the verify report, and empties the memo, the
projectives and the index of rows by cid before it returns, so the
algebra is freed at once.  Hom_C(T, M) is read from the category's
tables too: its dimension vector from the summands' dimension rows, its
blocks from the tilting's product rows, whose missing rows the category
fills one target summand at a time; an index of the rows that hold each
cid, filled in one pass over the rows on the first module_of, spares a
scan of every row per module.  The row reductions beneath them (the top
and the kernel of the cover, label by label, and the identity blocks) are
reads of the category's table of quotients, MeshHomEngine._quotients,
shared by every tilting of the category; a pivot other than +-1 raises
MeshConsistencyError, so every action matrix stays integral.  Syzygies
decide the projective dimension class: 0, 1, or infinite; a finite
dimension of 2 or more cannot occur and is guarded by an assertion on the
third syzygy.

This module declares the syzygy route's kernel blocks, written blocks
and cover kernels, per category in _TABLES: cluster.Tables,
whose entries depend on their keys alone.  The covers, projectives,
syzygies, radical powers and Gabriel arrows read the algebra, so a method
fills each of their tables on a miss.
"""

from __future__ import annotations

import enum
import weakref
from operator import add
from types import MappingProxyType

from .cluster import ClusterCategory, MeshConsistencyError, Table
from .dynkin import InputError
from .tilting import TiltingObject, check_tilting

_ONE = 1
# category -> the syzygy route's tables of the category, each from the
# key of one fill to its value: kernel blocks (_block_on_kernel), written
# blocks (_written_block) and the kernels of covers, keyed by the stored
# columns (see AlgebraModule._syzygy).  An entry is freed with its
# category.
_TABLES = weakref.WeakKeyDictionary()


def _tables(cc: ClusterCategory):
    """The syzygy route's tables of cc; their fills read its quotients."""
    got = _TABLES.get(cc)
    if got is None:
        quotients = cc._get_engine()._quotients
        got = _TABLES[cc] = (
            Table(lambda key: _block_on_kernel(quotients, *key)),
            Table(lambda key: _written_block(quotients, *key)),
            Table(lambda key: quotients[tuple(zip(*key[0])), key[1]]))
    return got


class PdClass(enum.Enum):
    ZERO = "0"
    ONE = "1"
    INFINITE = "inf"

    def __str__(self):
        return self.value


class ClusterTiltedAlgebra:
    """End_C(T) as integers only: Hom dimensions, the label pairs with a
    nonzero Hom, and reads of the category's product and quotient tables.
    The Hom engine checks, once per object, that the identity of each
    End(T_i) is its first basis element."""

    def __init__(self, cc: ClusterCategory, tilting: TiltingObject):
        self.cc = cc
        self.tilting = tilting
        self.n = len(tilting)
        self.labels = tuple(range(1, self.n + 1))
        self.summand = {i: tilting[i - 1] for i in self.labels}
        self._engine = eng = cc._get_engine()
        self._quotients = eng._quotients
        self._kernel_blocks, self._written_blocks, self._kernels = _tables(cc)
        s = self.summand
        # dim Hom(T_i, y) per summand, over every cid y
        self._dim_rows = tuple(map(eng.dim_row, tilting.summands))
        self.hom_dims = {(i, j): row[s[j]]
                         for i, row in zip(self.labels, self._dim_rows)
                         for j in self.labels}
        self.dim = sum(self.hom_dims.values())
        # the label pairs (i, j) with Hom(T_i, T_j) != 0, in label order
        self.pairs = pairs = tuple(p for p, d in self.hom_dims.items() if d)
        # (pair, i - 1, j - 1) per pair: where a dimension vector holds the
        # dimensions at i and j, which decide whether the pair is live
        self._index = tuple((p, p[0] - 1, p[1] - 1) for p in pairs)
        # pair (i, j) -> the category's product row of (T_i, T_j), all read
        # in one call, which fills the missing rows target by target
        self._rows = dict(zip(pairs, eng.product_rows(
            [(s[i], s[j]) for i, j in pairs])))
        # cid z -> the (pair, row) items whose row holds z; see module_of
        self._rows_by_cid: list[list[tuple]] | None = None
        self._rad_pow: dict[int, dict[tuple[int, int], list[tuple]]] = {}
        self._arrows = None  # see _gabriel
        self._proj: dict[int, tuple] = {}  # k -> (P_k, its moving blocks)
        self._covers: dict[tuple[int, ...], tuple] = {}
        # (dim vector, its blocks in label-pair order) -> syzygy
        self._syzygies: dict[tuple, AlgebraModule] = {}

    def hom_dim(self, i: int, j: int) -> int:
        return self.hom_dims[(i, j)]

    def products(self, i: int, j: int, k: int):
        """Per basis element f of Hom(T_i, T_j), the matrix of g -> g . f
        from Hom(T_j, T_k) to Hom(T_i, T_k); a read of the category's table."""
        s = self.summand
        return self._engine.products(s[i], s[j], s[k])

    def radical_power_spans(self, m: int):
        """Spanning vectors of (rad^m)_{(i,j)} in hom coordinates, per (i,j)."""
        if m < 1:
            raise InputError("radical powers start at 1")
        got = self._rad_pow.get(m)
        if got is not None:
            return got
        spans: dict[tuple[int, int], list[tuple]] = {
            (i, j): [] for i in self.labels for j in self.labels}
        if m == 1:
            for i, j in self.pairs:
                d = self.hom_dim(i, j)
                # every basis element but the identity of End(T_i)
                for b in range(1 if i == j else 0, d):
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
                                    sum(ca * mat[b][r]
                                        for ca, mat in zip(vec, mats))
                                    for r in range(self.hom_dim(i, k)))
                                if any(out):
                                    spans[(i, k)].append(out)
        self._rad_pow[m] = spans
        return spans

    def _gabriel(self):
        """(i, j, free) per Gabriel arrow i -> j, in label order: free
        indexes the basis elements of Hom(T_j, T_i) that span rad/rad^2
        there, read from one quotient per label pair and kept."""
        got = self._arrows
        if got is None:
            rad2, got = self.radical_power_spans(2), []
            for i in self.labels:
                for j in self.labels:
                    d = self.hom_dims[(j, i)]
                    if d <= (i == j):
                        continue
                    span = rad2[(j, i)]
                    if i == j:
                        # quotient by the identity line as well
                        span = span + [(_ONE,) + (0,) * (d - 1)]
                    free = self._quotients[tuple(span), d][0]
                    if free:
                        got.append((i, j, free))
            got = self._arrows = tuple(got)
        return got

    def gabriel_arrows(self):
        """(i, j, multiplicity) per Gabriel arrow i -> j, multiplicity >= 1."""
        return [(i, j, len(free)) for i, j, free in self._gabriel()]

    def arrow_representatives(self):
        """Per Gabriel arrow (i, j), coordinate tuples in Hom(T_j, T_i) of
        morphisms spanning its arrows modulo rad^2."""
        s, hom_basis = self.summand, self.cc.hom_basis
        return {(i, j): list(map(hom_basis(s[j], s[i]).__getitem__, free))
                for i, j, free in self._gabriel()}

    def gabriel_quiver_is_acyclic(self) -> bool:
        """Whether repeatedly removing the labels with no incoming arrow
        from a label still left removes every label."""
        arrows, left = self._gabriel(), set(self.labels)
        while left:
            heads = {j for i, j, _ in arrows if i in left}
            if left <= heads:
                return False
            left &= heads
        return True

    def _cover(self, tops):
        """The projective sum of P_k, k in tops: its dimensions and moving
        blocks.

        ncols gives the dimension of the sum at each label, in label order
        like a dimension vector.  moving maps a pair (i, j) to the (row
        offset, column offset, width, block) of every summand P_k whose
        block of (i, j) has a nonzero radical matrix, the block
        column-major as module_of stored it; a pair that moving lacks acts
        on the sum by zero, but for the identity of End(T_i).
        """
        got = self._covers.get(tops)
        if got is None:
            # off[i - 1]: the first coordinate at label i of the next summand
            off, moving = (0,) * self.n, {}
            for k in tops:
                mod, blocks = self._projective(k)
                for pair, dk, mats in blocks:
                    moving.setdefault(pair, []).append(
                        (off[pair[0] - 1], off[pair[1] - 1], dk, mats))
                off = tuple(map(add, off, mod._dv))
            # tuples, which key the category's table of kernel blocks
            got = self._covers[tops] = off, {
                pair: tuple(terms) for pair, terms in moving.items()}
        return got

    def projective_module(self, k: int) -> "AlgebraModule":
        """Hom_C(T, T_k), the indecomposable projective at label k.

        The identity of each End(T_i) must act on it as the identity:
        syzygies write their identity blocks and rest on this check.
        """
        return self._projective(k)[0]

    def _projective(self, k: int):
        """(P_k, its moving blocks), which the covers read: per pair (i, j)
        with a radical basis element acting on P_k by a nonzero matrix, the
        pair, dim Hom(T_j, T_k) and its block exactly as module_of stored
        it (see _moves)."""
        got = self._proj.get(k)
        if got is None:
            mod = module_of(self, self.summand[k])
            for i, d in zip(self.labels, mod._dv):
                if d and mod.act[(i, i)][0] != self._quotients[(), d][1]:
                    raise MeshConsistencyError(
                        f"the identity of End(T_{i}) does not act as the "
                        f"identity on P_{k}")
            got = self._proj[k] = mod, tuple(
                (pair, mod._dv[pair[1] - 1], mats)
                for pair, mats in mod.act.items()
                if _moves(mats, pair[0] == pair[1]))
        return got


class AlgebraModule:
    """Coordinate module: a flat record of a dimension vector and one block
    per live label pair.

    The dimension vector is the tuple _dv, in label order; dims is a
    read-only view of it, label -> dimension, built on each read.
    act[(i, j)] is the block of Hom(T_i, T_j): the tuple over its basis
    elements b of the matrix of precomposition with b, mapping the label-j
    component to the label-i component, each matrix column-major: column q
    of act[(i, j)][b] is the image of basis vector q of V_j in V_i.  For
    Hom_C(T, M) it is the product table's entry itself.  act holds exactly
    the live pairs, those with Hom(T_i, T_j), dims[i] and dims[j] nonzero,
    in label-pair order, so the dimension vector and the blocks as act
    lists them are the module's content, which syzygy hashes to find a
    module it has seen; every other basis element acts by the empty matrix
    its dimensions fix.  The constructor checks that dims gives a
    non-negative int at every label and at nothing else, and that act has
    a block for every live pair and no other block, each a tuple of
    dim Hom(T_i, T_j) tuples of dims[j] tuples of dims[i] ints (no bool),
    raising InputError otherwise; it puts the blocks in label-pair order.
    module_of and syzygies build the record directly, already checked and
    in order.  A module is not changed once built.
    """

    __slots__ = ("alg", "_dv", "act")

    def __init__(self, alg: ClusterTiltedAlgebra, dims, act):
        for i in dims:
            if i not in alg.summand:
                raise InputError(f"a dimension at {i!r}, which is not a label")
        for i in alg.labels:
            if type(dims.get(i)) is not int or dims[i] < 0:
                raise InputError(f"no non-negative int dimension at label {i}")
        dv = tuple([dims[i] for i in alg.labels])
        blocks = {}
        for pair, i, j in alg._index:
            if dv[i] and dv[j]:
                if pair not in act:
                    raise InputError(f"no block for the live pair {pair}")
                mats = blocks[pair] = act[pair]
                d, di, dj = alg.hom_dims[pair], dv[i], dv[j]
                if not _is_block(mats, d, di, dj):
                    raise InputError(f"the block of the pair {pair} is not "
                                     f"{d} matrices of {dj} columns of "
                                     f"length {di}, tuples of ints")
        for pair in act:
            if pair not in blocks:
                raise InputError(
                    f"a block for the pair {pair}, which is not live")
        self.alg, self._dv, self.act = alg, dv, blocks

    @property
    def dims(self):
        """Label -> dimension, a read-only view of the dimension vector."""
        return MappingProxyType(dict(zip(self.alg.labels, self._dv)))

    def is_zero(self) -> bool:
        return not any(self._dv)

    def dim_vector(self):
        return self._dv

    def top_lifts(self):
        """(label, index) pairs: the unit vectors lifting a basis of V / V.rad."""
        return [(k, f) for k, free in self._top() for f in free]

    def _top(self):
        """(label, free indices) per label with a nonzero top, in label
        order: the unit vectors at the label that lift a basis of V / V.rad.

        (V . rad)_i is spanned by the columns of the radical matrices in
        the blocks of the live pairs (i, j), which the blocks hold as they
        are.
        """
        spans = {}
        for (i, j), mats in self.act.items():
            if i == j:  # every basis element but the identity is radical
                mats = mats[1:]
            if mats:
                cols = spans.setdefault(i, [])
                for mat in mats:
                    cols.extend(filter(any, mat))
        quotients, groups = self.alg._quotients, []
        # a zero label has no top; skipping it saves a quotient per label
        for k, d in zip(self.alg.labels, self._dv):
            if d:
                span = spans.get(k)
                free = quotients[tuple(span), d][0] if span else range(d)
                if free:
                    groups.append((k, free))
        return groups

    def syzygy(self) -> "AlgebraModule":
        """Kernel of the minimal projective cover, with restricted action.

        The result depends only on the algebra, the dimensions and the
        action, so it is computed once per distinct content and kept on the
        algebra; a call that raises keeps nothing.
        """
        syzygies = self.alg._syzygies
        key = (self._dv, tuple(self.act.values()))
        got = syzygies.get(key)
        if got is None:
            got = syzygies[key] = self._syzygy()
        return got

    def _syzygy(self) -> "AlgebraModule":
        """The syzygy of this content: one cover, its kernel and its guards.

        The cover sends basis element b of the summand P_k at a lift e_f to
        column f of mat = act[(i, k)][b], which is mat[f].  One row
        reduction per label gives the rank of the cover and a kernel basis
        that is the identity on the free columns, so a kernel vector's
        coordinates are its entries there.  One walk of the algebra's pairs
        then settles each block.  Two kinds of matrix are written, not
        computed: the identity of End(T_i) acts as the identity
        (projective_module checks it on every summand), and a basis element
        that acts by zero on every summand acts by zero, an image that lies
        in every kernel.  Any other builds the image of each kernel vector
        and rebuilds it from its coordinates, which checks that it lies in
        the kernel (see _block_on_kernel); where the kernel at label i is
        zero, that check asks for a zero image, and the block is read for
        the check alone and not stored.
        """
        alg = self.alg
        act, quotients = self.act, alg._quotients
        groups = self._top()
        if not groups:
            if not self.is_zero():
                raise MeshConsistencyError("nonzero module with zero top")
            return _record(alg, (0,) * alg.n, {})
        tops = []  # the label of each lift, in lift order
        for k, free in groups:
            tops += (k,) * len(free)
        ncols, moving = alg._cover(tuple(tops))
        # per label, in label order: the kernel (free columns, basis) and
        # its dimension
        kernels, dims, table = [], [], alg._kernels
        for i, n, di in zip(alg.labels, ncols, self._dv):
            if not di:  # the whole of the cover at i is the kernel
                kernels.append(quotients[(), n] if n else ((), ()))
                dims.append(n)
                continue
            # one column per lift (k, f) and basis element b of Hom(T_i, T_k)
            cols = []
            for k, free in groups:
                mats = act.get((i, k))
                if mats:
                    for f in free:
                        for mat in mats:
                            cols.append(mat[f])
            # keyed by the stored columns: a hit builds no transposed copy
            kernels.append(kernel := table[tuple(cols), n])
            dims.append(d := len(kernel[0]))
            if n - d != di:
                raise MeshConsistencyError("projective cover is not surjective")
        # the block of pair (i, j) on the kernel of the cover: a read of the
        # category's table, keyed by all that _block_on_kernel reads
        out, blocks, hom_dims = {}, alg._kernel_blocks, alg.hom_dims
        for pair, i, j in alg._index:
            if not dims[j]:  # no kernel vector at j to act on
                continue
            terms = moving.get(pair)
            if terms is not None:
                got = blocks[hom_dims[pair], i == j, terms, kernels[i],
                             kernels[j][1], ncols[i]]
                if dims[i]:
                    out[pair] = got
            elif dims[i]:
                out[pair] = alg._written_blocks[hom_dims[pair], i == j,
                                                dims[i], dims[j]]
        return _record(alg, tuple(dims), out)


_new = object.__new__


def _record(alg, dv, act):
    """An AlgebraModule built directly, as module_of and _syzygy build it:
    act holds exactly the live blocks of dv, in label-pair order."""
    mod = _new(AlgebraModule)
    mod.alg, mod._dv, mod.act = alg, dv, act
    return mod


def _is_block(mats, d, di, dj):
    """Whether mats is a tuple of d tuples of dj tuples of di ints; a bool
    is not an int here."""
    return type(mats) is tuple and len(mats) == d and all(
        type(mat) is tuple and len(mat) == dj and all(
            type(col) is tuple and len(col) == di
            and all(type(x) is int for x in col) for col in mat)
        for mat in mats)


def _written_block(quotients, d, diagonal, di, dj):
    """The block of a pair (i, j) with d basis elements on a syzygy of
    dimensions di at i and dj at j when the pair acts by zero on every
    summand of the cover: zero matrices, but for the identity of End(T_i)
    (diagonal is whether i == j).  quotients is the category's table; one
    tuple per key is shared by every syzygy of the category."""
    zero = ((0,) * di,) * dj
    if not diagonal:
        return (zero,) * d
    # the identity is the quotient of no rows
    return (quotients[(), di][1],) + (zero,) * (d - 1)


def _moves(mats, diagonal):
    """Whether some radical basis element acts by a nonzero matrix in the
    block mats of a pair on a projective: every basis element but the
    identity of End(T_i) when diagonal, the pair being (i, i)."""
    return any(any(map(any, mat)) for mat in mats[diagonal:])


def _block_on_kernel(quotients, d, diagonal, terms, kernel, basis_j, n):
    """The block of a pair (i, j) with d basis elements on the kernel of a
    cover: kernel = (free, basis) is the kernel at i, basis_j the kernel
    basis at j, n the dimension of the cover at i.

    The image of a kernel vector at j sums the summands' columns, scaled
    by its nonzero entries, and is rebuilt from its coordinates, its
    entries at the free columns of the kernel at i; a rebuilt image that
    differs from it left the kernel.  The coordinate tuples are the
    columns of the block's matrices, which are stored as they are.  The
    identity of End(T_i) is written, not computed.
    """
    free, basis = kernel
    mats = []
    for b in range(d):
        if diagonal and not b:
            mats.append(quotients[(), len(free)][1])
            continue
        cols = []
        for w in basis_j:
            img = [0] * n
            for oi, oj, dk, blk in terms:
                for c, col in zip(w[oj: oj + dk], blk[b]):
                    if c:
                        for r, x in enumerate(col, oi):
                            img[r] += c * x
            coeffs = tuple(map(img.__getitem__, free))
            rebuilt = [0] * n
            for c, u in zip(coeffs, basis):
                if c:
                    for t, x in enumerate(u):
                        if x:
                            rebuilt[t] += c * x
            if rebuilt != img:
                raise MeshConsistencyError("syzygy action left the kernel")
            cols.append(coeffs)
        # one column per kernel basis vector of j: the action matrix
        # V_j -> V_i
        mats.append(tuple(cols))
    return tuple(mats)


def build_algebra(cc: ClusterCategory, tilting: TiltingObject) -> ClusterTiltedAlgebra:
    """End_C(T), once check_tilting has passed T: the syzygy route and the
    trichotomy hold only over a cluster-tilting object."""
    check_tilting(cc, tilting.summands)
    return ClusterTiltedAlgebra(cc, tilting)


def module_of(alg: ClusterTiltedAlgebra, m_cid: int) -> AlgebraModule:
    """Hom_C(T, M) as a module over the algebra; M outside add T[1].

    The dimension vector is entry M of the summands' dimension rows, and
    the block of each live pair (i, j) is entry M of the category's
    product row of (T_i, T_j), products(T_i, T_j, M), stored as it is.
    That row holds M exactly when Hom(T_i, M) and Hom(T_j, M) are both
    nonzero, so the rows that hold M are the live pairs, in label-pair
    order like the rows.  A cid that is not an int of the category (a
    bool is not), or that lies in add T[1], raises InputError.
    """
    # inline, not ClusterCategory.check_cids: a verify reads every module
    if type(m_cid) is not int or not 0 <= m_cid < len(alg.cc.indecs):
        raise InputError(f"no cid {m_cid!r} in this category")
    dv = tuple([row[m_cid] for row in alg._dim_rows])
    if not any(dv):
        raise InputError(
            "Hom_C(T, M) = 0: M lies in the shift of the tilting object")
    index = alg._rows_by_cid
    if index is None:  # one pass over the rows, in label-pair order
        index = alg._rows_by_cid = [[] for _ in alg.cc.indecs]
        for item in alg._rows.items():
            for z in item[1]:
                index[z].append(item)
    # act[(i, j)][b][g] is g . (basis element b), for g in Hom(T_j, M)
    return _record(alg, dv, {pair: row[m_cid] for pair, row in index[m_cid]})


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
        dims.append(dv := cur._dv)
        if not any(dv):
            if pd is None:
                raise MeshConsistencyError(
                    "projective dimension 2 encountered; "
                    "the trichotomy is violated")
            return tuple(dims) + (dims[-1],) * (3 - len(dims)), pd
    return tuple(dims), PdClass.INFINITE


def pd_class(module: AlgebraModule) -> PdClass:
    return _syzygy_chain(module)[1]


def classify_modules(cc: ClusterCategory, tilting: TiltingObject) -> dict:
    """{cid: (dim vector, syzygy dim vectors, pd class)} per M outside
    add T[1], in cid order: the modules table of TheoremReport.

    One algebra for the tilting, then one Hom_C(T, M) and one syzygy chain
    per module; M = T_k is read as the projective P_k, which the covers
    build anyway.  build_algebra checks the tilting.
    """
    alg = build_algebra(cc, tilting)
    shifted = {cc.shift(s) for s in tilting.summands}
    label = {c: k for k, c in alg.summand.items()}
    rows = {}
    for m in cc.cids():
        if m not in shifted:
            k = label.get(m)
            mod = module_of(alg, m) if k is None else alg.projective_module(k)
            rows[m] = (mod.dim_vector(),) + _syzygy_chain(mod)
    # Every module refers to its algebra, and the algebra keeps its
    # projectives and syzygies: reference cycles that only the cyclic
    # garbage collector would free.  The algebra never leaves this
    # function, so emptying the two tables frees it and its memo on return;
    # the index of rows by cid, which holds no cycle, is dropped with them.
    alg._syzygies.clear()
    alg._proj.clear()
    alg._rows_by_cid = None
    return rows
