"""Hammock sets, factorization ideals, and the projective-dimension cross-check.

For a cluster-tilting object T with summands T_1, ..., T_n the shifted copies
T_i[1] are exactly the indecomposables killed by Hom_C(T, -).  A module M has
infinite projective dimension over End_C(T) precisely when some nonzero map
T_i[1] -> T_j[1] factors through M.  This module computes the supports

    H_i    = { X : Hom_C(T_i[1], X) != 0 }          (left hammock)
    _jH    = { X : Hom_C(X, T_j[1]) != 0 }          (right hammock)
    H(i,j) = { X : some nonzero T_i[1] -> T_j[1] factors through X }

exactly in the mesh category (H(i,j) by a backward sweep of the cover
window of Hom(r, -), r the tau-orbit representative of T_i[1]), classifies
each nonempty H(i,j) into one of three closed forms (sectional path, swing,
full intersection: H_i & _jH refined by F-degree) from the pair of cids
(T_i[1], T_j[1]) alone, keeps H(i,j) in the mesh engine and its closed
form here, each once per pair of cids, and cross-checks the factorization
criterion, membership in the union of the H(i,j), against the syzygy
computation of projdim for every indecomposable.  classify_by_location
gives the classes a third way, from the closed forms alone.
"""

import enum
import weakref
from dataclasses import dataclass

from .algebra import PdClass, classify_modules
from .cluster import ClusterCategory, MeshConsistencyError
from .dynkin import InputError
from .tilting import TiltingObject, check_tilting

# category -> {a * |cids| + b: (vertices, shape)}, see _closed_form; an
# entry is freed with its category
_CLOSED_FORMS = weakref.WeakKeyDictionary()


class UnclassifiableShapeError(RuntimeError):
    """A nonempty H(i,j) matched none of the closed-form cases."""


class Shape(enum.Enum):
    EMPTY = "empty"
    SECTIONAL_PATH = "sectional_path"
    SWING = "swing"
    FULL_INTERSECTION = "full_intersection"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class HammockSet:
    """The closed-form answer for H(i,j): its vertices (cids) and its shape."""

    i: int
    j: int
    vertices: frozenset
    shape: Shape


def shifted_summand(cc: ClusterCategory, tilting: TiltingObject, k: int) -> int:
    """cid of T_k[1] for the 1-based summand label k."""
    if not 1 <= k <= len(tilting.summands):
        raise InputError("summand label out of range: %r" % (k,))
    return cc.shift(tilting.summands[k - 1])


def _shifted_pair(cc, tilting, i, j):
    """The cids of (T_i[1], T_j[1]), once check_tilting has passed T: the
    label functions answer only for a cluster-tilting object."""
    check_tilting(cc, tilting.summands)
    return shifted_summand(cc, tilting, i), shifted_summand(cc, tilting, j)


def left_hammock(cc, tilting, i) -> frozenset:
    """H_i: the cids X with Hom_C(T_i[1], X) != 0."""
    check_tilting(cc, tilting.summands)
    row = cc.hom_row_c(shifted_summand(cc, tilting, i))
    return frozenset(x for x in cc.cids() if row[x] > 0)


def right_hammock(cc, tilting, j) -> frozenset:
    """_jH: the cids X with Hom_C(X, T_j[1]) != 0, read from the row of
    T_j[1] as Hom_C(T_j[1], tau^2 X) by Serre duality."""
    check_tilting(cc, tilting.summands)
    row, tau = cc.hom_row_c(shifted_summand(cc, tilting, j)), cc.tau
    return frozenset(x for x in cc.cids() if row[tau[tau[x]]] > 0)


def _pairing_witness(cc, x, a, b):
    """A basis pair (g, h) with h o g != 0 for g: a -> x, h: x -> b, else None.

    The additive counts rule a witness out before any table is read.  The
    composites are read off the category's product table: column h of
    the matrix of g, products(a, x, b)[g][h], is the composite of basis
    elements g and h.  hij does not call it: the hammock table is filled
    without the product table.
    """
    if not (cc.hom_dim_c(a, b) and cc.hom_dim_c(a, x) and cc.hom_dim_c(x, b)):
        return None
    for g, mat in enumerate(cc._get_engine().products(a, x, b)):
        for h, col in enumerate(mat):
            if any(col):
                return cc.hom_basis(a, x)[g], cc.hom_basis(x, b)[h]
    return None


def hij(cc, tilting, i, j) -> frozenset:
    """Exact H(i,j): the cids x with some nonzero T_i[1] -> x -> T_j[1].

    H(i,j) depends only on the pair (a, b) = (T_i[1], T_j[1]), not on the
    rest of the tilting, so once the tilting is checked it is a read of
    the category's hammock table (MeshHomEngine.hammock).  An entry is
    filled on first use by one backward sweep over the cover window of
    Hom(r, -), r the tau-orbit representative of a, moved along tau: it
    reads that functor's arrow matrices and the additive counts, builds no
    functor of a middle object x, and stores no product.
    """
    return cc._get_engine().hammock(*_shifted_pair(cc, tilting, i, j))


def factorization_ideal_nonzero(cc, tilting, m):
    """Witness (i, j, g, h) that I_M != 0, or None.

    I_M is the ideal of End_C(T[1]) of endomorphisms factoring through M;
    it is nonzero iff some nonzero composite T_i[1] -> M -> T_j[1] exists.
    The witness is the first such basis pair, g and h as coordinate tuples
    in hom_basis order, pairs (i, j) in label order.
    Only meaningful for M outside add T[1]: a shifted summand always admits
    the identity factorization, so it is rejected here.
    """
    shifts = [cc.shift(s) for s in tilting.summands]
    if m in shifts:
        raise InputError("factorization ideal is only tested outside add T[1]")
    for i, a in enumerate(shifts, 1):
        for j, b in enumerate(shifts, 1):
            w = _pairing_witness(cc, m, a, b)
            if w is not None:
                return (i, j) + w
    return None


def sectional_path(cc, x, y):
    """The unique sectional arrow path x -> y as a cid list, or None.

    Sectional: no step may continue an arrow u -> v by v -> tau^{-1}(u).
    The search runs in the covering, where sectional paths are globally
    unique, and walks it with an explicit stack: each entry holds a vertex
    (w, k) of the cover, the path to it, and the lift of tau^{-1} to the
    cover, tau(w, k') = (tau w, k' + offset(w)), of the vertex before it,
    which the next step may not reach.  Candidates are capped by the Hom
    support window, and the found path must compose to a nonzero
    morphism, which is checked on the functor of the tau-orbit
    representative of x (MeshHomEngine.nonzero_path).
    """
    if x == y:
        return [x]
    cap = cc.height[x] + 4 * cc.quiver.coxeter_number() + 2
    found, stack = [], [(x, 0, None, [x])]
    while stack:
        v, k, banned, verts = stack.pop()
        u = cc.tau_inv[v]
        lift = (u, k - cc.tau_offsets[u])
        for w in cc.succ[v]:
            kw = k + cc.arrow_offsets[(v, w)]
            if cc.height[w] + kw * cc.winding > cap or (w, kw) == banned:
                continue
            nxt = verts + [w]
            if w == y:
                found.append(nxt)
            stack.append((w, kw, lift, nxt))
    if not found:
        return None
    if len(found) > 1:
        raise MeshConsistencyError(
            "sectional path from %d to %d is not unique" % (x, y)
        )
    path = found[0]
    if not cc._get_engine().nonzero_path(path):
        raise MeshConsistencyError(
            "sectional path composite vanished between %d and %d" % (x, y)
        )
    return path


def _swing_routes(cc, a, b):
    """Sectional route pairs a -> x -> b through wide-mesh middles.

    Wide meshes are detected structurally as meshes with three middle
    terms; a route pair needs both legs sectional.
    """
    middles = sorted(
        {x for w in cc.cids() if len(cc.succ[w]) == 3 for x in cc.succ[w]}
    )
    hits = []
    for x in middles:
        p = sectional_path(cc, a, x)
        if p is None:
            continue
        q = sectional_path(cc, x, b)
        if q is not None:
            hits.append((p, q))
    return hits


def hij_closed_form(cc, tilting, i, j) -> HammockSet:
    """Closed-form prediction for H(i,j); callers compare against hij.

    Case order: no map at all gives the empty set; a sectional path
    T_i[1] -> T_j[1] carries the whole hammock; otherwise (type D only)
    two wide-middle routes form the swing, and the remaining boundary
    configuration is the full intersection (see _classify).  In particular
    Hom(T_i[1], T_i) != 0 forces the swing, but the swing also occurs in
    boundary-orbit configurations where that Hom vanishes, so the routes
    themselves are the discriminator.

    Like H(i,j) the answer depends only on the pair (T_i[1], T_j[1]), so
    after the tilting and the labels are checked it is a read of the
    category's table of closed forms (_closed_form); the labels of the
    returned set are the caller's.
    """
    vertices, shape = _closed_form(cc, *_shifted_pair(cc, tilting, i, j))
    return HammockSet(i, j, vertices, shape)


def _closed_form(cc, a, b):
    """(vertices, shape) of the closed form of H(a, b), kept per category.

    Like H(a, b) it depends only on the pair, so _classify(cc, a, b) runs
    once per pair, on first use; a classification that raises stores
    nothing.  Vertices equal to an H(a, b) the engine has stored are kept
    as its frozenset, read with .get, so no hammock is swept here.  A
    function of cc, not a fill closing over it: that would keep cc alive.
    """
    table = _CLOSED_FORMS.setdefault(cc, {})
    key = a * len(cc.indecs) + b
    got = table.get(key)
    if got is None:
        vertices, shape = _classify(cc, a, b)
        exact = cc._get_engine()._hammocks.get(key)
        if exact == vertices:
            vertices = exact
        got = table[key] = (vertices, shape)
    return got


def _classify(cc, a, b):
    """(vertices, shape) of the closed form of H(a, b), in the case order
    of hij_closed_form; errors name the cids a and b.

    Hom_C(X, Y) = Hom_D(X, Y) + Hom_D(X, FY), F = tau^-1 [1], has parts of
    F-degree 0 and 1 (hom_parts_c), and a composite of parts of degrees p
    and q lands in degree p + q.  So the full intersection keeps x only
    when Hom(a, x), Hom(x, b) and Hom(a, b) have nonzero parts of degrees
    p, q and p + q: H_a & _bH refined by F-degree, which the pair tests
    find exact through D11.  H_a & _bH alone is too large from D7 on.
    """
    if cc.hom_dim_c(a, b) == 0:
        return frozenset(), Shape.EMPTY
    path = sectional_path(cc, a, b)
    if path is not None:
        return frozenset(path), Shape.SECTIONAL_PATH
    if cc.quiver.family == "A":
        raise UnclassifiableShapeError(
            "type A hammock H(%d, %d) is nonempty but has no sectional path"
            % (a, b)
        )
    routes = _swing_routes(cc, a, b)
    if len(routes) == 2:
        verts = set()
        for p, q in routes:
            verts.update(p)
            verts.update(q)
        return frozenset(verts), Shape.SWING
    if routes:
        raise UnclassifiableShapeError(
            "hammock H(%d, %d): %d wide-middle routes, expected 0 or 2"
            % (a, b, len(routes))
        )
    parts, ab = cc.hom_parts_c, cc.hom_parts_c(a, b)
    fits = [(p, q) for p in (0, 1) for q in (0, 1) if p + q < 2 and ab[p + q]]
    inter = frozenset(x for x in cc.cids() if any(
        parts(a, x)[p] and parts(x, b)[q] for p, q in fits))
    return inter, Shape.FULL_INTERSECTION


def classify_by_location(cc, tilting) -> dict:
    """pd class per M outside add T[1], in cid order, from where M lies.

    The location theorem read as a classifier: pd 0 for M in add T, pd
    infinite for M in the closed form of some H(i,j), and pd 1 otherwise.
    It reads the category's table of closed forms at the n^2 pairs of
    shifted cids and nothing else: no module, syzygy, product table or
    hammock sweep, so it is a route of its own to the classes that
    verify_main_theorem finds by syzygies.  The tilting is checked first
    (check_tilting): the theorem holds only over a cluster-tilting object.
    """
    check_tilting(cc, tilting.summands)
    shifts = {cc.shift(s) for s in tilting.summands}
    located = frozenset().union(*(_closed_form(cc, a, b)[0]
                                  for a in shifts for b in shifts))
    summands = set(tilting.summands)
    return {m: PdClass.ZERO if m in summands
            else PdClass.INFINITE if m in located else PdClass.ONE
            for m in cc.cids() if m not in shifts}


@dataclass
class TheoremReport:
    """Per-module comparison of the factorization and syzygy criteria."""

    tilting: TiltingObject
    rows: tuple  # (cid, ideal_nonzero, pd_class) per indecomposable
    counts: dict  # PdClass -> number of modules
    agreement: bool
    # cid -> (dim vector, syzygy dim vectors, pd_class), in cid order
    modules: dict
    # (i, j) -> exact H(i,j), pairs in label order
    hij: dict

    def infinite_cids(self):
        return frozenset(c for c, _w, p in self.rows if p is PdClass.INFINITE)


def verify_main_theorem(cc, tilting) -> TheoremReport:
    """Check (I_M != 0) <=> (projdim M infinite) for every module M.

    I_M != 0 exactly when M lies in some H(i,j), so the n^2 exact sets are
    read once from the category's hammock table, at the n shifted cids,
    and kept on the report.  Runs over all indecomposables
    outside add T[1]; any disagreement is recorded in the report, never
    silently dropped.  classify_modules, which runs first, checks the
    tilting: over a set of summands that is not cluster-tilting there is
    no theorem to verify.
    """
    classified = classify_modules(cc, tilting)
    shifts = [cc.shift(s) for s in tilting.summands]
    hammock = cc._get_engine().hammock
    sets = {(i, j): hammock(a, b) for i, a in enumerate(shifts, 1)
            for j, b in enumerate(shifts, 1)}
    union = frozenset().union(*sets.values())
    rows = []
    modules = {}
    counts = {PdClass.ZERO: 0, PdClass.ONE: 0, PdClass.INFINITE: 0}
    agreement = True
    for m, dims, syzygies, pd in classified:
        ideal = m in union
        counts[pd] += 1
        rows.append((m, ideal, pd))
        modules[m] = (dims, syzygies, pd)
        if ideal != (pd is PdClass.INFINITE):
            agreement = False
    return TheoremReport(tilting, tuple(rows), counts, agreement, modules, sets)
