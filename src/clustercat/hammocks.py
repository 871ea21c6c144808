"""Hammock sets, factorization ideals, and the projective-dimension cross-check.

For a cluster-tilting object T with summands T_1, ..., T_n the shifted copies
T_i[1] are exactly the indecomposables killed by Hom_C(T, -).  A module M has
infinite projective dimension over End_C(T) precisely when some nonzero map
T_i[1] -> T_j[1] factors through M.  This module computes the supports

    H_i    = { X : Hom_C(T_i[1], X) != 0 }          (left hammock)
    _jH    = { X : Hom_C(X, T_j[1]) != 0 }          (right hammock)
    H(i,j) = { X : some nonzero T_i[1] -> T_j[1] factors through X }

by exact composition in the mesh category, classifies each nonempty H(i,j)
into one of three closed forms (sectional path, swing, full intersection),
and cross-checks the factorization criterion against the syzygy computation
of projdim for every indecomposable.
"""

import enum
from dataclasses import dataclass, field

from .algebra import PdClass, classify_modules
from .cluster import ClusterCategory, MeshConsistencyError
from .tilting import TiltingObject


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
    """A hammock support set.

    kind is "left", "right" or "hij"; vertices holds cids.  shape is set
    only for kind "hij" (and only for families A and D); flags carries the
    boundary data used by the classifier.
    """

    kind: str
    i: int
    j: int
    vertices: frozenset
    shape: Shape = None
    flags: dict = field(default_factory=dict, compare=False)

    def __contains__(self, cid):
        return cid in self.vertices

    def __len__(self):
        return len(self.vertices)


def shifted_summand(cc: ClusterCategory, tilting: TiltingObject, k: int) -> int:
    """cid of T_k[1] for the 1-based summand label k."""
    if not 1 <= k <= len(tilting.summands):
        raise ValueError("summand label out of range: %r" % (k,))
    return cc.shift(tilting.summands[k - 1])


def left_hammock(cc, tilting, i) -> HammockSet:
    a = shifted_summand(cc, tilting, i)
    verts = frozenset(x for x in cc.cids() if cc.hom_dim_c(a, x) > 0)
    return HammockSet("left", i, None, verts)


def right_hammock(cc, tilting, j) -> HammockSet:
    b = shifted_summand(cc, tilting, j)
    verts = frozenset(x for x in cc.cids() if cc.hom_dim_c(x, b) > 0)
    return HammockSet("right", None, j, verts)


def _pairing_witness(cc, x, a, b):
    """A basis pair (g, h) with h o g != 0 for g: a -> x, h: x -> b, else None.

    The composite is bilinear, so it vanishes for every pair of basis
    elements iff it vanishes identically.  It lies in Hom_C(a, b), so the
    additive count of that space rules out a witness without composing.
    The composites are read off the category's product table: column h of
    the matrix of g is the composite of basis elements g and h.
    """
    if not (cc.hom_dim_c(a, b) and cc.hom_dim_c(a, x) and cc.hom_dim_c(x, b)):
        return None
    for g, mat in enumerate(cc._get_engine().products(a, x, b)):
        for h, col in enumerate(zip(*mat)):
            if any(col):
                return cc.hom_basis(a, x)[g], cc.hom_basis(x, b)[h]
    return None


def hij(cc, tilting, i, j) -> HammockSet:
    """Exact H(i,j), decided per vertex by the composition pairing."""
    a = shifted_summand(cc, tilting, i)
    b = shifted_summand(cc, tilting, j)
    verts = frozenset(
        x for x in cc.cids() if _pairing_witness(cc, x, a, b) is not None
    )
    shape = None
    flags = {}
    if cc.quiver.family in ("A", "D"):
        predicted = hij_closed_form(cc, tilting, i, j)
        shape = predicted.shape
        flags = dict(predicted.flags)
    return HammockSet("hij", i, j, verts, shape, flags)


def _witnesses(cc, tilting, m):
    """(i, j, g, h) for each pair (i, j) with m in H(i,j), in label order.

    Lazy, so a caller that needs one witness stops the search there.
    """
    n = len(tilting.summands)
    shifts = [shifted_summand(cc, tilting, k) for k in range(1, n + 1)]
    for i, a in enumerate(shifts, 1):
        if cc.hom_dim_c(a, m) == 0:
            continue
        for j, b in enumerate(shifts, 1):
            w = _pairing_witness(cc, m, a, b)
            if w is not None:
                yield (i, j) + w


def hij_membership(cc, tilting, m):
    """Sorted list of pairs (i, j) with m in H(i,j)."""
    return [(i, j) for i, j, _g, _h in _witnesses(cc, tilting, m)]


def factorization_ideal_nonzero(cc, tilting, m):
    """Witness (i, j, g, h) that I_M != 0, or None.

    I_M is the ideal of End_C(T[1]) of endomorphisms factoring through M;
    it is nonzero iff some nonzero composite T_i[1] -> M -> T_j[1] exists.
    Only meaningful for M outside add T[1]: a shifted summand always admits
    the identity factorization, so it is rejected here.
    """
    shifted = {cc.shift(s) for s in tilting.summands}
    if m in shifted:
        raise ValueError("factorization ideal is only tested outside add T[1]")
    return next(_witnesses(cc, tilting, m), None)


def _cover_tau_inv(cc, v, k):
    # lift of tau^{-1} to the covering: tau(w, k') = (tau w, k' + offset(w))
    w = cc.tau_inv[v]
    return (w, k - cc.tau_offsets[w])


def sectional_path(cc, x, y):
    """The unique sectional arrow path x -> y as a cid list, or None.

    Sectional: no step may continue an arrow u -> v by v -> tau^{-1}(u).
    The search runs in the covering, where sectional paths are globally
    unique; candidates are capped by the Hom support window, and the found
    path must compose to a nonzero morphism.
    """
    if x == y:
        return [x]
    cap = cc.height[x] + 4 * cc.quiver.coxeter_number() + 2
    found = []

    def walk(v, k, prev, verts):
        for w in cc.succ[v]:
            kw = k + cc.arrow_offsets[(v, w)]
            if cc.height[w] + kw * cc.winding > cap:
                continue
            if prev is not None and (w, kw) == _cover_tau_inv(cc, *prev):
                continue
            nxt = verts + [w]
            if w == y:
                found.append(nxt)
            walk(w, kw, (v, k), nxt)

    walk(x, 0, None, [x])
    if not found:
        return None
    if len(found) > 1:
        raise MeshConsistencyError(
            "sectional path from %d to %d is not unique" % (x, y)
        )
    path = found[0]
    el = cc.identity_element(x)
    for u, w in zip(path, path[1:]):
        el = cc.compose(el, cc.arrow_element(u, w))
    if el.is_zero():
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
    configuration is the full intersection of H_i with _jH.  In particular
    Hom(T_i[1], T_i) != 0 forces the swing, but the swing also occurs in
    boundary-orbit configurations where that Hom vanishes, so the routes
    themselves are the discriminator.
    """
    family = cc.quiver.family
    if family not in ("A", "D"):
        raise ValueError("closed forms are defined for families A and D only")
    a = shifted_summand(cc, tilting, i)
    b = shifted_summand(cc, tilting, j)
    flags = {
        "hom_ii_nonzero": cc.hom_dim_c(a, tilting.summands[i - 1]) > 0,
        "hom_jj_nonzero": cc.hom_dim_c(b, tilting.summands[j - 1]) > 0,
    }
    if cc.hom_dim_c(a, b) == 0:
        return HammockSet("hij", i, j, frozenset(), Shape.EMPTY, flags)
    path = sectional_path(cc, a, b)
    if path is not None:
        return HammockSet(
            "hij", i, j, frozenset(path), Shape.SECTIONAL_PATH, flags
        )
    if family == "A":
        raise UnclassifiableShapeError(
            "type A hammock (%d,%d) is nonempty but has no sectional path"
            % (i, j)
        )
    routes = _swing_routes(cc, a, b)
    if len(routes) == 2:
        verts = set()
        for p, q in routes:
            verts.update(p)
            verts.update(q)
        return HammockSet("hij", i, j, frozenset(verts), Shape.SWING, flags)
    if routes:
        raise UnclassifiableShapeError(
            "hammock (%d,%d): %d wide-middle routes, expected 0 or 2"
            % (i, j, len(routes))
        )
    inter = left_hammock(cc, tilting, i).vertices & right_hammock(
        cc, tilting, j
    ).vertices
    return HammockSet("hij", i, j, inter, Shape.FULL_INTERSECTION, flags)


@dataclass
class TheoremReport:
    """Per-module comparison of the factorization and syzygy criteria."""

    tilting: TiltingObject
    rows: tuple  # (cid, ideal_nonzero, pd_class) per indecomposable
    counts: dict  # PdClass -> number of modules
    agreement: bool
    # cid -> (dim vector, syzygy dim vectors, pd_class), in cid order
    modules: dict

    def infinite_cids(self):
        return frozenset(c for c, _w, p in self.rows if p is PdClass.INFINITE)


def verify_main_theorem(cc, tilting) -> TheoremReport:
    """Check (I_M != 0) <=> (projdim M infinite) for every module M.

    Runs over all indecomposables outside add T[1]; any disagreement is
    recorded in the report, never silently dropped.
    """
    rows = []
    modules = {}
    counts = {PdClass.ZERO: 0, PdClass.ONE: 0, PdClass.INFINITE: 0}
    agreement = True
    for m, dims, syzygies, pd in classify_modules(cc, tilting):
        witness = factorization_ideal_nonzero(cc, tilting, m)
        counts[pd] += 1
        rows.append((m, witness is not None, pd))
        modules[m] = (dims, syzygies, pd)
        if (witness is not None) != (pd is PdClass.INFINITE):
            agreement = False
    return TheoremReport(tilting, tuple(rows), counts, agreement, modules)


def infinite_pd_set(cc, tilting):
    """Union of H(i,j) minus add T[1]; asserted equal to the syzygy answer."""
    n = len(tilting.summands)
    shifted = {cc.shift(s) for s in tilting.summands}
    union = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            union |= hij(cc, tilting, i, j).vertices
    union -= shifted
    report = verify_main_theorem(cc, tilting)
    if frozenset(union) != report.infinite_cids():
        raise MeshConsistencyError(
            "hammock union disagrees with the syzygy classification"
        )
    return frozenset(union)
