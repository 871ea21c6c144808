"""Cluster-tilting objects: enumeration, verification, mutation.

A cluster-tilting object is a maximal rigid object: n pairwise
Ext-orthogonal indecomposables (n the rank).  In Dynkin types size n and
maximality coincide, but is_cluster_tilting checks maximality explicitly
anyway.  check_tilting is the input check of every entry point that takes
a tilting (build_algebra, and through it classify_modules,
verify_main_theorem and export_json; classify_by_location; the command
line): the trichotomy and the I_M criterion hold only over a
cluster-tilting object, so anything else raises InputError.

Summands carry labels 1..n by position.  A freshly built object lists its
summands in ascending cid order; mutation replaces one summand in place, so
labels stay attached to their positions along a mutation walk.
"""

from __future__ import annotations

import random
from math import comb

from .cluster import ClusterCategory
from .dynkin import InputError


class MutationError(RuntimeError):
    """The exchange at a summand did not produce exactly one alternative."""


class TiltingObject:
    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = s = tuple(summands)
        for c in s:
            if type(c) is not int:
                raise InputError(f"a tilting summand is an int, got {c!r}")
        if len(set(s)) != len(s):
            raise InputError("tilting summands must be distinct")

    def key(self):
        """Order-free identity, for dedup across mutation walks."""
        return tuple(sorted(self.summands))

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def __getitem__(self, i):
        return self.summands[i]

    def __eq__(self, other):
        return isinstance(other, TiltingObject) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"TiltingObject{self.summands}"


def first_ext_violation(cc: ClusterCategory, summands):
    """First (cid, cid) pair with nonvanishing Ext^1, in scan order, or None.

    Both directions are read from the masks of ClusterCategory.compatible,
    so no symmetry of Ext^1 is assumed."""
    s = tuple(summands)
    for a in range(len(s)):
        mask = cc.compatible(s[a])
        for b in range(a, len(s)):
            if not (mask >> s[b] & 1 and cc.compatible(s[b]) >> s[a] & 1):
                return (s[a], s[b])
    return None


def check_tilting(cc: ClusterCategory, cids) -> None:
    """Raise InputError unless cids are cc.n distinct int cids of cc with
    Ext^1 = 0 pairwise, naming what fails; a pair is named by
    first_ext_violation.  In Dynkin types n rigid summands make a
    cluster-tilting object (see is_cluster_tilting)."""
    cids = tuple(cids)
    if len(cids) != cc.n or len(set(cids)) != cc.n:
        raise InputError(
            f"a tilting here has {cc.n} distinct summands, got {cids}")
    # type, not isinstance: a bool is an int but no cid
    if not all(type(c) is int and 0 <= c < len(cc.indecs) for c in cids):
        raise InputError(f"cid out of range in {cids}")
    # one AND per summand; the pair is looked for only to name it
    chosen = sum(1 << c for c in cids)
    for c in cids:
        if cc.compatible(c) & chosen != chosen:
            raise InputError("not a cluster-tilting object: Ext^1(%d, %d) "
                             "!= 0" % first_ext_violation(cc, cids))


def is_cluster_tilting(cc: ClusterCategory, summands) -> bool:
    s = tuple(summands)
    try:
        check_tilting(cc, s)
    except InputError:
        return False
    # maximality, checked directly rather than trusted from the count: no z
    # outside s has Ext^1(z, t) = 0 for every summand t
    chosen = sum(1 << t for t in s)
    for z in cc.cids():
        if not chosen >> z & 1 and cc.compatible(z) & chosen == chosen:
            return False
    return True


def initial_tilting(cc: ClusterCategory) -> TiltingObject:
    """The projectives P_1..P_n; rigid because Ext^1_C restricts to Ext^1_kQ."""
    return TiltingObject(cc.module_cid(cc.mod.proj_mid[v])
                         for v in cc.quiver.vertices)


def enumerate_tiltings(cc: ClusterCategory):
    """All cluster-tilting objects, as sorted-summand TiltingObjects.

    Max-clique search over the Ext-compatibility graph, whose adjacency is
    ClusterCategory.compatible; every indecomposable is rigid here, so
    cliques of size n are exactly the tilting objects.  The search is the
    module-level _extend, so the returned list is in no reference cycle
    and goes with its last reference.
    """
    # bit y of adj[y] is never read: y has left cand when adj[y] masks it
    adj = [cc.compatible(x) for x in cc.cids()]
    out = []
    _extend(adj, cc.n, (1 << len(cc.indecs)) - 1, [], out)
    return out


def _extend(adj, n, cand, chosen, out):
    """Append to out, in lexicographic order, every n-clique that extends
    chosen by cids of cand."""
    need = n - len(chosen)
    # candidates stay above the last pick, so each clique appears once
    while cand and cand.bit_count() >= need:
        low = cand & -cand
        y = low.bit_length() - 1
        cand ^= low
        chosen.append(y)
        if need == 1:
            out.append(TiltingObject(chosen))
        else:
            _extend(adj, n, cand & adj[y], chosen, out)
        chosen.pop()


def tilting_count(family: str, rank: int) -> int:
    """The number of cluster-tilting objects of type family + rank.

    Catalan(n + 1) for A_n and (3n - 2) / n * C(2n - 2, n - 1) for D_n, the
    cluster counts of Fomin and Zelevinsky; neither depends on the
    orientation, and neither needs the objects enumerated.
    """
    if family == "A":
        return comb(2 * rank + 2, rank + 1) // (rank + 2)
    if family == "D":
        return (3 * rank - 2) * comb(2 * rank - 2, rank - 1) // rank
    raise InputError(f"no tilting count for family {family!r}")


def completions(cc: ClusterCategory, rest):
    """All indecomposables completing the given n-1 summands to a tilting.

    z completes them when Ext^1(z, t) = 0 for every t in rest, read as bit
    z of compatible(t): Ext^1_C is symmetric in the 2-Calabi-Yau cluster
    category."""
    rest = tuple(rest)
    mask = (1 << len(cc.indecs)) - 1
    for t in rest:
        mask &= cc.compatible(t)
    return [z for z in cc.cids() if mask >> z & 1 and z not in rest]


def mutate(cc: ClusterCategory, tilting: TiltingObject, k: int) -> TiltingObject:
    """Exchange the summand with label k (1-based); unique by theory.

    The tilting is checked (check_tilting) only when the exchange fails: a
    set of summands that is not cluster-tilting raises InputError there,
    and MutationError is left for a checked tilting, an internal fault.
    So the exchange of a tilting pays no check, and a set that is not
    cluster-tilting but whose exchange finds exactly one replacement is
    exchanged unchecked.
    """
    if not 1 <= k <= len(tilting):
        raise InputError(f"label {k} out of range 1..{len(tilting)}")
    old = tilting[k - 1]
    rest = tuple(c for i, c in enumerate(tilting) if i != k - 1)
    try:
        others = [z for z in completions(cc, rest) if z != old]
    except IndexError:  # a cid past the category's
        check_tilting(cc, tilting.summands)
        raise
    if len(others) != 1:
        check_tilting(cc, tilting.summands)
        raise MutationError(
            f"exchange at label {k} found {len(others)} replacements, expected 1")
    new = list(tilting.summands)
    new[k - 1] = others[0]
    return TiltingObject(new)


def mutation_walk(cc: ClusterCategory, steps: int, seed: int = 0,
                  start: TiltingObject | None = None):
    """Seeded random mutation walk; yields the tilting after every step."""
    rng = random.Random(seed)
    cur = start if start is not None else initial_tilting(cc)
    yield cur
    for _ in range(steps):
        cur = mutate(cc, cur, rng.randrange(1, cc.n + 1))
        yield cur


def sample_tiltings(cc: ClusterCategory, count: int, seed: int = 0):
    """At least `count` distinct tiltings from a seeded walk (or all of them).

    Falls back to full enumeration when the walk stalls below the target,
    which only happens when fewer than `count` distinct objects exist.
    """
    seen = {}
    for t in mutation_walk(cc, 16 * count, seed):
        seen.setdefault(t.key(), t)
        if len(seen) >= count:
            return list(seen.values())
    for t in enumerate_tiltings(cc):
        seen.setdefault(t.key(), t)
    return list(seen.values())
