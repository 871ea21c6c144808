"""Cluster-tilting objects: enumeration, verification, mutation.

A cluster-tilting object is a maximal rigid object: n pairwise
Ext-orthogonal indecomposables (n the rank).  In Dynkin types size n and
maximality coincide, but is_cluster_tilting checks maximality explicitly
anyway.

Summands carry labels 1..n by position.  A freshly built object lists its
summands in ascending cid order; mutation replaces one summand in place, so
labels stay attached to their positions along a mutation walk.
"""

from __future__ import annotations

import random

from .cluster import ClusterCategory


class MutationError(RuntimeError):
    """The exchange at a summand did not produce exactly one alternative."""


class TiltingObject:
    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = tuple(map(int, summands))
        if len(set(self.summands)) != len(self.summands):
            raise ValueError("tilting summands must be distinct")

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
    """First (cid, cid) pair with nonvanishing Ext^1, in scan order, or None."""
    s = tuple(summands)
    for a in range(len(s)):
        for b in range(a, len(s)):
            if cc.ext1_c(s[a], s[b]) or cc.ext1_c(s[b], s[a]):
                return (s[a], s[b])
    return None


def is_rigid(cc: ClusterCategory, summands) -> bool:
    return first_ext_violation(cc, summands) is None


def is_cluster_tilting(cc: ClusterCategory, summands) -> bool:
    s = tuple(summands)
    if len(s) != cc.n or len(set(s)) != cc.n:
        return False
    if not is_rigid(cc, s):
        return False
    # maximality, checked directly rather than trusted from the count
    chosen = set(s)
    for z in cc.cids():
        if z in chosen:
            continue
        if all(cc.ext1_c(z, t) == 0 for t in s):
            return False
    return True


def initial_tilting(cc: ClusterCategory) -> TiltingObject:
    """The projectives P_1..P_n; rigid because Ext^1_C restricts to Ext^1_kQ."""
    return TiltingObject(cc.module_cid(cc.mod.proj_mid[v])
                         for v in cc.quiver.vertices)


def enumerate_tiltings(cc: ClusterCategory):
    """All cluster-tilting objects, as sorted-summand TiltingObjects.

    Max-clique search over the Ext-compatibility graph; every indecomposable
    is rigid here, so cliques of size n are exactly the tilting objects.
    """
    m = len(cc.indecs)
    adj = []
    for x in cc.cids():
        bits = 0
        for y in cc.cids():
            if y != x and cc.ext1_c(x, y) == 0:
                bits |= 1 << y
        adj.append(bits)

    out = []
    n = cc.n

    def extend(cand, chosen):
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
                extend(cand & adj[y], chosen)
            chosen.pop()

    extend((1 << m) - 1, [])
    return out


def completions(cc: ClusterCategory, rest):
    """All indecomposables completing the given n-1 summands to a tilting."""
    rest = tuple(rest)
    found = []
    for z in cc.cids():
        if z in rest:
            continue
        if all(cc.ext1_c(z, t) == 0 for t in rest):
            found.append(z)
    return found


def mutate(cc: ClusterCategory, tilting: TiltingObject, k: int) -> TiltingObject:
    """Exchange the summand with label k (1-based); unique by theory."""
    if not 1 <= k <= len(tilting):
        raise ValueError(f"label {k} out of range 1..{len(tilting)}")
    old = tilting[k - 1]
    rest = tuple(c for i, c in enumerate(tilting) if i != k - 1)
    others = [z for z in completions(cc, rest) if z != old]
    if len(others) != 1:
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
    for steps_budget in (4 * count, 16 * count):
        for t in mutation_walk(cc, steps_budget, seed):
            seen.setdefault(t.key(), t)
            if len(seen) >= count:
                return list(seen.values())
    for t in enumerate_tiltings(cc):
        seen.setdefault(t.key(), t)
    return list(seen.values())
