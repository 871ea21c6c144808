"""Frozen golden configuration: the D6 tilting with a 3-cycle in its quiver.

One cluster-tilting object of C_{D6} has endomorphism quiver

    6 --a--> 4 <--b-- 5        1 --e--> 2
             |                 ^        |
             c                 d        f
             v                 |        v
             1 <-------------- 3 <------'

that is, arrows a: 6->4, b: 5->4, c: 4->1, d: 3->1, e: 1->2, f: 2->3,
with the three cycle composites de, ef, fd all zero and the composites
ac, bc, ce all nonzero.  This configuration exercises every infinite
projective dimension phenomenon the engine computes, so it is frozen
here as a regression anchor together with its derived invariants.

The locator rederives the tilting from scratch; the frozen constants
let tests pin the exact expected values.
"""

from itertools import permutations

from .algebra import build_algebra
from .cluster import ClusterCategory
from .dynkin import InputError
from .tilting import TiltingObject, enumerate_tiltings

# arrow set of the target quiver, as (source, target) pairs
CYCLE_D6_ARROWS = frozenset(
    {(6, 4), (5, 4), (4, 1), (3, 1), (1, 2), (2, 3)}
)

# length-2 paths (i -> j -> k) whose composites must vanish / survive
CYCLE_D6_DEAD = (
    ((3, 1), (1, 2)),
    ((1, 2), (2, 3)),
    ((2, 3), (3, 1)),
)
CYCLE_D6_ALIVE = (
    ((6, 4), (4, 1)),
    ((5, 4), (4, 1)),
    ((4, 1), (1, 2)),
)

# total dimension of the algebra: 17 alive paths
CYCLE_D6_DIM = 17


def _target_cartan():
    """0/1 matrix m[s][e]: an alive path from vertex s to vertex e exists."""
    alive = {
        1: (1, 2),
        2: (2, 3),
        3: (3, 1),
        4: (4, 1, 2),
        5: (5, 4, 1, 2),
        6: (6, 4, 1, 2),
    }
    m = {}
    for s in range(1, 7):
        for e in range(1, 7):
            m[(s, e)] = 1 if e in alive[s] else 0
    return m


def _profile_perms(h, target):
    """Label bijections sigma with target[(s,e)] == h[(sigma s, sigma e)]."""
    labels = list(range(1, 7))
    t_prof = {
        v: (
            sum(target[(v, e)] for e in labels),
            sum(target[(s, v)] for s in labels),
        )
        for v in labels
    }
    h_prof = {
        v: (
            sum(h[(v, e)] for e in labels),
            sum(h[(s, v)] for s in labels),
        )
        for v in labels
    }
    if sorted(t_prof.values()) != sorted(h_prof.values()):
        return
    for perm in permutations(labels):
        sigma = dict(zip(labels, perm))
        if any(t_prof[v] != h_prof[sigma[v]] for v in labels):
            continue
        if all(
            target[(s, e)] == h[(sigma[s], sigma[e])]
            for s in labels
            for e in labels
        ):
            yield sigma


def _relation_signature(alg):
    """(dead composites all zero, alive composites all nonzero)."""
    reps = alg.arrow_representatives()
    singles = {(i, j): fs[0] for (i, j), fs in reps.items()}
    s = alg.summand

    def nonzero(first, second):
        # path i -> j -> k is the morphism T_k -> T_j -> T_i
        (i, j), (_j, k) = first, second
        return any(alg.cc.compose(s[k], s[j], s[i],
                                  singles[second], singles[first]))

    dead = not any(nonzero(p, q) for p, q in CYCLE_D6_DEAD)
    alive = all(nonzero(p, q) for p, q in CYCLE_D6_ALIVE)
    return dead, alive


def find_cycle_tiltings(cc: ClusterCategory):
    """All D6 tiltings realizing the cycle quiver, relabeled to match it.

    Candidates are prefiltered by the Hom-dimension matrix (it must be a
    label permutation of the target Cartan 0/1 pattern), then confirmed
    on the relabeled algebra: exact arrow set, zero cycle composites,
    nonzero pendant composites.  Summands are reordered so that label k
    of the result is vertex k of the target quiver.
    """
    if (cc.quiver.family, cc.quiver.rank) != ("D", 6):
        raise InputError("the cycle quiver preset lives in C_{D6}")
    # dim Hom(T_a, T_b) counts alive paths b -> a, so match the transpose
    target = {(e, s): v for (s, e), v in _target_cartan().items()}
    found = []
    for t in enumerate_tiltings(cc):
        h = {
            (a, b): cc.hom_dim_c(t.summands[a - 1], t.summands[b - 1])
            for a in range(1, 7)
            for b in range(1, 7)
        }
        if sum(h.values()) != CYCLE_D6_DIM or any(v > 1 for v in h.values()):
            continue
        for sigma in _profile_perms(h, target):
            relabeled = TiltingObject(
                tuple(t.summands[sigma[k] - 1] for k in range(1, 7))
            )
            alg = build_algebra(cc, relabeled)
            arrows = {(i, j) for i, j, _m in alg.gabriel_arrows()}
            if arrows != CYCLE_D6_ARROWS:
                continue
            dead, alive = _relation_signature(alg)
            if dead and alive:
                found.append(relabeled)
                break
    return found


# Frozen values, rederived by tests via find_cycle_tiltings and the
# hammock/syzygy engines.  The locator finds exactly 6 tiltings (translates
# of one configuration); the lexicographically least summand tuple is kept.
CYCLE_D6_HIT_COUNT = 6
CYCLE_D6_SUMMANDS = (3, 5, 9, 2, 0, 1)

# the 10 modules of infinite projective dimension, with their dimension
# vectors over End(T) (component k is dim Hom(T_k, M))
CYCLE_D6_INFINITE = {
    4: (0, 1, 0, 0, 0, 0),
    7: (1, 0, 0, 0, 0, 0),
    8: (1, 0, 0, 1, 0, 0),
    10: (2, 1, 0, 2, 1, 1),
    12: (1, 0, 0, 1, 0, 1),
    13: (1, 0, 0, 1, 1, 0),
    16: (2, 0, 1, 2, 1, 1),
    20: (1, 0, 0, 2, 1, 1),
    23: (1, 0, 0, 1, 1, 1),
    34: (0, 0, 1, 0, 0, 0),
}

# pairs (i, j) whose hammock meets add T[1] in its endpoints only; every
# other nonempty H(i,j) extends one of these through further shifted
# summands and adds no new modules
CYCLE_D6_PRIMITIVE_PAIRS = frozenset({(2, 1), (1, 3), (3, 2)})
CYCLE_D6_EXTENDED_PAIRS = frozenset({(2, 4), (2, 5), (2, 6)})

# per primitive pair: the modules of H(i,j) outside add T[1]
CYCLE_D6_PAIR_EXTRAS = {
    (2, 1): frozenset({34}),
    (1, 3): frozenset({4}),
    (3, 2): frozenset({7, 8, 10, 12, 13, 16, 20, 23}),
}

# projective dimension class counts over the 26 non-shifted indecomposables
CYCLE_D6_PD_COUNTS = {"0": 6, "1": 14, "inf": 10}


def cycle_d6_tilting(cc: ClusterCategory) -> TiltingObject:
    """The frozen representative tilting with the cycle quiver."""
    if (cc.quiver.family, cc.quiver.rank) != ("D", 6):
        raise InputError("the cycle quiver preset lives in C_{D6}")
    return TiltingObject(CYCLE_D6_SUMMANDS)
