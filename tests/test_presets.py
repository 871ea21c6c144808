"""The frozen D6 cycle-quiver configuration rederives exactly."""

from clustercat.algebra import PdClass, build_algebra, module_of
from clustercat.hammocks import (
    Shape,
    hij,
    hij_closed_form,
    left_hammock,
    right_hammock,
    verify_main_theorem,
)
from clustercat.presets import (
    CYCLE_D6_ARROWS,
    CYCLE_D6_DIM,
    CYCLE_D6_EXTENDED_PAIRS,
    CYCLE_D6_HIT_COUNT,
    CYCLE_D6_INFINITE,
    CYCLE_D6_PAIR_EXTRAS,
    CYCLE_D6_PD_COUNTS,
    CYCLE_D6_PRIMITIVE_PAIRS,
    CYCLE_D6_SUMMANDS,
    _relation_signature,
    cycle_d6_tilting,
    find_cycle_tiltings,
)
from clustercat.tilting import is_cluster_tilting


def test_locator_rederives_frozen_tilting(category):
    cc = category("D", 6)
    hits = find_cycle_tiltings(cc)
    assert len(hits) == CYCLE_D6_HIT_COUNT
    assert all(is_cluster_tilting(cc, h.summands) for h in hits)
    assert min(h.summands for h in hits) == CYCLE_D6_SUMMANDS


def test_frozen_algebra_structure(category):
    cc = category("D", 6)
    alg = build_algebra(cc, cycle_d6_tilting(cc))
    assert alg.dim == CYCLE_D6_DIM
    assert {(i, j) for i, j, _m in alg.gabriel_arrows()} == CYCLE_D6_ARROWS
    assert all(m == 1 for _i, _j, m in alg.gabriel_arrows())
    dead, alive = _relation_signature(alg)
    assert dead and alive
    assert not alg.gabriel_quiver_is_acyclic()


def test_frozen_infinite_modules(category):
    cc = category("D", 6)
    t = cycle_d6_tilting(cc)
    report = verify_main_theorem(cc, t)
    assert report.agreement
    assert report.infinite_cids() == frozenset(CYCLE_D6_INFINITE)
    shifted = {cc.shift(s) for s in t.summands}
    assert frozenset().union(*report.hij.values()) - shifted == \
        report.infinite_cids()
    counts = {str(k.value): v for k, v in report.counts.items()}
    assert counts == CYCLE_D6_PD_COUNTS
    alg = build_algebra(cc, t)
    for cid, dims in CYCLE_D6_INFINITE.items():
        mod = module_of(alg, cid)
        assert tuple(mod.dims[k] for k in range(1, 7)) == dims


def test_primitive_pairs_and_extras(category):
    cc = category("D", 6)
    t = cycle_d6_tilting(cc)
    shifted = {cc.shift(s) for s in t.summands}
    primitive = {}
    extended = set()
    for i in range(1, 7):
        for j in range(1, 7):
            h = hij(cc, t, i, j)
            extras = h - shifted
            if not extras:
                continue
            endpoints = {cc.shift(t.summands[i - 1]), cc.shift(t.summands[j - 1])}
            if h & shifted == endpoints:
                primitive[(i, j)] = extras
            else:
                extended.add((i, j))
    assert set(primitive) == set(CYCLE_D6_PRIMITIVE_PAIRS)
    assert extended == set(CYCLE_D6_EXTENDED_PAIRS)
    for pair, extras in CYCLE_D6_PAIR_EXTRAS.items():
        assert primitive[pair] == extras
    union = set()
    for extras in primitive.values():
        union |= extras
    assert union == set(CYCLE_D6_INFINITE)


def test_pair_shapes(category):
    cc = category("D", 6)
    t = cycle_d6_tilting(cc)
    assert hij_closed_form(cc, t, 2, 1).shape is Shape.SECTIONAL_PATH
    assert hij_closed_form(cc, t, 1, 3).shape is Shape.SECTIONAL_PATH
    assert hij_closed_form(cc, t, 3, 2).shape is Shape.SWING
    # the coincidence case: this swing fills the whole support intersection
    inter = left_hammock(cc, t, 3) & right_hammock(cc, t, 2)
    assert hij(cc, t, 3, 2) == inter


def test_extended_pairs_absorbed(category):
    """Extended pairs reuse modules already carried by primitive pairs."""
    cc = category("D", 6)
    t = cycle_d6_tilting(cc)
    shifted = {cc.shift(s) for s in t.summands}
    covered = set()
    for extras in CYCLE_D6_PAIR_EXTRAS.values():
        covered |= extras
    for i, j in CYCLE_D6_EXTENDED_PAIRS:
        extras = hij(cc, t, i, j) - shifted
        assert extras
        assert extras <= covered
