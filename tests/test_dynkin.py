"""AR-quiver knitting against root-system and representation-theoretic facts."""

import re

import pytest

from clustercat import cli, dynkin
from clustercat.dynkin import (
    MeshConsistencyError,
    QuiverDescriptor,
    build_quiver,
    diagram_edges,
    euler_form,
    knit,
    positive_roots,
)


def expected_root_count(family, rank):
    return rank * (rank + 1) // 2 if family == "A" else rank * (rank - 1)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("D", 6)],
)
def test_positive_root_counts(family, rank):
    roots = positive_roots(family, rank)
    assert len(roots) == expected_root_count(family, rank)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("D", 6)],
)
def test_knit_enumerates_exactly_the_positive_roots(family, rank):
    q = build_quiver(family, rank)
    ar = knit(q)
    dims = {m.dim for m in ar.indecs}
    assert len(dims) == len(ar.indecs)
    assert dims == positive_roots(family, rank)


def test_knit_a3_has_six_indecomposables():
    ar = knit(build_quiver("A", 3))
    assert len(ar.indecs) == 6


def test_knit_d4_has_twelve_indecomposables():
    ar = knit(build_quiver("D", 4))
    assert len(ar.indecs) == 12


def test_custom_orientation_must_cover_diagram():
    with pytest.raises(ValueError):
        QuiverDescriptor("A", 3, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        QuiverDescriptor("A", 3, [(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        build_quiver("D", 3)
    QuiverDescriptor("A", 3, [(2, 1), (2, 3)])
    QuiverDescriptor("D", 4, [(3, 1), (3, 2), (4, 3)])


def test_diagram_edges_d5():
    edges = diagram_edges("D", 5)
    assert frozenset((1, 3)) in edges and frozenset((2, 3)) in edges
    assert frozenset((1, 2)) not in edges
    assert len(edges) == 4


def test_projective_and_injective_dims_linear_a3():
    ar = knit(build_quiver("A", 3))
    proj_dims = {i: ar.dim(ar.proj_mid[i]) for i in (1, 2, 3)}
    assert proj_dims == {1: (1, 1, 1), 2: (0, 1, 1), 3: (0, 0, 1)}
    inj_dims = {i: ar.dim(ar.inj_mid[i]) for i in (1, 2, 3)}
    assert inj_dims == {1: (1, 0, 0), 2: (1, 1, 0), 3: (1, 1, 1)}


def test_tau_orbits_end_in_injectives():
    ar = knit(build_quiver("D", 4))
    for m in ar.indecs:
        if m.mid not in ar.tau_inv:
            assert m.injective
        if m.mid not in ar.tau:
            assert m.projective


def test_hom_dims_a2():
    ar = knit(build_quiver("A", 2))
    p1, p2 = ar.proj_mid[1], ar.proj_mid[2]
    s1 = ar.inj_mid[1]
    assert ar.hom_dim(p2, p1) == 1  # radical inclusion
    assert ar.hom_dim(p1, p2) == 0
    assert ar.hom_dim(p1, s1) == 1  # quotient onto the top
    assert ar.hom_dim(s1, p1) == 0
    assert all(ar.hom_dim(x, x) == 1 for x in range(3))
    assert ar.ext_dim(s1, p2) == 1  # the one non-split extension
    assert ar.ext_dim(p2, s1) == 0


def test_ext_vanishes_from_projectives():
    ar = knit(build_quiver("D", 4))
    for i in (1, 2, 3, 4):
        p = ar.proj_mid[i]
        assert all(ar.ext_dim(p, y.mid) == 0 for y in ar.indecs)


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 4), ("D", 4)])
def test_euler_form_equals_hom_minus_ext(family, rank):
    q = build_quiver(family, rank)
    ar = knit(q)
    for x in ar.indecs:
        for y in ar.indecs:
            lhs = ar.hom_dim(x.mid, y.mid) - ar.ext_dim(x.mid, y.mid)
            assert lhs == euler_form(q, x.dim, y.dim)


def test_mesh_additivity_holds_on_knitted_quiver():
    ar = knit(build_quiver("D", 5))
    for x, z in ar.tau_inv.items():
        total = [0] * 5
        for s in ar.succ[x]:  # the middle terms of the mesh at x
            for k in range(5):
                total[k] += ar.dim(s)[k]
        got = tuple(a - b for a, b in zip(total, ar.dim(x)))
        assert got == ar.dim(z)


def test_a_failed_knitting_check_is_an_internal_error(monkeypatch, capsys):
    """Knitting's guards raise MeshConsistencyError, the one error type of
    every internal check, and the CLI reports it as an internal error: exit
    3, never the exit code of bad input or of a disagreement.

    With each projective cut down to its top vertex, mesh additivity on A3
    produces a negative dimension.
    """
    closure = dynkin._path_closure

    def tops_only(quiver, start, forward=True):
        return {start} if forward else closure(quiver, start, forward)

    monkeypatch.setattr(dynkin, "_path_closure", tops_only)
    with pytest.raises(MeshConsistencyError, match=re.escape(
            "mesh additivity produced dim (0, 1, -1)")):
        knit(build_quiver("A", 3))
    assert cli.main(["build", "--family", "A", "--rank", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: MeshConsistencyError")
    assert "Traceback" not in err
