"""Differential tests for the fibre squares decided on map arrays: fibre_maps,
enumerate_fibre_morphisms and kernel bijectivity against the compose-based
enumeration and the kernel-restriction test they replaced (kept here
verbatim as oracles), on every same-base point pair of the catalog and of
the search universes."""

import pytest

from schreierkit import (PointMorphism, SearchBounds, StructuralError,
                         build_catalog, compose, enumerate_fibre_morphisms,
                         enumerate_homs, fibre_maps, identity_hom,
                         kernel_bijective, kernel_restriction_bijective)
from schreierkit.algebra import DEFAULT_HOM_GUARD
from schreierkit.search import _Clock, _points_over, _universe

CAT = build_catalog()


def _search_points(variety: str, max_size: int) -> list:
    """The points the search sweeps, one list per base."""
    clock = _Clock(60)
    bounds = SearchBounds(max_size=max_size, variety=variety)
    return list(_points_over(_universe(bounds, clock), clock))


# The catalog's points, and those of the mon and srng searches at size 4
# and of the jt search at size 3.
POINT_GROUPS = ([list(CAT.points.values())] + _search_points("mon", 4)
                + _search_points("srng", 4) + _search_points("jt", 3))


# ---------------------------------------------------------------------------
# the oracles


def _oracle_enumerate_fibre_morphisms(p1, p2, *, guard: int = DEFAULT_HOM_GUARD):
    """All morphisms over the identity of the common base, in lex order of g."""
    if p1.B != p2.B:
        raise StructuralError("fibre morphisms need points over the same base")
    idb = identity_hom(p1.B)
    out = []
    for g in enumerate_homs(p1.A, p2.A, guard=guard):
        if compose(p2.f, g).map == p1.f.map and compose(g, p1.s).map == p2.s.map:
            out.append(PointMorphism(p1, p2, g, idb))
    return tuple(out)


def _oracle_kernel_restriction(m) -> dict[int, int]:
    """g restricted to kernels (it always lands there)."""
    return {a: m.g.map[a] for a in m.source.kernel}


def _oracle_kernel_restriction_bijective(m) -> bool:
    restriction = _oracle_kernel_restriction(m)
    values = list(restriction.values())
    return (len(set(values)) == len(values)
            and set(values) == set(m.target.kernel.members))


# ---------------------------------------------------------------------------
# the comparisons


def test_fibre_maps_and_kernel_bijectivity_match_the_oracles():
    pairs = morphisms = 0
    kernel_bijective_count = 0
    for points in POINT_GROUPS:
        for p1 in points:
            for p2 in points:
                if p1.B != p2.B:
                    continue
                pairs += 1
                want = _oracle_enumerate_fibre_morphisms(p1, p2)
                assert fibre_maps(p1, p2) == tuple(m.g.map for m in want)
                assert enumerate_fibre_morphisms(p1, p2) == want
                for m in want:
                    kb = _oracle_kernel_restriction_bijective(m)
                    assert kernel_bijective(p1, p2, m.g.map) == kb
                    assert kernel_restriction_bijective(m) == kb
                    kernel_bijective_count += kb
                morphisms += len(want)
    assert (pairs, morphisms, kernel_bijective_count) == (8313, 10471, 1054)


def test_fibre_maps_refuse_points_over_different_bases():
    p1, p2 = CAT.points["id_b2"], CAT.points["id_n3"]
    with pytest.raises(StructuralError, match="same base"):
        _oracle_enumerate_fibre_morphisms(p1, p2)
    with pytest.raises(StructuralError, match="same base"):
        fibre_maps(p1, p2)
