"""Differential tests for the fibre squares decided on map arrays: fibre_maps,
enumerate_fibre_morphisms and the split short five lemma's ssfl_facts
against the compose-based enumeration, the kernel-restriction test and the
PointMorphism-level SSFL predicates they replaced (kept here verbatim as
oracles), on every same-base point pair of the catalog and of the search
universes."""

import pytest

from schreierkit import (Hom, NotSchreier, PointMorphism, SearchBounds,
                         StructuralError, build_catalog, check_schreier,
                         compose, enumerate_fibre_morphisms, enumerate_homs,
                         fibre_maps, identity_hom, schreier_retraction,
                         ssfl_facts)
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


def _oracle_kernel_bijective(p1, p2, g: tuple[int, ...]) -> bool:
    """Does the total map g of a fibre morphism p1 -> p2 restrict to a
    bijection of kernels?  (It always lands in the kernel of p2.)"""
    return sorted(g[x] for x in p1.kernel) == list(p2.kernel.members)


def _oracle_parent_kernel_restriction_bijective(m) -> bool:
    return _oracle_kernel_bijective(m.source, m.target, m.g.map)


def _oracle_check_ssfl(m) -> bool:
    """Split Short Five Lemma instance for a fibre morphism of Schreier points:
    if g restricts to a bijection on kernels then g is bijective.

    Returns whether the implication holds for this morphism.  Rejects
    non-fibre morphisms and non-Schreier endpoints.
    """
    if not m.is_fibre:
        raise StructuralError("check_ssfl needs a fibre morphism (h = identity)")
    for p in (m.source, m.target):
        schreier_retraction(p)
    return _oracle_ssfl_implication(m)


def _oracle_ssfl_implication(m) -> bool:
    """The bare implication (kernel restriction bijective => g bijective),
    with no Schreier requirement.  Off the Schreier class it can fail; the
    search harness uses this form to look for such failures."""
    if not _oracle_parent_kernel_restriction_bijective(m):
        return True
    return m.g.is_bijective()


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
                    assert _oracle_kernel_bijective(p1, p2, m.g.map) == kb
                    assert _oracle_parent_kernel_restriction_bijective(m) == kb
                    kernel_bijective_count += kb
                morphisms += len(want)
    assert (pairs, morphisms, kernel_bijective_count) == (8313, 10471, 1054)


def test_ssfl_facts_match_the_parent_predicates():
    """On every fibre map of the catalog and of the SSFLFailureOffClass search
    universes (mon and srng at size 4, jt at size 3): the kernel fact, the
    bijectivity fact, the bare implication, and check_ssfl's verdict or
    refusal when an endpoint is not Schreier."""
    facts = dict.fromkeys(((kb, bij) for kb in (True, False) for bij in (True, False)), 0)
    refused = 0
    for points in POINT_GROUPS:
        schreier = [check_schreier(p).is_schreier for p in points]
        for i, p1 in enumerate(points):
            for j, p2 in enumerate(points):
                if p1.B != p2.B:
                    continue
                for g in fibre_maps(p1, p2):
                    got = ssfl_facts(p1, p2, g)
                    m = PointMorphism(p1, p2, Hom(p1.A, p2.A, g), identity_hom(p1.B))
                    assert got == (_oracle_parent_kernel_restriction_bijective(m),
                                   m.g.is_bijective())
                    holds = got != (True, False)
                    assert _oracle_ssfl_implication(m) == holds
                    if schreier[i] and schreier[j]:
                        assert _oracle_check_ssfl(m) == holds
                    else:
                        with pytest.raises(NotSchreier):
                            _oracle_check_ssfl(m)
                        refused += 1
                    facts[got] += 1
    assert sum(facts.values()) == 10471
    assert facts[True, True] + facts[True, False] == 1054
    # the searches report 44 (mon), 0 (srng) and 296 (jt) failures; the
    # catalog's non-Schreier points add 3
    assert (facts[True, False], refused) == (343, 710)


def test_fibre_maps_refuse_points_over_different_bases():
    p1, p2 = CAT.points["id_b2"], CAT.points["id_n3"]
    with pytest.raises(StructuralError, match="same base"):
        _oracle_enumerate_fibre_morphisms(p1, p2)
    with pytest.raises(StructuralError, match="same base"):
        fibre_maps(p1, p2)
