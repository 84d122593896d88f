"""Differential tests for L(B, M): cofree_mon, which now chooses values only
where the equation u(h(e) + b) = e . u(b) leaves them free and propagates
the rest, and cofree_mon_surjective, which now tests each distinct pair of
acting rows once, against the brute-force filters they replaced (kept here
verbatim as oracles), on every (h, F) of both monoid adjunction sweeps and
every pointed section of the surjective sweep."""

import functools
import itertools

from schreierkit import (Hom, MonoidAction, build_catalog, cofree_mon,
                         cofree_mon_surjective, enumerate_homs,
                         enumerate_monoid_actions, pointed_sections)
from schreierkit.algebra import DEFAULT_HOM_GUARD
from schreierkit.suites import (ADJUNCTION_BASE_MAX, ADJUNCTION_CARRIER_MAX,
                                ADJUNCTION_SOURCE_MAX,
                                ADJUNCTION_SURJ_BASE_MAX, _action_pool, _sized)

CAT = build_catalog()


# ---------------------------------------------------------------------------
# the oracles


def _oracle_member_mon(u, h: Hom, F: MonoidAction) -> bool:
    badd = h.target.add
    return all(F.act[e][u[b]] == u[badd[h.map[e]][b]]
               for e in h.source.elements for b in h.target.elements)


def _oracle_cofree_elements(h: Hom, F: MonoidAction) -> tuple[tuple[int, ...], ...]:
    """cofree_mon's element filter over all |M| ** |B| functions."""
    B, M = h.target, F.X
    return tuple(u for u in itertools.product(M.elements, repeat=B.size)
                 if _oracle_member_mon(u, h, F))


def _oracle_surjective_members(c, sect) -> tuple[int, ...]:
    """cofree_mon_surjective's members, testing every pair (e, b)."""
    h, F = c.h, c.m_action
    E, B, M = h.source, h.target, F.X
    act = F.act
    return tuple(m for m in M.elements
                 if all(act[E.add[e][sect[b]]][m] == act[sect[B.add[h.map[e]][b]]][m]
                        for e in E.elements for b in B.elements))


# ---------------------------------------------------------------------------
# the sweeps' (h, F)


ACTIONS_ON = _action_pool(_sized(CAT.monoids, ADJUNCTION_CARRIER_MAX),
                          enumerate_monoid_actions, DEFAULT_HOM_GUARD)


def _triple_sweep():
    """(h, F) of the cofree-adjunction[mon] sweep, in its order."""
    for _, E in _sized(CAT.monoids, ADJUNCTION_SOURCE_MAX):
        for _, B in _sized(CAT.monoids, ADJUNCTION_BASE_MAX):
            for h in enumerate_homs(E, B):
                for F in ACTIONS_ON(E):
                    yield h, F


def _surjective_sweep():
    """(h, F) of the surjective-cofree[mon] sweep, in its order."""
    for _, E in sorted(CAT.monoids.items()):
        for _, B in _sized(CAT.monoids, ADJUNCTION_SURJ_BASE_MAX):
            for h in enumerate_homs(E, B):
                if h.is_surjective():
                    for F in ACTIONS_ON(E):
                        yield h, F


SURJECTIVE = list(dict.fromkeys(_surjective_sweep()))
PAIRS = list(dict.fromkeys([*_triple_sweep(), *SURJECTIVE]))
_cofree = functools.cache(cofree_mon)  # each L(B, M) built once for both tests


def test_cofree_elements_match_the_oracle():
    assert (len(PAIRS), len(SURJECTIVE)) == (6278, 4897)
    for h, F in PAIRS:
        c = _cofree(h, F)
        assert c.elements == _oracle_cofree_elements(h, F), (h.map, F.act)
        assert c.pos == {u: i for i, u in enumerate(c.elements)}


def test_surjective_members_match_the_oracle():
    sections = 0
    for h, F in SURJECTIVE:
        c = _cofree(h, F)
        for sect in pointed_sections(h):
            sections += 1
            got = cofree_mon_surjective(c, sect).members
            assert got == _oracle_surjective_members(c, sect), (h.map, F.act, sect)
    assert sections == 25127  # the instances of surjective-cofree[mon]
