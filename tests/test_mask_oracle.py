"""Differential tests for the bitmask fast path: closure_mask against
derivation, jse_pairs against the per-pair jointly_strongly_epi loop it
replaced (kept here verbatim as the oracle), and the kernel-coherence mask
verdict of the search against check_kernel_coherence."""

import itertools

from schreierkit import (CoherenceInstance, SearchBounds, build_catalog,
                         check_kernel_coherence, check_schreier,
                         enumerate_fibre_morphisms, jointly_strongly_epi)
from schreierkit.algebra import (DEFAULT_HOM_GUARD, closure_mask, derivation,
                                 mask_of)
from schreierkit.coherence import jse_pairs
from schreierkit.search import _Clock, _jt_universe, _points_over, _universe

CAT = build_catalog()
CATALOG_ALGEBRAS = [a for _, a in sorted(CAT.monoids.items())] + \
                   [a for _, a in sorted(CAT.semirings.items())]


def _search_points(variety: str, max_size: int) -> list:
    """The points the search sweeps, one list per base."""
    bounds = SearchBounds(max_size=max_size, variety=variety)
    return list(_points_over(_universe(bounds), _Clock(60)))


# Catalog mon and srng, and jt of size <= 2.
POINT_GROUPS = (_search_points("mon", 4) + _search_points("srng", 4)
                + _search_points("jt", 2))


# ---------------------------------------------------------------------------
# the oracle


def _oracle_jse_pairs(middle, points, *, guard: int = DEFAULT_HOM_GUARD):
    flat = [(l, i, f) for l, p in enumerate(points)
            for i, f in enumerate(enumerate_fibre_morphisms(p, middle, guard=guard))]
    for l, i, f in flat:
        for r, j, g in flat:
            if jointly_strongly_epi(f.g, g.g).ok:
                yield l, i, r, j, f, g


# ---------------------------------------------------------------------------
# the comparisons


def test_closure_mask_matches_derivation_on_every_seed_mask():
    algebras = CATALOG_ALGEBRAS + _jt_universe(3)
    masks = 0
    for a in algebras:
        for mask in range(1 << a.size):
            seeds = [(x, ("s",)) for x in a.elements if mask >> x & 1]
            assert closure_mask(a, mask) == mask_of(derivation(a, seeds))
            masks += 1
    assert len(algebras) == 107 and masks == 1952


def test_jse_pairs_match_the_per_pair_loop():
    yielded = 0
    for points in POINT_GROUPS:
        for middle in points:
            got = [t[:4] for t in jse_pairs(middle, points)]
            assert got == [t[:4] for t in _oracle_jse_pairs(middle, points)]
            yielded += len(got)
    assert yielded == 3801


def test_kernel_mask_verdict_matches_check_kernel_coherence():
    # Every pair of fibre morphisms between Schreier points, jointly
    # strongly epimorphic or not, so that both verdicts occur.
    verdicts = {True: 0, False: 0}
    for points in POINT_GROUPS:
        schreier = [p for p in points if check_schreier(p).is_schreier]
        for middle in schreier:
            kmask = mask_of(middle.kernel.members)
            fibre = [m for p in schreier for m in enumerate_fibre_morphisms(p, middle)]
            for f, g in itertools.product(fibre, repeat=2):
                seeds = (mask_of(f.g.map[x] for x in f.source.kernel)
                         | mask_of(g.g.map[y] for y in g.source.kernel))
                ok = closure_mask(middle.A, seeds) == kmask
                assert ok == check_kernel_coherence(CoherenceInstance(f, g)).ok
                verdicts[ok] += 1
    assert verdicts == {True: 3096, False: 3176}
