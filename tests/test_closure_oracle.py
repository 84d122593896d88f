"""Differential tests: the merged closure, closed-subset, section and jt-table
routines against the separate implementations they replaced, kept here
verbatim as oracles."""

import itertools

import pytest

from schreierkit import (Hom, TabularAlgebra, all_sections, build_catalog,
                         enumerate_homs, generated_subalgebra, generating_set,
                         jointly_strongly_epi, pointed_sections)
from schreierkit.algebra import closure_mask, first_escape, mask_of
from schreierkit.search import _Clock, _jt_tables, _jt_universe

CAT = build_catalog()
CATALOG_ALGEBRAS = [a for _, a in sorted(CAT.monoids.items())] + \
                   [a for _, a in sorted(CAT.semirings.items())]
ALGEBRAS = CATALOG_ALGEBRAS + _jt_universe(3, _Clock(60))


# ---------------------------------------------------------------------------
# the oracles


def _close(a, seed) -> frozenset:
    members = set(seed)
    members.add(0)
    tables = a.all_tables()
    frontier = list(members)
    while frontier:
        fresh = []
        snapshot = tuple(members)  # same-round pairs resolve next round
        for _, t in tables:
            for x in frontier:
                for y in snapshot:
                    for z in (t[x][y], t[y][x]):
                        if z not in members:
                            members.add(z)
                            fresh.append(z)
        frontier = fresh
    return frozenset(members)


def _generating_set(a) -> tuple[int, ...]:
    gens: list[int] = []
    closed = _close(a, ())
    for x in a.elements:
        if x not in closed:
            gens.append(x)
            closed = _close(a, closed | {x})
    return tuple(gens)


def derivation(a: TabularAlgebra, seeds) -> dict[int, tuple]:
    """Map each element generated by 0 and the (element, label) seeds to how it
    first arose: ("zero",), its first seed's label, or (op_name, y, z).  Per
    round: ops in all_tables() order, x over the last round's new elements, y
    over those known when the round began, x op y then y op x."""
    how: dict[int, tuple] = {0: ("zero",)}
    for elem, label in seeds:
        how.setdefault(elem, label)
    frontier = list(how)
    tables = a.all_tables()
    while frontier:
        fresh = []
        members = list(how)
        for name, t in tables:
            for x in frontier:
                row = t[x]
                for y in members:
                    z = row[y]
                    if z not in how:
                        how[z] = (name, x, y)
                        fresh.append(z)
                    z = t[y][x]
                    if z not in how:
                        how[z] = (name, y, x)
                        fresh.append(z)
        frontier = fresh
    return how


def _oracle_kernel_escape(a, members):
    # The scan Point.__post_init__ ran on the kernel.
    inside = set(members)
    for name, t in a.all_tables():
        for x in members:
            for y in members:
                if t[x][y] not in inside:
                    return name, x, y
    return None


def _oracle_pointed_sections(h):
    fibres = [[e for e in h.source.elements if h.map[e] == b] for b in h.target.elements]
    fibres[0] = [0]
    return tuple(itertools.product(*fibres))


def _jt_add_tables(n: int):
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    for fill in itertools.product(range(n), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            rows[0][j] = j
            rows[j][0] = j
        for (i, j), v in zip(cells, fill):
            rows[i][j] = v
        yield rows


def _jt_mul_tables(n: int):
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    for fill in itertools.product(range(n), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, fill):
            rows[i][j] = v
        yield rows


def _seed_subsets(a):
    for r in range(a.size + 1):
        yield from itertools.combinations(a.elements, r)


def _onto(a, values) -> Hom:
    """A map a -> a whose image is values, or {0} when values is empty."""
    return Hom(a, a, tuple(values[x % len(values)] if values else 0 for x in a.elements))


# ---------------------------------------------------------------------------
# the comparisons


def test_the_sweep_covers_catalog_and_jt_algebras():
    assert len(CATALOG_ALGEBRAS) == len(CAT.monoids) + len(CAT.semirings)
    assert len(ALGEBRAS) - len(CATALOG_ALGEBRAS) == 89  # 84 add-only, 5 with mul
    assert sum(2 ** a.size for a in ALGEBRAS) >= 1900


def test_closure_matches_the_oracles_on_every_seed_subset():
    for a in ALGEBRAS:
        assert generating_set(a) == _generating_set(a)
        for seed in _seed_subsets(a):
            closed = _close(a, seed)
            assert set(derivation(a, ((x, ("s",)) for x in seed))) == closed
            assert closure_mask(a, mask_of(seed)) == mask_of(closed)
            assert generated_subalgebra(a, seed).members == tuple(sorted(closed))
            # the seed split between the images of two maps
            half = len(seed) // 2
            chk = jointly_strongly_epi(_onto(a, seed[:half]), _onto(a, seed[half:]))
            assert chk.generated.members == tuple(sorted(closed))
            assert chk.ok == (len(closed) == a.size)


def test_first_escape_matches_the_kernel_scan():
    escaped = 0
    for a in ALGEBRAS:
        for members in _seed_subsets(a):
            got = first_escape(a, members)
            assert got == _oracle_kernel_escape(a, members)
            if 0 in members:
                generated = derivation(a, ((x, ("s",)) for x in members))
                assert (got is None) == (set(generated) == set(members))
            escaped += got is not None
    assert escaped > 0


def test_pointed_sections_match_the_pinned_fibre_product():
    surjective = 0
    for pool in (CAT.monoids, CAT.semirings):
        for (_, e), (_, b) in itertools.product(sorted(pool.items()), repeat=2):
            for h in enumerate_homs(e, b):
                if not h.is_surjective():
                    continue
                surjective += 1
                assert pointed_sections(h) == _oracle_pointed_sections(h)
                assert set(pointed_sections(h)) <= set(all_sections(h))
    assert surjective > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jt_tables_match_the_two_generators(n):
    assert list(_jt_tables(n, unit=True)) == list(_jt_add_tables(n))
    assert list(_jt_tables(n, unit=False)) == list(_jt_mul_tables(n))
