"""Differential tests: the merged closure, closed-subset, section and jt-table
routines against the separate implementations they replaced, kept here
verbatim as oracles."""

import itertools

import pytest

from schreierkit import (all_sections, build_catalog, enumerate_homs,
                         generated_subalgebra, generating_set,
                         pointed_sections, subset)
from schreierkit.algebra import derivation, first_escape
from schreierkit.coherence import JseCheck, _generate_with_trace
from schreierkit.search import _jt_tables, _jt_universe

CAT = build_catalog()
CATALOG_ALGEBRAS = [a for _, a in sorted(CAT.monoids.items())] + \
                   [a for _, a in sorted(CAT.semirings.items())]
ALGEBRAS = CATALOG_ALGEBRAS + _jt_universe(3)


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


def _oracle_generate_with_trace(d, seeds) -> JseCheck:
    how: dict[int, tuple] = {0: ("zero",)}
    for elem, label in seeds:
        how.setdefault(elem, label)
    frontier = list(how)
    tables = d.all_tables()
    while frontier:
        fresh = []
        members = list(how)
        for name, t in tables:
            for x in frontier:
                for y in members:
                    for z, lab in ((t[x][y], (name, x, y)), (t[y][x], (name, y, x))):
                        if z not in how:
                            how[z] = lab
                            fresh.append(z)
        frontier = fresh
    gen = subset(d, how)
    trace = tuple((e, how[e]) for e in gen)
    return JseCheck(gen.is_all(), gen, trace)


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
            assert generated_subalgebra(a, seed).members == tuple(sorted(closed))
            # every seed twice under different labels: the first label wins
            seeds = [(x, ("f", i)) for i, x in enumerate(seed)] + \
                    [(x, ("g", x)) for x in reversed(seed)]
            assert _generate_with_trace(a, seeds) == _oracle_generate_with_trace(a, seeds)


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
