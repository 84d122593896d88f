"""Differential tests: the cached hash and the shared signature of
TabularAlgebra against the values they replaced.  The old signature(), which
rebuilt (kind, op names) on every call, and the old same_signature, which
compared two such tuples, are kept here verbatim as the oracle; the old hash
was the dataclass hash of the five fields' tuple.

The sample is the catalog, the additive monoids of its semirings as
commutative monoids, its binary products, the pullbacks and
subalgebras of its points, a few L(B, M) monoids and the jt size-3
universe.  Every algebra is also rebuilt from its fields, so that each equal
pair is two distinct objects.
"""

import itertools

import pytest

from schreierkit import (GuardExceeded, SignatureMismatch, TabularAlgebra,
                         build_catalog, cofree_mon, enumerate_homs,
                         enumerate_monoid_actions, make_algebra, product,
                         pullback)
from schreierkit import algebra
from schreierkit.algebra import Kind, _subalgebra, hom_maps, same_signature
from schreierkit.search import _Clock, _jt_universe

CAT = build_catalog()


# ---------------------------------------------------------------------------
# the oracle


def _oracle_signature(a: TabularAlgebra) -> tuple:
    op_names = tuple(name for name, _ in a.extra_ops)
    return (a.kind, op_names)


def _oracle_same_signature(a: TabularAlgebra, b: TabularAlgebra) -> bool:
    return _oracle_signature(a) == _oracle_signature(b)


def _fields(a: TabularAlgebra) -> tuple:
    return (a.kind, a.size, a.add, a.extra_ops, a.declared_laws)


# ---------------------------------------------------------------------------
# the sample


def _cofree_monoids():
    b2, n3 = CAT.monoids["b2"], CAT.monoids["n3"]
    for E, B in ((b2, b2), (n3, b2), (b2, CAT.monoids["z2"])):
        for h in enumerate_homs(E, B):
            for F in enumerate_monoid_actions(E, b2)[:3]:
                yield cofree_mon(h, F).monoid


def _sample() -> list[TabularAlgebra]:
    catalog = list(CAT.all_algebras().values())
    out = catalog + [TabularAlgebra(Kind.COMMUTATIVE_MONOID, a.size, a.add)
                     for a in CAT.semirings.values()]
    out += [product(a, b).algebra for a, b in itertools.product(catalog, repeat=2)
            if same_signature(a, b) and a.size * b.size <= 16]
    for p in CAT.points.values():
        out.append(pullback(p.f, p.f).algebra)
        out.append(_subalgebra(p.A, tuple(sorted(set(p.s.map))))[0])
    out += _cofree_monoids()
    out += _jt_universe(3, _Clock(60))
    return out


SAMPLE = _sample()


def _rebuilt(a: TabularAlgebra) -> TabularAlgebra:
    return TabularAlgebra(a.kind, a.size, a.add, a.extra_ops, a.declared_laws)


# ---------------------------------------------------------------------------
# the tests


def test_the_sample_covers_every_kind_and_repeats_values():
    assert {a.kind for a in SAMPLE} == set(Kind)
    assert len(SAMPLE) > 250
    assert len(set(map(_fields, SAMPLE))) < len(SAMPLE)  # equal values recur


def test_the_hash_is_the_hash_of_the_field_tuple():
    for a in SAMPLE:
        assert hash(a) == hash(_fields(a))
        assert hash(a) == hash(_fields(a))  # the kept value


def test_equal_algebras_hash_equal():
    by_value: dict[tuple, list[TabularAlgebra]] = {}
    for a in SAMPLE:
        by_value.setdefault(_fields(a), []).append(a)
    for group in by_value.values():
        copy = _rebuilt(group[0])
        assert copy is not group[0]
        for a in group:
            assert a == copy and hash(a) == hash(copy)
    # and unequal values compare unequal
    firsts = [group[0] for group in by_value.values()]
    for a, b in itertools.combinations(firsts[:120], 2):
        assert a != b


def test_same_signature_agrees_with_the_oracle():
    reps = {}
    for a in SAMPLE:
        reps.setdefault((a.kind, a.extra_ops and a.extra_ops[0][0], a.declared_laws), a)
    pool = list(reps.values()) + [_rebuilt(a) for a in reps.values()]
    for a, b in itertools.product(pool, repeat=2):
        assert same_signature(a, b) == _oracle_same_signature(a, b)
    for a in SAMPLE:
        assert a.signature == _oracle_signature(a)
        assert a.elements == range(a.size)


def test_the_hash_is_computed_on_first_use():
    a = make_algebra(Kind.MONOID, [[0, 1], [1, 1]])
    assert a._hash is None
    hash(a)
    assert a._hash == hash(_fields(a))


def test_hom_maps_refuses_before_and_after_the_cache_holds_the_pair():
    a, b = CAT.monoids["b2"], CAT.monoids["n3"]
    required = algebra.hom_candidate_count(a, b)
    message = None
    for _ in range(2):  # cold, then with _homs_core holding (a, b)
        with pytest.raises(GuardExceeded) as exc:
            hom_maps(a, b, guard=required - 1)
        message = message or str(exc.value)
        assert str(exc.value) == message
        assert hom_maps(a, b, guard=required) == hom_maps(a, b)
    misses = algebra._homs_core.cache_info().misses
    with pytest.raises(SignatureMismatch):
        hom_maps(a, CAT.semirings["bool_rig"])
    assert algebra._homs_core.cache_info().misses == misses
