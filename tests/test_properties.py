"""Randomized invariants: subalgebra closure is a closure operator, hom
enumeration agrees with brute force, and serialization is the identity, all
over generated Jonsson-Tarski tables rather than the fixed catalog; and
from_dict either loads an arbitrary JSON value or raises ToolkitError."""

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from schreierkit import (Kind, ToolkitError, check_hom, compose,
                         dumps_canonical, enumerate_homs, from_dict,
                         generated_subalgebra, generating_set,
                         hom_candidate_count, make_algebra, to_dict,
                         validate_algebra)


@st.composite
def jt_tables(draw, max_size=4, with_mul=False):
    """A unital binary table of size 1..max_size; 0 is forced to be the
    two-sided unit of + (and absorbing for the optional second op), so every
    draw is a genuine pointed algebra while the rest stays arbitrary."""
    n = draw(st.integers(1, max_size))
    cell = st.integers(0, n - 1)
    add = [list(range(n))]
    for i in range(1, n):
        add.append([i] + [draw(cell) for _ in range(1, n)])
    if not with_mul:
        return make_algebra(Kind.JT_GENERIC, add)
    mul = [[0] * n]
    for _ in range(1, n):
        mul.append([0] + [draw(cell) for _ in range(1, n)])
    return make_algebra(Kind.JT_GENERIC, add, {"mul": mul}, {"mul": ("absorb",)})


@st.composite
def algebra_with_seeds(draw):
    a = draw(jt_tables())
    seeds = draw(st.lists(st.integers(0, a.size - 1), max_size=4))
    return a, tuple(seeds)


@given(algebra_with_seeds())
def test_closure_is_extensive_and_contains_zero(pair):
    a, seeds = pair
    gen = generated_subalgebra(a, seeds)
    assert 0 in gen
    assert set(seeds) <= set(gen)


@given(algebra_with_seeds())
def test_closure_is_closed_and_idempotent(pair):
    a, seeds = pair
    gen = generated_subalgebra(a, seeds)
    members = set(gen)
    for _, t in a.all_tables():
        for x in members:
            for y in members:
                assert t[x][y] in members
    again = generated_subalgebra(a, gen)
    assert tuple(again) == tuple(gen)


@given(algebra_with_seeds(), st.data())
def test_closure_is_monotone(pair, data):
    a, seeds = pair
    extra = data.draw(st.lists(st.integers(0, a.size - 1), max_size=3))
    small = generated_subalgebra(a, seeds)
    large = generated_subalgebra(a, tuple(seeds) + tuple(extra))
    assert set(small) <= set(large)


@given(jt_tables(with_mul=True))
def test_declared_laws_hold_by_construction(a):
    assert validate_algebra(a).ok


def _brute_homs(a, b):
    tables = list(zip(a.all_tables(), b.all_tables()))
    out = []
    for m in itertools.product(b.elements, repeat=a.size):
        if m[0] != 0:
            continue
        if all(m[ta[x][y]] == tb[m[x]][m[y]]
               for (_, ta), (_, tb) in tables
               for x in a.elements for y in a.elements):
            out.append(m)
    return out


@given(jt_tables(max_size=3), jt_tables(max_size=3))
@settings(max_examples=60)
def test_enumerate_homs_matches_brute_force(a, b):
    homs = enumerate_homs(a, b)
    assert [h.map for h in homs] == _brute_homs(a, b)  # same maps, lex order
    for h in homs:
        assert check_hom(h).ok


@given(jt_tables(max_size=3))
@settings(max_examples=40)
def test_homs_compose(a):
    homs = enumerate_homs(a, a)
    maps = {h.map for h in homs}
    for h1 in homs:
        for h2 in homs:
            assert compose(h2, h1).map in maps


@given(jt_tables())
def test_generating_set_generates_everything(a):
    gens = generating_set(a)
    assert generated_subalgebra(a, gens).is_all()
    assert hom_candidate_count(a, a) == a.size ** len(gens)


@given(jt_tables(with_mul=True))
def test_serialization_round_trip(a):
    doc = json.loads(dumps_canonical(to_dict(a)))
    assert from_dict(doc) == a
    assert dumps_canonical(doc) == dumps_canonical(json.loads(dumps_canonical(doc)))


# the fields from_dict dispatches on, and values that pass its first checks
DOC_KEYS = ("A", "B", "f", "s", "source", "target", "map", "kind", "size",
            "add", "ops", "laws", "X", "act", "left", "right", "type", "schema")
DOC_WORDS = ("monoid", "cmon", "semiring", "jt", "witness", "report",
             "search_result", "add", "mul")
DOC_TAGS = ("algebra", "hom", "point", "action", "point_morphism")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers() | st.floats()
    | st.sampled_from(DOC_WORDS) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(DOC_KEYS) | st.text(max_size=3),
                                     inner, max_size=6)),
    max_leaves=24)
fields = st.dictionaries(st.sampled_from(DOC_KEYS), json_values, min_size=2, max_size=8)
# a "type" tag, right or wrong, on arbitrary fields or on a real object's fields
tagged = st.builds(lambda tag, doc: {**doc, "type": tag}, st.sampled_from(DOC_TAGS),
                   fields | jt_tables(with_mul=True).map(to_dict))
documents = json_values | fields | tagged


@given(documents)
@settings(max_examples=200)
def test_from_dict_loads_or_raises_toolkit_error(tmp_path_factory, doc):
    base = tmp_path_factory.getbasetemp()  # a path string names no file there
    try:
        from_dict(doc, base_dir=base / "empty")
    except ToolkitError:
        pass
