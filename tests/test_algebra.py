"""Tables, laws, homs, subalgebras, products, pullbacks.

Law checkers and hom enumeration are cross-checked against independent
brute-force scans written inline, and against frozen counts computed the
same way.
"""

import itertools

import pytest

from schreierkit import (Hom, Kind, StructuralError, TabularAlgebra,
                         algebras_isomorphic, build_catalog, check_hom,
                         compose, enumerate_homs, find_isomorphism,
                         generated_subalgebra, identity_hom, is_hom,
                         make_algebra, product, pullback, require_valid,
                         subset, validate_algebra)
from schreierkit.algebra import (generating_set, hom_candidate_count,
                                 pullback_satisfies_universal)
from schreierkit.errors import GuardExceeded

CAT = build_catalog()
B2 = CAT.monoids["b2"]
Z2 = CAT.monoids["z2"]
N3 = CAT.monoids["n3"]
ZERO = CAT.monoids["zero"]
BOOL = CAT.semirings["bool_rig"]
Z2R = CAT.semirings["z2_ring"]


# ---------------------------------------------------------------------------
# construction and validation


def test_construction_rejects_malformed_tables():
    with pytest.raises(StructuralError):
        TabularAlgebra(Kind.MONOID, 2, [[0, 1]])  # missing row
    with pytest.raises(StructuralError):
        TabularAlgebra(Kind.MONOID, 2, [[0, 1], [1]])  # ragged row
    with pytest.raises(StructuralError):
        TabularAlgebra(Kind.MONOID, 2, [[0, 2], [1, 0]])  # entry out of range
    with pytest.raises(StructuralError):
        TabularAlgebra(Kind.MONOID, 0, [])  # no zero element
    with pytest.raises(StructuralError):
        TabularAlgebra(Kind.SEMIRING, 2, [[0, 1], [1, 0]])  # missing mul


def test_booleans_are_not_indices():
    with pytest.raises(StructuralError):
        TabularAlgebra(Kind.MONOID, 2, [[False, True], [True, True]])


def test_validate_against_brute_force():
    """Every law verdict agrees with a direct triple loop."""
    for a in CAT.all_algebras().values():
        rep = validate_algebra(a)
        assert rep.ok, rep.first_violation()
        n = a.size
        add = a.add
        assert all(add[0][x] == x and add[x][0] == x for x in range(n))
        assert all(add[add[x][y]][z] == add[x][add[y][z]]
                   for x in range(n) for y in range(n) for z in range(n))
        if a.kind is Kind.SEMIRING:
            mul = a.op_table("mul")
            assert all(mul[mul[x][y]][z] == mul[x][mul[y][z]]
                       for x in range(n) for y in range(n) for z in range(n))
            assert all(mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
                       for x in range(n) for y in range(n) for z in range(n))
            assert all(mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]]
                       for x in range(n) for y in range(n) for z in range(n))
            assert all(mul[0][x] == 0 and mul[x][0] == 0 for x in range(n))


def test_validate_reports_violations_with_witnesses():
    # 1+1 = 0 breaks the unit law only if it breaks x+0; break assoc instead:
    # x+y = 1 for x,y > 0 except making it non-associative
    bad = TabularAlgebra(Kind.MONOID, 3, [[0, 1, 2], [1, 2, 1], [2, 1, 1]])
    rep = validate_algebra(bad)
    assert not rep.ok
    v = rep.first_violation()
    assert v.law == "assoc"
    x, y, z = v.witness
    t = bad.add
    assert t[t[x][y]][z] != t[x][t[y][z]]


def test_non_unital_table_is_caught():
    bad = TabularAlgebra(Kind.MONOID, 2, [[0, 0], [1, 1]])
    rep = validate_algebra(bad)
    assert not rep.ok and rep.first_violation().law == "unit"
    with pytest.raises(StructuralError):
        require_valid(bad)


def test_jt_generic_laws_are_declared_not_assumed():
    star = [[0, 1], [1, 0]]
    a = make_algebra(Kind.JT_GENERIC, [[0, 1], [1, 0]], ops={"star": star},
                     laws={"star": ["comm"]})
    assert validate_algebra(a).ok
    b = make_algebra(Kind.JT_GENERIC, [[0, 1], [1, 0]],
                     ops={"star": [[0, 1], [0, 0]]}, laws={"star": ["comm"]})
    assert not validate_algebra(b).ok


# ---------------------------------------------------------------------------
# homomorphisms


def brute_homs(a, b):
    """Reference implementation: filter all |b|^|a| maps."""
    out = []
    for m in itertools.product(range(b.size), repeat=a.size):
        h = Hom(a, b, m)
        if is_hom(h):
            out.append(m)
    return out


@pytest.mark.parametrize("a,b", [
    (B2, B2), (B2, Z2), (Z2, B2), (Z2, Z2), (N3, B2), (B2, N3), (N3, N3),
    (ZERO, B2), (B2, ZERO), (BOOL, Z2R), (Z2R, BOOL), (Z2R, Z2R), (BOOL, BOOL),
])
def test_enumerate_homs_matches_brute_force(a, b):
    got = [h.map for h in enumerate_homs(a, b)]
    assert got == brute_homs(a, b)  # same maps, same lex order


def test_frozen_hom_counts():
    # hand-checked: h(1)+h(1) must equal h(0)=0
    assert len(enumerate_homs(Z2, B2)) == 1
    assert [h.map for h in enumerate_homs(B2, B2)] == [(0, 0), (0, 1)]
    assert len(enumerate_homs(ZERO, B2)) == 1
    assert len(enumerate_homs(N3, B2)) == 2  # zero and truncation 1,2 |-> 1


def test_check_hom_finds_first_violation():
    h = Hom(B2, B2, (0, 0))
    assert check_hom(h).ok
    bad = Hom(Z2, Z2, (1, 0))
    chk = check_hom(bad)
    assert not chk.ok and chk.witness == (0, None, "zero")
    notahom = Hom(Z2, B2, (0, 1))
    chk = check_hom(notahom)
    assert not chk.ok and chk.witness == (1, 1, "add")


def test_compose_and_identity():
    f = Hom(Z2, B2, (0, 0))
    assert compose(identity_hom(B2), f).map == f.map
    assert compose(f, identity_hom(Z2)).map == f.map
    with pytest.raises(StructuralError):
        compose(f, f)


def test_hom_guard_is_loud():
    big = CAT.monoids["n3xn3"]
    with pytest.raises(GuardExceeded) as exc:
        enumerate_homs(big, big, guard=2)
    assert exc.value.required > 2
    assert exc.value.flag == "--guard-homs"


# ---------------------------------------------------------------------------
# generation and subalgebras


def test_generating_set_generates():
    for a in CAT.all_algebras().values():
        gens = generating_set(a)
        assert generated_subalgebra(a, gens).is_all
        # candidate count bounds the enumeration actually performed
        assert hom_candidate_count(a, a) == a.size ** len(gens)


def test_generated_subalgebra_closure():
    sub = generated_subalgebra(N3, (1,))
    assert sub.members == (0, 1, 2)  # 1+1 = 2 generates everything
    assert sub.is_all()
    sub = generated_subalgebra(B2, ())
    assert sub.members == (0,)
    pr = product(B2, B2).algebra
    sub = generated_subalgebra(pr, (1,))  # (0,1) only reaches (0,0), (0,1)
    assert sub.members == (0, 1)


def test_subset_validation():
    from schreierkit.algebra import Subset
    with pytest.raises(StructuralError):
        Subset(B2, (1, 0))  # unsorted
    with pytest.raises(StructuralError):
        subset(B2, (0, 2))  # out of range
    s = subset(B2, (1, 0, 1))  # the helper sorts and dedupes
    assert s.is_all() and 1 in s and len(s) == 2


# ---------------------------------------------------------------------------
# products and pullbacks


def test_product_projections_and_injections():
    pr = product(B2, Z2)
    assert pr.algebra.size == 4
    assert is_hom(pr.proj1) and is_hom(pr.proj2)
    assert is_hom(pr.inj1) and is_hom(pr.inj2)
    assert compose(pr.proj1, pr.inj1).map == identity_hom(B2).map
    assert compose(pr.proj2, pr.inj2).map == identity_hom(Z2).map
    # componentwise addition
    a = pr.algebra
    for x1 in B2.elements:
        for y1 in Z2.elements:
            for x2 in B2.elements:
                for y2 in Z2.elements:
                    i = x1 * 2 + y1
                    j = x2 * 2 + y2
                    assert a.add[i][j] == B2.add[x1][x2] * 2 + Z2.add[y1][y2]


def test_product_of_semirings_is_a_semiring():
    pr = product(BOOL, Z2R)
    assert pr.algebra.kind is Kind.SEMIRING
    assert validate_algebra(pr.algebra).ok


def test_pullback_is_the_equalizing_subalgebra():
    pr = product(B2, B2)
    f = pr.proj1
    g = identity_hom(B2)
    pb = pullback(f, g)  # pairs (a, b) with proj1(a) = b
    assert pb.algebra.size == 4
    assert pb.pairs == tuple((a, pr.proj1.map[a]) for a in pr.algebra.elements)
    assert is_hom(pb.proj1) and is_hom(pb.proj2)
    assert compose(f, pb.proj1).map == compose(g, pb.proj2).map


def test_pullback_universal_property_spot_check():
    f = Hom(B2, B2, (0, 1))
    g = Hom(B2, B2, (0, 1))
    pb = pullback(f, g)
    for probe in (ZERO, B2, Z2, N3):
        assert pullback_satisfies_universal(pb, f, g, probe)


def test_signature_mismatch_rejected():
    from schreierkit import SignatureMismatch
    with pytest.raises(SignatureMismatch):
        Hom(B2, BOOL, (0, 0))
    with pytest.raises(SignatureMismatch):
        product(B2, BOOL)


# ---------------------------------------------------------------------------
# isomorphism search


def test_find_isomorphism():
    relabeled = TabularAlgebra(Kind.MONOID, 3, [[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    assert validate_algebra(relabeled).ok
    iso = find_isomorphism(N3, relabeled)
    assert iso is None  # N3 has no idempotent generator, this one does
    assert algebras_isomorphic(B2, B2)
    assert not algebras_isomorphic(B2, Z2)
    assert not algebras_isomorphic(B2, ZERO)


def test_product_commutes_up_to_isomorphism():
    assert algebras_isomorphic(product(B2, Z2).algebra, product(Z2, B2).algebra)
