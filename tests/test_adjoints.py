"""Relative right adjoints: the cofree action L(B, M) for monoids with its
counit, mediating maps and their uniqueness; the simplified description over
a surjection and its dependence on the choice of section; the invariant
subalgebra R_h(X) for semirings with its hom-set bijection."""

import pytest

from schreierkit import (Hom, MonoidAction, StructuralError, all_sections,
                         build_catalog, cofree_mon, cofree_mon_surjective,
                         counit_mon, enumerate_homs, enumerate_monoid_actions,
                         equivariant_homs, identity_hom, invariants_srng,
                         mediate_mon, pointed_sections, restrict_action,
                         restrict_invariant_map, verify_adjunction_srng)
from schreierkit.errors import GuardExceeded

CAT = build_catalog()
B2 = CAT.monoids["b2"]
Z2 = CAT.monoids["z2"]
N3 = CAT.monoids["n3"]
ZERO = CAT.monoids["zero"]
Z2R = CAT.semirings["z2_ring"]
BOOL = CAT.semirings["bool_rig"]
ZERO_RIG = CAT.semirings["zero_rig"]


# ---------------------------------------------------------------------------
# the cofree action for monoids


def test_cofree_along_identity_is_the_given_action():
    F = CAT.monoid_actions["zeroendo_b2_z2"]
    c = cofree_mon(identity_hom(B2), F)
    # u(b) determined by u(0) via u(b) = u(0+b) = b.u(0)... membership forces
    # |L| = |M| and the counit is a bijection
    eps = counit_mon(c)
    assert len(c.elements) == F.X.size
    assert eps.is_bijective()


def test_cofree_along_initial_hom_is_all_functions():
    # h: 0 -> B imposes only the e = 0 condition, which every function meets
    h = Hom(ZERO, B2, (0,))
    F = MonoidAction(ZERO, Z2, ((0, 1),))
    c = cofree_mon(h, F)
    assert len(c.elements) == Z2.size ** B2.size
    assert c.elements[0] == (0, 0)


def test_cofree_membership_condition_is_enforced():
    F = CAT.monoid_actions["zeroendo_b2_z2"]
    c = cofree_mon(identity_hom(B2), F)
    badd = B2.add
    for u in c.elements:
        for e in B2.elements:
            for b in B2.elements:
                assert F.act[e][u[b]] == u[badd[e][b]]


def test_cofree_shift_action_formula():
    F = CAT.monoid_actions["annih_n3_b2"]
    c = cofree_mon(identity_hom(N3), F)
    for b0 in N3.elements:
        for i, u in enumerate(c.elements):
            shifted = tuple(u[N3.add[b][b0]] for b in N3.elements)
            assert c.elements[c.action.act[b0][i]] == shifted


def test_cofree_guard():
    h = Hom(ZERO, CAT.monoids["n3xn3"], (0,))
    F = MonoidAction(ZERO, CAT.monoids["b2xb2"], (tuple(range(4)),))
    with pytest.raises(GuardExceeded) as exc:
        cofree_mon(h, F, guard=1000)  # 4^9 candidates
    assert (exc.value.required, exc.value.flag) == (4 ** 9, "--guard-functions")
    # The propagation walk tries fewer functions, but the guard still bounds
    # |M| ** |B| = 2 ** 3: it runs at that bound and refuses one below it.
    h, F = identity_hom(N3), CAT.monoid_actions["annih_n3_b2"]
    assert cofree_mon(h, F, guard=8).elements == cofree_mon(h, F).elements
    with pytest.raises(GuardExceeded) as exc:
        cofree_mon(h, F, guard=7)
    assert (exc.value.required, exc.value.limit) == (8, 7)


# ---------------------------------------------------------------------------
# mediating maps


def test_mediate_triangle_and_uniqueness():
    """gamma(x)(b) = beta(b.x) is the unique equivariant hom with
    counit . gamma = beta, across every beta for a sample (h, F, G)."""
    h = Hom(Z2, B2, (0, 0))  # the only hom Z2 -> B2
    for F in enumerate_monoid_actions(Z2, Z2):
        c = cofree_mon(h, F)
        eps = counit_mon(c)
        for G in enumerate_monoid_actions(B2, Z2):
            restricted = restrict_action(h, G)
            for beta in equivariant_homs(restricted, F):
                gamma = mediate_mon(c, G, Hom(G.X, F.X, beta))  # also checks uniqueness
                assert all(eps.map[gamma.map[x]] == beta[x] for x in G.X.elements)


def test_mediate_rejects_non_equivariant_beta():
    h = identity_hom(B2)
    F = CAT.monoid_actions["zeroendo_b2_z2"]
    c = cofree_mon(h, F)
    triv = CAT.monoid_actions["triv_b2_z2"]
    # identity Z2 -> Z2 is a hom but not equivariant triv -> zeroendo
    with pytest.raises(StructuralError):
        mediate_mon(c, triv, identity_hom(Z2))


# ---------------------------------------------------------------------------
# the simplified description over a surjection


def test_pointed_sections_give_isomorphic_submonoid():
    """Over every surjective catalog hom and every pointed section, the
    comparison with L(B, M) is an isomorphism and the submonoid does not
    depend on the section."""
    pairs = [(B2, B2), (Z2, Z2), (N3, B2), (CAT.monoids["b2xz2"], B2)]
    carriers = [Z2, B2]
    for E, B in pairs:
        for h in enumerate_homs(E, B):
            if not h.is_surjective():
                continue
            for X in carriers:
                for F in enumerate_monoid_actions(E, X):
                    c = cofree_mon(h, F)  # shared by every section, as in the sweep
                    members_seen = set()
                    for sect in pointed_sections(h):
                        sc = cofree_mon_surjective(c, sect)
                        assert sc.is_isomorphism, (h.map, sect, sc.failure)
                        members_seen.add(sc.members)
                    assert len(members_seen) == 1  # section-independent


def test_non_pointed_section_breaks_the_comparison():
    """The simplified description needs sect(0) = 0: with E = B2 acting on
    Z2 by the zero endomorphism and h the collapse onto the zero monoid,
    the section picking 1 yields submonoid {0, 1} but L(0, M) = {0}."""
    h = Hom(B2, ZERO, (0, 0))
    act = ((0, 1), (0, 0))  # 0 acts as identity, 1 as the zero endo
    F = MonoidAction(B2, Z2, act)
    c = cofree_mon(h, F)
    good = cofree_mon_surjective(c, (0,))
    assert good.is_isomorphism and good.members == (0,)
    bad = cofree_mon_surjective(c, (1,))
    assert tuple(bad.members) == (0, 1)
    assert not bad.is_isomorphism
    assert bad.failure == "comparison map is not injective"
    # the bad section is a genuine set-section, just not basepoint-preserving
    assert (1,) in all_sections(h) and (1,) not in pointed_sections(h)


def test_surjective_cofree_rejects_non_sections():
    h = Hom(B2, B2, (0, 1))
    F = CAT.monoid_actions["zeroendo_b2_z2"]
    with pytest.raises(StructuralError):
        cofree_mon_surjective(cofree_mon(h, F), (0, 0))  # not a right inverse
    with pytest.raises(StructuralError, match="element of E"):
        cofree_mon_surjective(cofree_mon(h, F), (0, B2.size))  # one past E
    c = cofree_mon(Hom(B2, B2, (0, 0)), F)
    with pytest.raises(StructuralError):
        cofree_mon_surjective(c, (0, 0))  # h not surjective


# ---------------------------------------------------------------------------
# the invariant subalgebra for semirings


def test_invariants_along_identity_is_everything():
    F = CAT.semiring_actions["mul_z2r_z2r"]
    inv = invariants_srng(identity_hom(Z2R), F)
    assert inv.members == tuple(Z2R.elements)


def test_invariants_of_zero_action_is_everything():
    # h-equal scalars always agree when every scalar acts as zero
    h = Hom(Z2R, ZERO_RIG, (0, 0))
    F = CAT.semiring_actions["zero_z2r_z2r"]
    inv = invariants_srng(h, F)
    assert inv.members == tuple(Z2R.elements)


def test_invariants_second_projection_collapses():
    """B = Z2R x Z2R acting on Z2R through the first coordinate; along the
    second projection the invariants must equate the actions of (0,y) and
    (1,y), leaving only 0."""
    F = CAT.semiring_actions["proj_mul_z2r2_z2r"]
    prod2 = CAT.semirings["z2r_x_z2r"]
    proj2 = Hom(prod2, Z2R, (0, 1, 0, 1))
    inv = invariants_srng(proj2, F)
    assert inv.members == (0,)
    # along the first projection nothing is lost
    proj1 = Hom(prod2, Z2R, (0, 0, 1, 1))
    inv1 = invariants_srng(proj1, F)
    assert inv1.members == tuple(Z2R.elements)
    # and the induced action is multiplication by the base scalar
    mul = Z2R.op_table("mul")
    assert all(inv1.action.left[b][x] == mul[b][x]
               for b in Z2R.elements for x in Z2R.elements)


def test_invariants_requires_surjective():
    F = CAT.semiring_actions["mul_z2r_z2r"]
    with pytest.raises(StructuralError):
        invariants_srng(Hom(Z2R, Z2R, (0, 0)), F)  # not surjective


def test_restrict_invariant_map():
    F = CAT.semiring_actions["mul_z2r_z2r"]
    inv = invariants_srng(identity_hom(Z2R), F)
    w = identity_hom(Z2R)
    r = restrict_invariant_map(inv, w)
    assert r.map == tuple(range(len(inv.members)))


# ---------------------------------------------------------------------------
# the semiring adjunction


def test_adjunction_srng_on_sample_homs():
    prod2 = CAT.semirings["z2r_x_z2r"]
    F = CAT.semiring_actions["proj_mul_z2r2_z2r"]
    for hmap in ((0, 0, 1, 1), (0, 1, 0, 1)):
        h = Hom(prod2, Z2R, hmap)
        for G in (CAT.semiring_actions["mul_z2r_z2r"],
                  CAT.semiring_actions["zero_z2r_z2r"]):
            rep = verify_adjunction_srng(invariants_srng(h, F), G)
            assert rep.ok, rep.failure
            assert rep.lhs_count == rep.rhs_count


def test_adjunction_srng_hom_sets_singletons_on_collapse():
    """With R_h(X) = {0} every equivariant map into it is the zero map, so
    both hom-sets must be singletons."""
    prod2 = CAT.semirings["z2r_x_z2r"]
    proj2 = Hom(prod2, Z2R, (0, 1, 0, 1))
    F = CAT.semiring_actions["proj_mul_z2r2_z2r"]
    G = CAT.semiring_actions["mul_z2r_z2r"]
    rep = verify_adjunction_srng(invariants_srng(proj2, F), G)
    assert rep.ok
    assert rep.lhs_count == rep.rhs_count == 1


def test_adjunction_srng_shape_checks():
    F = CAT.semiring_actions["mul_z2r_z2r"]
    G = CAT.semiring_actions["mul_bool_bool"]
    with pytest.raises(StructuralError):
        verify_adjunction_srng(invariants_srng(identity_hom(Z2R), F), G)  # G acts by BOOL
