"""Split epimorphisms: the Schreier condition, strong points, stability
under pullback and fibre product, fibre morphisms, and the split short
five lemma."""

import pytest

from schreierkit import (Hom, NotSchreier, Point, PointMorphism,
                         SchreierStatus, StructuralError, build_catalog,
                         check_schreier,
                         enumerate_fibre_morphisms, enumerate_split_epis,
                         fibre_maps, fibre_product_point, identity_hom,
                         identity_point, is_strong_point, points_isomorphic,
                         product, product_point, pullback_point,
                         schreier_retraction, ssfl_facts)

CAT = build_catalog()
B2 = CAT.monoids["b2"]
Z2 = CAT.monoids["z2"]
N3 = CAT.monoids["n3"]


# ---------------------------------------------------------------------------
# construction


def test_point_rejects_broken_splits():
    pr = product(B2, B2)
    with pytest.raises(StructuralError):
        # constant section is not a section
        Point(pr.algebra, B2, pr.proj1, Hom(B2, pr.algebra, (0, 0)))
    with pytest.raises(StructuralError):
        # f not a hom
        Point(pr.algebra, B2, Hom(pr.algebra, B2, (0, 1, 1, 0)), pr.inj1)


def test_kernel_is_the_zero_fibre():
    p = CAT.points["prod_b2_z2"]
    assert tuple(p.kernel) == tuple(a for a in p.A.elements if p.f.map[a] == 0)


# ---------------------------------------------------------------------------
# the Schreier condition


def test_product_points_are_schreier():
    for name in ("prod_b2_b2", "prod_b2_z2", "prod_n3_b2", "prod_bool_bool"):
        w = check_schreier(CAT.points[name])
        assert w.is_schreier, (name, w.describe())


def test_identity_points_are_schreier_with_trivial_kernel():
    for b in (B2, Z2, N3):
        w = check_schreier(identity_point(b))
        assert w.is_schreier
        assert w.q == (0,) * b.size  # kernel is {0}


def test_diagonal_section_witness_is_pinned():
    """pi_1: B2xB2 -> B2 with the diagonal section b |-> (b, b)."""
    w = check_schreier(CAT.points["diag_b2"])
    assert w.status is SchreierStatus.UNIQUENESS_FAILS
    assert w.element == 3  # (1,1)
    assert w.alphas == (0, 1)  # (0,0) and (0,1) both decompose it
    assert w.describe() == "UniquenessFails(a=3, alphas=(0, 1))"
    # (1,0) at index 2 has no decomposition at all, but uniqueness wins
    a, add, s = 2, w.point.A.add, w.point.s
    assert all(add[alpha][s.map[1]] != a for alpha in w.point.kernel)


def test_existence_failure_reported_when_no_uniqueness_failure():
    # N3 -> B2 by truncation, section 0,2: kernel {0}, 1 never decomposes
    p = Point(N3, B2, Hom(N3, B2, (0, 1, 1)), Hom(B2, N3, (0, 2)))
    w = check_schreier(p)
    assert w.status is SchreierStatus.EXISTENCE_FAILS
    assert w.element == 1


def test_retraction_satisfies_defining_identity():
    for name, p in CAT.points.items():
        w = check_schreier(p)
        if not w.is_schreier:
            continue
        q = schreier_retraction(p)
        for a in p.A.elements:
            assert q[a] in p.kernel
            assert p.A.add[q[a]][p.section_image(a)] == a, name


def test_schreier_retraction_rejects_non_schreier():
    with pytest.raises(NotSchreier):
        schreier_retraction(CAT.points["diag_b2"])


# ---------------------------------------------------------------------------
# strong points


def test_schreier_implies_strong_on_catalog():
    for name, p in CAT.points.items():
        if check_schreier(p).is_schreier:
            chk = is_strong_point(p)
            assert chk.ok, name


def test_diagonal_point_is_not_strong_either():
    p = CAT.points["diag_b2"]
    chk = is_strong_point(p)
    # kernel {(0,0),(0,1)} and section image {(0,0),(1,1)} only generate
    # {0, 1, 3}: the element (1,0) is unreachable
    assert not chk.ok
    assert chk.generated.members == (0, 1, 3)


def test_enumerate_split_epis_exhaustive_small():
    pts = enumerate_split_epis(product(B2, B2).algebra, B2)
    # hand count: each projection has sections s(1) in its 1-fibre {j, 3}
    # (2 each), the total-OR map s(1) in {1, 2, 3} (3 more): 7 split epis
    assert len(pts) == 7
    for p in pts:
        assert p.f.map[p.s.map[0]] == 0


# ---------------------------------------------------------------------------
# stability


def test_pullback_of_schreier_is_schreier():
    p = CAT.points["prod_b2_z2"]  # base B2
    for h in (identity_hom(B2), Hom(B2, B2, (0, 0)), Hom(CAT.monoids["zero"], B2, (0,))):
        pulled = pullback_point(h, p)
        assert check_schreier(pulled.point).is_schreier
        assert pulled.point.B == h.source


def test_pullback_along_identity_is_isomorphic():
    p = CAT.points["sd_zeroendo_b2_z2"]
    pulled = pullback_point(identity_hom(p.B), p)
    assert points_isomorphic(pulled.point, p)


def test_fibre_product_preserves_schreier():
    p1 = CAT.points["prod_b2_b2"]
    p2 = CAT.points["prod_b2_z2"]
    fp = fibre_product_point(p1, p2)
    assert check_schreier(fp.point).is_schreier
    # kernel of the fibre product is the product of the kernels
    assert len(fp.point.kernel) == len(p1.kernel) * len(p2.kernel)


def test_fibre_product_needs_common_base():
    with pytest.raises(StructuralError):
        fibre_product_point(CAT.points["prod_b2_b2"], CAT.points["id_n3"])


# ---------------------------------------------------------------------------
# fibre morphisms and the split short five lemma


def test_fibre_morphism_count_frozen():
    p = CAT.points["prod_b2_z2"]
    ms = enumerate_fibre_morphisms(p, p)
    # maps (b, x) |-> (b, t(x)) for the single equivariant endo t of Z2
    # plus the collapse x |-> 0; frozen by the brute-force scan
    assert len(ms) == 2
    assert all(m.is_fibre for m in ms)


def test_a_morphism_over_a_base_automorphism_is_not_fibre():
    b2xb2 = CAT.monoids["b2xb2"]
    p = identity_point(b2xb2)
    swap = Hom(b2xb2, b2xb2, (0, 2, 1, 3))  # (x, y) |-> (y, x)
    assert not PointMorphism(p, p, swap, swap).is_fibre


def test_ssfl_on_schreier_catalog():
    for variety in ("mon", "srng"):
        pts = [p for _, p in CAT.schreier_points(variety)]
        for p1 in pts:
            for p2 in pts:
                if p1.B != p2.B:
                    continue
                for g in fibre_maps(p1, p2):
                    kernel_bijective, bijective = ssfl_facts(p1, p2, g)
                    assert bijective or not kernel_bijective


def test_ssfl_fails_off_the_schreier_class():
    """Kernel-bijective but not bijective, available once p1 is not Schreier."""
    p1 = Point(N3, B2, Hom(N3, B2, (0, 1, 1)), Hom(B2, N3, (0, 2)))
    p2 = identity_point(B2)
    assert (0, 1, 1) in fibre_maps(p1, p2)
    assert ssfl_facts(p1, p2, (0, 1, 1)) == (True, False)  # both kernels are {0}
    with pytest.raises(NotSchreier):
        schreier_retraction(p1)  # the precondition that callers of ssfl_facts check


def test_ssfl_facts_on_fibre_morphisms():
    p = CAT.points["prod_b2_b2"]
    q = CAT.points["prod_b2_z2"]
    ident = CAT.points["id_b2"]
    # the section of p, id_b2 -> p: the kernel {0} misses most of p's kernel
    assert p.s.map in fibre_maps(ident, p)
    assert ssfl_facts(ident, p, p.s.map) == (False, False)
    # the projection of q collapses its kernel: no premise, not bijective
    assert q.f.map in fibre_maps(q, ident)
    assert ssfl_facts(q, ident, q.f.map) == (False, False)
    assert ssfl_facts(q, q, tuple(q.A.elements)) == (True, True)
