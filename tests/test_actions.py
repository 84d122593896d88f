"""Actions, semidirect products, and the action/extension equivalence.

The equivalence is checked in both directions: extracting the action from
a semidirect point returns the original tables literally, and the
semidirect point of an extracted action is isomorphic to the point it
came from.
"""

import itertools

import pytest

from schreierkit import (Hom, InvalidAction, Kind, MonoidAction,
                         SemiringAction, build_catalog, check_schreier,
                         cofree_mon, enumerate_fibre_morphisms, enumerate_homs,
                         enumerate_monoid_actions, enumerate_semiring_actions,
                         equivariant_homs, identity_hom, make_algebra,
                         point_to_action, require_valid_action,
                         restrict_action, roundtrip_point_iso, semidirect,
                         semidirect_point, semidirect_srng, validate_action)
from schreierkit.actions import additive_reduct, endomorphism_monoid
from schreierkit.algebra import same_signature

CAT = build_catalog()
B2 = CAT.monoids["b2"]
Z2 = CAT.monoids["z2"]
N3 = CAT.monoids["n3"]
Z2R = CAT.semirings["z2_ring"]
BOOL = CAT.semirings["bool_rig"]


# ---------------------------------------------------------------------------
# validation


def test_catalog_actions_are_valid():
    for name, a in {**CAT.monoid_actions, **CAT.semiring_actions}.items():
        rep = validate_action(a)
        assert rep.ok, (name, rep.first_violation())


def test_invalid_monoid_action_is_reported():
    # act[0] must be the identity on X
    bad = MonoidAction(B2, Z2, ((0, 0), (0, 1)))
    rep = validate_action(bad)
    assert not rep.ok
    with pytest.raises(InvalidAction):
        require_valid_action(bad)


def test_invalid_semiring_action_is_reported():
    # scalar 1 acting as 0 on the left breaks left-distribution over mul:
    # take the multiplicative action and corrupt one row
    good = CAT.semiring_actions["mul_z2r_z2r"]
    bad = SemiringAction(good.B, good.X, (good.left[0], (0, 0)), good.right)
    assert not validate_action(bad).ok


# ---------------------------------------------------------------------------
# endomorphism monoids


def test_endomorphism_monoid_composition_convention():
    end, maps = endomorphism_monoid(Z2)
    assert maps[0] == (0, 1)  # identity at index 0
    # comp[i][j] applies j first: (i after j)(x) = maps[i][maps[j][x]]
    for i in range(end.size):
        for j in range(end.size):
            composite = tuple(maps[i][maps[j][x]] for x in Z2.elements)
            assert maps[end.add[i][j]] == composite


def test_monoid_action_is_a_hom_into_endos():
    a = CAT.monoid_actions["annih_n3_b2"]
    end, maps = endomorphism_monoid(a.X)
    index = {m: i for i, m in enumerate(maps)}
    phi = Hom(a.B, end, tuple(index[tuple(a.act[b])] for b in a.B.elements))
    from schreierkit import is_hom
    assert is_hom(phi)


# ---------------------------------------------------------------------------
# enumeration vs brute force


def brute_monoid_actions(B, X):
    """All maps B -> maps(X, X) satisfying the action equations directly."""
    endos = list(itertools.product(X.elements, repeat=X.size))
    out = []
    for choice in itertools.product(range(len(endos)), repeat=B.size):
        act = tuple(endos[i] for i in choice)
        if validate_action(MonoidAction(B, X, act)).ok:
            out.append(act)
    return set(out)


@pytest.mark.parametrize("B,X", [(B2, Z2), (B2, B2), (Z2, Z2), (N3, B2)])
def test_enumerate_monoid_actions_matches_brute_force(B, X):
    got = {a.act for a in enumerate_monoid_actions(B, X)}
    assert got == brute_monoid_actions(B, X)


def test_enumerate_semiring_actions_matches_brute_force():
    maps = list(itertools.product(Z2R.elements, repeat=Z2R.size))
    brute = set()
    for lrows in itertools.product(range(len(maps)), repeat=Z2R.size):
        left = tuple(maps[i] for i in lrows)
        for rcols in itertools.product(range(len(maps)), repeat=Z2R.size):
            right_t = tuple(maps[i] for i in rcols)
            right = tuple(tuple(right_t[b][x] for b in Z2R.elements)
                          for x in Z2R.elements)
            if validate_action(SemiringAction(Z2R, Z2R, left, right)).ok:
                brute.add((left, right))
    got = {(a.left, a.right) for a in enumerate_semiring_actions(Z2R, Z2R)}
    assert got == brute
    # the multiplicative and the zero action are both in there
    mul = CAT.semiring_actions["mul_z2r_z2r"]
    assert (mul.left, mul.right) in got
    zero = CAT.semiring_actions["zero_z2r_z2r"]
    assert (zero.left, zero.right) in got


# ---------------------------------------------------------------------------
# semidirect products


def test_semidirect_monoid_addition():
    a = CAT.monoid_actions["zeroendo_b2_z2"]
    p = semidirect(a)
    bs = a.B.size
    for x1 in a.X.elements:
        for b1 in a.B.elements:
            for x2 in a.X.elements:
                for b2 in a.B.elements:
                    i, j = x1 * bs + b1, x2 * bs + b2
                    want = (a.X.add[x1][a.act[b1][x2]] * bs
                            + a.B.add[b1][b2])
                    assert p.A.add[i][j] == want


def test_semidirect_semiring_multiplication():
    a = CAT.semiring_actions["mul_bool_bool"]
    p = semidirect_srng(a)
    mul = p.A.op_table("mul")
    bs = a.B.size
    xadd, xmul = a.X.add, a.X.op_table("mul")
    for x1 in a.X.elements:
        for b1 in a.B.elements:
            for x2 in a.X.elements:
                for b2 in a.B.elements:
                    i, j = x1 * bs + b1, x2 * bs + b2
                    # (x1, b1)(x2, b2) = (x1 x2 + x1.b2 + b1.x2, b1 b2)
                    xpart = xadd[xadd[xmul[x1][x2]][a.right[x1][b2]]][a.left[b1][x2]]
                    want = xpart * bs + a.B.op_table("mul")[b1][b2]
                    assert mul[i][j] == want


def test_semidirect_points_are_schreier():
    for name, a in {**CAT.monoid_actions, **CAT.semiring_actions}.items():
        p = semidirect_point(a)
        assert check_schreier(p).is_schreier, name


def test_trivial_action_gives_product_point():
    a = CAT.monoid_actions["triv_b2_z2"]
    p = semidirect_point(a)
    from schreierkit import points_isomorphic, product_point
    assert points_isomorphic(p, product_point(B2, Z2))


# ---------------------------------------------------------------------------
# the equivalence, both ways


def test_action_roundtrip_is_literal():
    for name, a in CAT.monoid_actions.items():
        back = point_to_action(semidirect_point(a))
        assert back == a, name
    for name, a in CAT.semiring_actions.items():
        back = point_to_action(semidirect_point(a))
        assert back == a, name


def test_point_roundtrip_is_isomorphism():
    for name, p in CAT.points.items():
        if not check_schreier(p).is_schreier:
            continue
        iso = roundtrip_point_iso(p)
        assert iso.g.is_bijective(), name
        assert iso.target is p


def test_point_to_action_formulas():
    p = CAT.points["sd_zeroendo_b2_z2"]
    a = point_to_action(p)
    from schreierkit import schreier_retraction
    from schreierkit.points import kernel_algebra
    q = schreier_retraction(p)
    _, embed = kernel_algebra(p)
    pos = {v: i for i, v in enumerate(embed)}
    for b in p.B.elements:
        for i, k in enumerate(embed):
            # act(b, x) = q(s(b) + k(x))
            assert a.act[b][i] == pos[q[p.A.add[p.s.map[b]][k]]]


def test_point_to_action_semiring_left_right():
    p = CAT.points["sd_mul_z2r"]
    a = point_to_action(p)
    assert isinstance(a, SemiringAction)
    mul = p.A.op_table("mul")
    from schreierkit import schreier_retraction
    from schreierkit.points import kernel_algebra
    q = schreier_retraction(p)
    _, embed = kernel_algebra(p)
    pos = {v: i for i, v in enumerate(embed)}
    for b in p.B.elements:
        for i, k in enumerate(embed):
            assert a.left[b][i] == pos[q[mul[p.s.map[b]][k]]]
            assert a.right[i][b] == pos[q[mul[k][p.s.map[b]]]]


def test_product_point_yields_trivial_or_zero_action():
    # monoids: the product point carries the trivial action
    mon = point_to_action(CAT.points["prod_b2_z2"])
    assert all(mon.act[b] == tuple(mon.X.elements) for b in mon.B.elements)
    # semirings: it carries the zero action (scalars multiply to 0)
    srng = point_to_action(CAT.points["prod_bool_bool"])
    assert all(v == 0 for row in srng.left for v in row)
    assert all(v == 0 for row in srng.right for v in row)


# ---------------------------------------------------------------------------
# equivariant maps and restriction


def test_equivariant_homs_match_fibre_morphisms():
    """Hom(a1, a2) in actions = fibre morphisms of the semidirect points."""
    actions = list(CAT.monoid_actions.values())
    for a1 in actions:
        for a2 in actions:
            if a1.B != a2.B or a1.X.kind != a2.X.kind:
                continue
            eq = equivariant_homs(a1, a2)
            fm = enumerate_fibre_morphisms(semidirect_point(a1),
                                           semidirect_point(a2))
            assert len(eq) == len(fm)


def _equivariant_oracle(a1, a2):
    """Brute force: the map of every hom X1 -> X2, kept when it commutes
    with each action entry."""
    out = []
    for h in enumerate_homs(a1.X, a2.X):
        if isinstance(a1, MonoidAction):
            ok = all(h.map[a1.act[b][x]] == a2.act[b][h.map[x]]
                     for b in a1.B.elements for x in a1.X.elements)
        else:
            ok = (all(h.map[a1.left[b][x]] == a2.left[b][h.map[x]]
                      for b in a1.B.elements for x in a1.X.elements)
                  and all(h.map[a1.right[x][b]] == a2.right[h.map[x]][b]
                          for x in a1.X.elements for b in a1.B.elements))
        if ok:
            out.append(h.map)
    return tuple(out)


def _assert_matches_oracle(pairs):
    kept = dropped = 0
    for a1, a2 in pairs:
        got, want = equivariant_homs(a1, a2), _equivariant_oracle(a1, a2)
        assert got == want, (a1, a2)
        kept += len(want)
        dropped += len(enumerate_homs(a1.X, a2.X)) - len(want)
    assert kept and dropped  # the filter both keeps and rejects maps


def test_equivariant_homs_match_brute_force_on_the_catalog():
    for actions in (CAT.monoid_actions.values(), CAT.semiring_actions.values()):
        _assert_matches_oracle([(a1, a2) for a1 in actions for a2 in actions
                                if a1.B == a2.B and same_signature(a1.X, a2.X)])


def test_equivariant_homs_match_brute_force_on_sweep_actions():
    """Restricted and cofree actions, as the adjunction sweeps build them."""
    pairs = []
    for E, B in ((B2, B2), (N3, B2), (Z2, Z2), (CAT.monoids["b2xz2"], B2)):
        for h in enumerate_homs(E, B):
            for X in (Z2, B2):
                for F in enumerate_monoid_actions(E, X):
                    cofree = cofree_mon(h, F).action
                    for G in enumerate_monoid_actions(B, X):
                        pairs += [(restrict_action(h, G), F), (G, cofree)]
    _assert_matches_oracle(pairs)
    # Zero multiplication on X lets the left and right actions vary apart,
    # so these pairs also need the right-hand check.
    nulls = [make_algebra(Kind.SEMIRING, M.add, {"mul": [[0] * M.size] * M.size})
             for M in (Z2, B2, N3)]
    pairs = []
    for E, B in ((BOOL, BOOL), (CAT.semirings["bool_x_bool"], BOOL), (Z2R, Z2R)):
        for X in (BOOL, Z2R, *nulls):
            on_e = enumerate_semiring_actions(E, X)
            on_b = enumerate_semiring_actions(B, X)
            pairs += [(G1, G2) for G1 in on_b for G2 in on_b]
            pairs += [(restrict_action(h, G), F) for h in enumerate_homs(E, B)
                      for G in on_b for F in on_e]
    _assert_matches_oracle(pairs)


def test_restrict_action_along_hom():
    a = CAT.monoid_actions["annih_n3_b2"]
    h = Hom(B2, N3, (0, 2))
    r = restrict_action(h, a)
    assert r.B == B2
    assert all(r.act[b] == a.act[h.map[b]] for b in B2.elements)
    assert validate_action(r).ok


def test_additive_reduct_forgets_multiplication():
    r = additive_reduct(Z2R)
    assert r.size == Z2R.size and r.add == Z2R.add
    assert not r.extra_ops
