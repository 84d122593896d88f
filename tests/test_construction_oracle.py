"""Differential tests: enumerate_split_epis, semidirect, semidirect_srng,
enumerate_semiring_actions and the semiring action axioms against the
routines they replaced.  Those are kept here verbatim as the oracle: split
epis filtered as Hom objects, one semidirect body per kind of action, the
semiring action enumeration with its inline copies of the multiplicative and
mixed axiom families, and the axiom check that concatenated each family's
full list of violations before taking the first."""

import pytest

from schreierkit import (ComputationError, Hom, InvalidAction, Kind,
                         MonoidAction, Point, SearchBounds, TabularAlgebra,
                         build_catalog, enumerate_homs,
                         enumerate_monoid_actions, enumerate_semiring_actions,
                         enumerate_split_epis, make_algebra, semidirect,
                         semidirect_point, semidirect_srng, validate_algebra)
from schreierkit import actions
from schreierkit.actions import (ActionReport, AxiomEntry, SemiringAction,
                                 _additive_endo_monoid, _wrap, additive_reduct,
                                 require_valid_action, validate_action)
from schreierkit.algebra import DEFAULT_HOM_GUARD, same_signature
from schreierkit.search import _Clock, _universe
from schreierkit.suites import (ADJUNCTION_CARRIER_MAX, ADJUNCTION_SOURCE_MAX,
                                _action_pool, _sized)

CAT = build_catalog()


# ---------------------------------------------------------------------------
# the oracle


def _oracle_enumerate_split_epis(A: TabularAlgebra, B: TabularAlgebra, *,
                                 guard: int = DEFAULT_HOM_GUARD) -> tuple[Point, ...]:
    """Every point (f, s) with f: A -> B, ordered by (f, s) map arrays."""
    out = []
    sections = enumerate_homs(B, A, guard=guard)
    identity = tuple(range(B.size))
    for f in enumerate_homs(A, B, guard=guard):
        for s in sections:
            if tuple(f.map[v] for v in s.map) == identity:
                out.append(Point(A, B, f, s))
    return tuple(out)


def _sd_index(x: int, b: int, bsize: int) -> int:
    return x * bsize + b


def _oracle_semidirect(a: MonoidAction) -> Point:
    require_valid_action(a)
    X, B, act = a.X, a.B, a.act
    n = X.size * B.size
    add = []
    for x1 in X.elements:
        for b1 in B.elements:
            row = [_sd_index(X.add[x1][act[b1][x2]], B.add[b1][b2], B.size)
                   for x2 in X.elements for b2 in B.elements]
            add.append(tuple(row))
    alg = TabularAlgebra(Kind.MONOID, n, tuple(add))
    rep = validate_algebra(alg)
    if not rep.ok:
        raise ComputationError(f"semidirect product violates {rep.first_violation()}")
    f = Hom(alg, B, tuple(b for _ in X.elements for b in B.elements))
    s = Hom(B, alg, tuple(_sd_index(0, b, B.size) for b in B.elements))
    return Point(alg, B, f, s)


def _oracle_semidirect_srng(a: SemiringAction) -> Point:
    require_valid_action(a)
    X, B = a.X, a.B
    left, right = a.left, a.right
    xmul, bmul = X.op_table("mul"), B.op_table("mul")
    n = X.size * B.size
    add, mul = [], []
    for x1 in X.elements:
        for b1 in B.elements:
            add.append(tuple(_sd_index(X.add[x1][x2], B.add[b1][b2], B.size)
                             for x2 in X.elements for b2 in B.elements))
            mul.append(tuple(
                _sd_index(X.add[X.add[xmul[x1][x2]][right[x1][b2]]][left[b1][x2]],
                          bmul[b1][b2], B.size)
                for x2 in X.elements for b2 in B.elements))
    alg = make_algebra(Kind.SEMIRING, add, {"mul": mul})
    rep = validate_algebra(alg)
    if not rep.ok:
        raise ComputationError(f"semidirect semiring violates {rep.first_violation()}")
    f = Hom(alg, B, tuple(b for _ in X.elements for b in B.elements))
    s = Hom(B, alg, tuple(_sd_index(0, b, B.size) for b in B.elements))
    return Point(alg, B, f, s)


def _oracle_enumerate_semiring_actions(B: TabularAlgebra, X: TabularAlgebra, *,
                                       guard: int = DEFAULT_HOM_GUARD
                                       ) -> tuple[SemiringAction, ...]:
    endp, maps = _additive_endo_monoid(X)
    badd = additive_reduct(B)
    bmul = B.op_table("mul")
    additive = enumerate_homs(badd, endp, guard=guard)
    compose_of = {}

    def comp(mi, mj):  # apply mj, then mi
        key = (mi, mj)
        if key not in compose_of:
            compose_of[key] = tuple(mi[v] for v in mj)
        return compose_of[key]

    lefts = []
    for h in additive:
        phi = [maps[h.map[b]] for b in B.elements]
        if all(phi[bmul[b1][b2]] == comp(phi[b1], phi[b2])
               for b1 in B.elements for b2 in B.elements):
            lefts.append(tuple(phi))
    rights = []
    for h in additive:
        psi = [maps[h.map[b]] for b in B.elements]
        if all(psi[bmul[b1][b2]] == comp(psi[b2], psi[b1])
               for b1 in B.elements for b2 in B.elements):
            rights.append(tuple(psi))

    xmul = X.op_table("mul")
    out = []
    for phi in lefts:
        for psi in rights:
            ok = all(phi[b][xmul[x1][x2]] == xmul[phi[b][x1]][x2]
                     and psi[b][xmul[x1][x2]] == xmul[x1][psi[b][x2]]
                     for b in B.elements for x1 in X.elements for x2 in X.elements)
            if ok:
                ok = all(xmul[x1][phi[b][x2]] == xmul[psi[b][x1]][x2]
                         for x1 in X.elements for b in B.elements for x2 in X.elements)
            if ok:
                ok = all(psi[b2][phi[b1][x]] == phi[b1][psi[b2][x]]
                         for b1 in B.elements for x in X.elements for b2 in B.elements)
            if ok:
                left = phi
                right = tuple(tuple(psi[b][x] for b in B.elements) for x in X.elements)
                out.append(SemiringAction(B, X, left, right))
    return tuple(out)


def _first(pred_iter):
    for w in pred_iter:
        return w
    return None


def _oracle_validate_semiring_action(a: SemiringAction) -> ActionReport:
    B, X = a.B, a.X
    left, right = a.left, a.right
    bmul, xmul = B.op_table("mul"), X.op_table("mul")
    badd, xadd = B.add, X.add
    bs, xs = B.elements, X.elements
    entries = [
        AxiomEntry("zero", *_wrap(_first(
            w for w in (
                [( "0.x", x) for x in xs if left[0][x] != 0]
                + [("x.0", x) for x in xs if right[x][0] != 0]
                + [("b.0", b) for b in bs if left[b][0] != 0]
                + [("0.b", b) for b in bs if right[0][b] != 0])))),
        AxiomEntry("add_in_x_left", *_wrap(_first(
            (b, x1, x2) for b in bs for x1 in xs for x2 in xs
            if left[b][xadd[x1][x2]] != xadd[left[b][x1]][left[b][x2]]))),
        AxiomEntry("add_in_x_right", *_wrap(_first(
            (x1, x2, b) for x1 in xs for x2 in xs for b in bs
            if right[xadd[x1][x2]][b] != xadd[right[x1][b]][right[x2][b]]))),
        AxiomEntry("add_in_b_left", *_wrap(_first(
            (b1, b2, x) for b1 in bs for b2 in bs for x in xs
            if left[badd[b1][b2]][x] != xadd[left[b1][x]][left[b2][x]]))),
        AxiomEntry("add_in_b_right", *_wrap(_first(
            (x, b1, b2) for x in xs for b1 in bs for b2 in bs
            if right[x][badd[b1][b2]] != xadd[right[x][b1]][right[x][b2]]))),
        # b.(x1 x2) = (b.x1) x2 and (x1 x2).b = x1 (x2.b)
        AxiomEntry("mul_in_x", *_wrap(_first(
            w for w in (
                [(b, x1, x2) for b in bs for x1 in xs for x2 in xs
                 if left[b][xmul[x1][x2]] != xmul[left[b][x1]][x2]]
                + [(x1, x2, b) for x1 in xs for x2 in xs for b in bs
                   if right[xmul[x1][x2]][b] != xmul[x1][right[x2][b]]])))),
        # (b1 b2).x = b1.(b2.x) and x.(b1 b2) = (x.b1).b2
        AxiomEntry("mul_in_b", *_wrap(_first(
            w for w in (
                [(b1, b2, x) for b1 in bs for b2 in bs for x in xs
                 if left[bmul[b1][b2]][x] != left[b1][left[b2][x]]]
                + [(x, b1, b2) for x in xs for b1 in bs for b2 in bs
                   if right[right[x][b1]][b2] != right[x][bmul[b1][b2]]])))),
        # x1 (b.x2) = (x1.b) x2 and (b1.x).b2 = b1.(x.b2)
        AxiomEntry("mixed", *_wrap(_first(
            w for w in (
                [(x1, b, x2) for x1 in xs for b in bs for x2 in xs
                 if xmul[x1][left[b][x2]] != xmul[right[x1][b]][x2]]
                + [(b1, x, b2) for b1 in bs for x in xs for b2 in bs
                   if right[left[b1][x]][b2] != left[b1][right[x][b2]]])))),
    ]
    return ActionReport(a, tuple(entries))


# ---------------------------------------------------------------------------
# split epis


def _catalog_pairs():
    algebras = [a for v in ("mon", "srng") for _, a in sorted(CAT.algebras(v).items())]
    return [(A, B) for A in algebras for B in algebras if same_signature(A, B)]


def _search_pairs(variety: str, max_size: int):
    """The (A, B) pairs whose split epis the search at these bounds sweeps."""
    algebras = _universe(SearchBounds(max_size=max_size, variety=variety), _Clock(60))
    return [(A, B) for A in algebras for B in algebras
            if A.size >= B.size and same_signature(A, B)]


@pytest.mark.parametrize("pairs, points", [
    (_catalog_pairs, 176),
    (lambda: _search_pairs("mon", 4), 35),
    (lambda: _search_pairs("srng", 4), 23),
    (lambda: _search_pairs("jt", 3), 283),
], ids=["catalog", "mon-4", "srng-4", "jt-3"])
def test_split_epis_match_the_oracle(pairs, points):
    found = 0
    for A, B in pairs():
        got = enumerate_split_epis(A, B)
        assert got == _oracle_enumerate_split_epis(A, B), (A, B)
        found += len(got)
    assert found == points


# ---------------------------------------------------------------------------
# semidirect products


def _sweep_pool(algebras, enumerate_actions):
    """Every action of the adjunction sweeps' pools, in pool order."""
    actions_on = _action_pool(_sized(algebras, ADJUNCTION_CARRIER_MAX),
                              enumerate_actions, DEFAULT_HOM_GUARD)
    return [a for _, E in _sized(algebras, ADJUNCTION_SOURCE_MAX) for a in actions_on(E)]


@pytest.mark.parametrize("actions, library, oracle, count", [
    (lambda: list(CAT.monoid_actions.values()), semidirect, _oracle_semidirect, 5),
    (lambda: list(CAT.semiring_actions.values()), semidirect_srng, _oracle_semidirect_srng, 5),
    (lambda: _sweep_pool(CAT.monoids, enumerate_monoid_actions),
     semidirect, _oracle_semidirect, 285),
    (lambda: _sweep_pool(CAT.semirings, enumerate_semiring_actions),
     semidirect_srng, _oracle_semidirect_srng, 81),
], ids=["catalog-mon", "catalog-srng", "sweep-mon", "sweep-srng"])
def test_semidirect_matches_the_oracle(actions, library, oracle, count):
    pool = actions()
    assert len(pool) == count
    for a in pool:
        want = oracle(a)
        assert library(a) == want and semidirect_point(a) == want, a


def test_semidirect_rejects_what_the_oracle_rejects():
    a = CAT.monoid_actions["zeroendo_b2_z2"]
    bad = MonoidAction(a.B, a.X, ((0, 0), (0, 1)))  # the unit acts by zero
    for build in (semidirect, _oracle_semidirect):
        with pytest.raises(InvalidAction):
            build(bad)


# ---------------------------------------------------------------------------
# semiring actions


def test_semiring_actions_match_the_oracle():
    found = 0
    for _, B in sorted(CAT.semirings.items()):
        for _, X in _sized(CAT.semirings, 4):
            got = enumerate_semiring_actions(B, X)
            assert got == _oracle_enumerate_semiring_actions(B, X), (B, X)
            found += len(got)
    assert found == 135


def _shifted(a: SemiringAction) -> SemiringAction:
    """a with every value moved up by one, so that the zero family fails too."""
    n = a.X.size
    return SemiringAction(a.B, a.X, *(tuple(tuple((v + 1) % n for v in row) for row in t)
                                      for t in (a.left, a.right)))


def test_semiring_action_reports_match_the_oracle(monkeypatch):
    # every candidate pair the adjunction sweep's action pool tries, and the
    # catalog actions with their shifted copies: whole reports, so each
    # family's first witness too
    tried = []

    def recording(a):
        tried.append(a)
        return validate_action(a)

    monkeypatch.setattr(actions, "validate_action", recording)
    for _, B in _sized(CAT.semirings, ADJUNCTION_SOURCE_MAX):
        for _, X in _sized(CAT.semirings, ADJUNCTION_CARRIER_MAX):
            enumerate_semiring_actions(B, X)
    monkeypatch.undo()
    valid = 0
    catalog = list(CAT.semiring_actions.values())
    for a in [*tried, *catalog, *map(_shifted, catalog)]:
        got = validate_action(a)
        assert got == _oracle_validate_semiring_action(a), a
        valid += got.ok
    assert (len(tried), valid) == (1435, 81 + 5)
