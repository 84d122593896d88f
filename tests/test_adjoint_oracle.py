"""Differential test: verify_adjunction_srng, which now checks only the
hom-set bijection, and verify_restriction_functor, which checks R_h on maps
once per (h, F), against the routine they replaced.  That routine is kept
here as the oracle: its body is the earlier library's, except that it
returns its own report shape (the library's AdjunctionReport lost the
naturality and functoriality flags) and can stop after the bijection part.

The oracle's naturality and functoriality checks never fail on the sweep
while R_h on maps is right: naturality on endos of G compares a
corestriction with itself, and naturality on endos of F and functoriality
reduce to members[pos[x]] == x.  Only a wrong R_h on maps can fail them,
and the tests below show that verify_restriction_functor catches every
such fault the oracle caught."""

import dataclasses

import pytest

from schreierkit import (Hom, SemiringAction, StructuralError, build_catalog,
                         compose, enumerate_homs, enumerate_semiring_actions,
                         equivariant_homs, invariants_srng, restrict_action,
                         restrict_invariant_map, verify_adjunction_srng,
                         verify_restriction_functor)
from schreierkit import adjoints
from schreierkit.adjoints import InvariantSub
from schreierkit.algebra import DEFAULT_HOM_GUARD
from schreierkit.suites import (ADJUNCTION_CARRIER_MAX, ADJUNCTION_SOURCE_MAX,
                                _action_pool, _sized)

CAT = build_catalog()
RESTRICT = restrict_invariant_map  # the library's, whatever a test patches in


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """The earlier library's AdjunctionReport."""
    h: Hom
    lhs_count: int
    rhs_count: int
    bijection_ok: bool
    naturality_ok: bool
    functoriality_ok: bool
    failure: str | None


# ---------------------------------------------------------------------------
# the oracle


def _equivariant(a1, a2, *, guard: int = DEFAULT_HOM_GUARD) -> tuple[Hom, ...]:
    """equivariant_homs as the oracle read it: Hom objects, not map arrays."""
    return tuple(Hom(a1.X, a2.X, m) for m in equivariant_homs(a1, a2, guard=guard))


def _oracle_verify_adjunction_srng(inv: InvariantSub, G: SemiringAction, *,
                                   guard: int = DEFAULT_HOM_GUARD,
                                   bijection_only: bool = False) -> OracleReport:
    h, F = inv.h, inv.x_action
    if G.B != h.target or F.B != h.source:
        raise StructuralError("verify_adjunction_srng: G acts by the target of h, F by its source")
    restricted = restrict_action(h, G)
    lhs = _equivariant(restricted, F, guard=guard)
    rhs = _equivariant(G, inv.action, guard=guard)
    pos = {v: i for i, v in enumerate(inv.members)}

    def corestrict(t: Hom) -> tuple[int, ...] | None:
        out = []
        for y in G.X.elements:
            i = pos.get(t.map[y])
            if i is None:
                return None
            out.append(i)
        return tuple(out)

    failure = None
    rhs_maps = {u.map for u in rhs}
    images = []
    for t in lhs:
        c = corestrict(t)
        if c is None:
            failure = f"a left-hand map escapes R_h(X): {t.map}"
            break
        if c not in rhs_maps:
            failure = f"corestriction {c} is not equivariant on the right"
            break
        images.append(c)
    bijection_ok = (failure is None and len(set(images)) == len(images)
                    and set(images) == rhs_maps)
    if failure is None and not bijection_ok:
        failure = "corestriction is not a bijection of hom-sets"

    naturality_ok = True
    if bijection_ok and not bijection_only:
        endos_f = _equivariant(F, F, guard=guard)
        restricted = {}  # w.map -> R_h(w), filled in the order the loop reaches w
        for w in endos_f:
            rw = restricted[w.map] = restrict_invariant_map(inv, w)
            for t in lhs:
                lhs_side = corestrict(Hom(G.X, F.X, tuple(w.map[t.map[y]] for y in G.X.elements)))
                rhs_side = tuple(rw.map[i] for i in corestrict(t))
                if lhs_side != rhs_side:
                    naturality_ok = False
                    failure = f"naturality square fails for w={w.map}, t={t.map}"
                    break
            if not naturality_ok:
                break
        if naturality_ok:
            for v in _equivariant(G, G, guard=guard):
                for t in lhs:
                    if corestrict(compose(t, v)) != tuple(
                            corestrict(t)[v.map[y]] for y in G.X.elements):
                        naturality_ok = False
                        failure = f"naturality square fails for v={v.map}, t={t.map}"
                        break
                if not naturality_ok:
                    break

    functoriality_ok = True
    if bijection_ok and naturality_ok and not bijection_only:  # every endo of F is in restricted
        for w1 in endos_f:
            for w2 in endos_f:
                both = restrict_invariant_map(inv, compose(w1, w2))
                stepwise = compose(restricted[w1.map], restricted[w2.map])
                if both.map != stepwise.map:
                    functoriality_ok = False
                    failure = f"restriction fails functoriality at ({w1.map}, {w2.map})"
                    break
            if not functoriality_ok:
                break

    return OracleReport(h, len(lhs), len(rhs), bijection_ok,
                        naturality_ok, functoriality_ok, failure)


# ---------------------------------------------------------------------------
# helpers


def _sweep():
    """(inv, G) for every triple of suite_adjunction_srng, in its order."""
    actions_on = _action_pool(_sized(CAT.semirings, ADJUNCTION_CARRIER_MAX),
                              enumerate_semiring_actions, DEFAULT_HOM_GUARD)
    for _, E in _sized(CAT.semirings, ADJUNCTION_SOURCE_MAX):
        for _, B in _sized(CAT.semirings, ADJUNCTION_SOURCE_MAX):
            for h in enumerate_homs(E, B):
                if not h.is_surjective():
                    continue
                for F in actions_on(E):
                    inv = invariants_srng(h, F)
                    for G in actions_on(B):
                        yield inv, G


SWEEP = list(_sweep())
INVS = list({id(inv): inv for inv, _ in SWEEP}.values())


def _outcome(verify, *args, **kwargs):
    try:
        return verify(*args, **kwargs)
    except Exception as exc:  # the same exception, at the same point, counts as agreement
        return type(exc), str(exc)


def _agree(inv, G):
    """The library's report against the oracle's bijection part; returns the
    full oracle's outcome."""
    got = _outcome(verify_adjunction_srng, inv, G)
    want = _outcome(_oracle_verify_adjunction_srng, inv, G, bijection_only=True)
    if isinstance(want, tuple):
        assert got == want, (inv.h.map, inv.members)
    else:
        assert (got.h, got.lhs_count, got.rhs_count, got.bijection_ok, got.failure) == (
            want.h, want.lhs_count, want.rhs_count, want.bijection_ok, want.failure), (
            inv.h.map, inv.members)
        assert got.ok == (want.lhs_count == want.rhs_count and want.bijection_ok)
    return _outcome(_oracle_verify_adjunction_srng, inv, G)


def _zero_action(inv):
    B, X = inv.action.B, inv.algebra
    return SemiringAction(B, X, tuple((0,) * X.size for _ in B.elements),
                          tuple((0,) * B.size for _ in X.elements))


def _tamperings(inv):
    n = len(inv.members)
    if n > 1:  # a left-hand map can escape, and R_h(w) stops fitting the algebra
        yield dataclasses.replace(inv, members=inv.members[:-1])
        yield dataclasses.replace(inv, algebra=CAT.semirings["zero_rig"])
    if n > 2:  # corestrictions land on the wrong indices
        yield dataclasses.replace(inv, members=inv.members[:1] + inv.members[:0:-1])
    # every hom into R_h(X) becomes equivariant
    yield dataclasses.replace(inv, action=_zero_action(inv))


BRANCHES = ("escapes R_h(X)", "is not equivariant on the right",
            "is not a bijection of hom-sets")


def _branch(outcome) -> str:
    if isinstance(outcome, tuple):
        return outcome[0].__name__
    if outcome.failure is None:
        return "ok"
    return next((b for b in BRANCHES if b in outcome.failure), "after the bijection")


# ---------------------------------------------------------------------------
# the comparisons


def test_sweep_agrees_with_the_oracle():
    assert len(SWEEP) == 3479
    assert len(INVS) == 298
    for inv, G in SWEEP:
        full = _agree(inv, G)
        # the deleted checks held on every triple
        assert full.bijection_ok and full.naturality_ok and full.functoriality_ok
    assert all(verify_restriction_functor(inv) is None for inv in INVS)


def test_tampered_invariants_agree_with_the_oracle():
    branches = set()
    for inv, G in SWEEP[::5]:
        for bad in _tamperings(inv):
            full = _agree(bad, G)
            branch = _branch(full)
            branches.add(branch)
            if branch in ("StructuralError", "after the bijection"):
                # the oracle got past the bijection and then failed on R_h of
                # maps; the check that replaces its loops fails too
                assert _outcome(verify_restriction_functor, bad) is not None
    # the oracle's StructuralError is R_h(w) not fitting a tampered algebra
    assert branches == {"ok", "StructuralError", *BRANCHES}


def _identity_restriction(inv, w):
    return Hom(inv.algebra, inv.algebra, tuple(range(inv.algebra.size)))


def _off_by_one_restriction(inv, w):
    n = inv.algebra.size
    return Hom(inv.algebra, inv.algebra, tuple((i + 1) % n for i in RESTRICT(inv, w).map))


@pytest.mark.parametrize("fault, branch", [
    (_identity_restriction, "counit square fails"),
    (_off_by_one_restriction, "is not an equivariant endomap"),
], ids=["identity", "off-by-one"])
def test_wrong_restriction_is_flagged_per_h_f(monkeypatch, fault, branch):
    # A wrong R_h on maps was the one fault the oracle's naturality and
    # functoriality loops could see.  verify_restriction_functor flags it on
    # exactly the (h, F) where it differs from the right one, and on every
    # (h, F) where the oracle flagged it.
    changed = {id(inv) for inv in INVS
               if any(fault(inv, w).map != RESTRICT(inv, w).map
                      for w in _equivariant(inv.x_action, inv.x_action))}
    assert changed
    monkeypatch.setattr(adjoints, "restrict_invariant_map", fault)
    flagged = set()
    for inv in INVS:
        failure = verify_restriction_functor(inv)
        if failure is not None:
            assert branch in failure
            flagged.add(id(inv))
    assert flagged == changed
    monkeypatch.setitem(globals(), "restrict_invariant_map", fault)
    for inv, G in SWEEP[::7]:
        full = _oracle_verify_adjunction_srng(inv, G)
        if not (full.naturality_ok and full.functoriality_ok):
            assert id(inv) in flagged, (inv.h.map, inv.members)
