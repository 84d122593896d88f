"""Differential test: verify_adjunction_srng, which now takes the InvariantSub
it checks and compares maps as tuples, against the routine it replaced, kept
here verbatim as the oracle except that it takes inv instead of building it
(and reads inv.members, which is what inv.embed held)."""

import dataclasses
import sys

import pytest

from schreierkit import (AdjunctionReport, Hom, SemiringAction,
                         StructuralError, build_catalog, compose,
                         enumerate_homs, enumerate_semiring_actions,
                         equivariant_homs, invariants_srng, restrict_action,
                         restrict_invariant_map, verify_adjunction_srng)
from schreierkit import adjoints
from schreierkit.adjoints import InvariantSub
from schreierkit.algebra import DEFAULT_HOM_GUARD
from schreierkit.suites import (ADJUNCTION_CARRIER_MAX, ADJUNCTION_SOURCE_MAX,
                                _action_pool, _sized)

CAT = build_catalog()
RESTRICT = restrict_invariant_map  # the library's, whatever a test patches in


# ---------------------------------------------------------------------------
# the oracle


def _oracle_verify_adjunction_srng(inv: InvariantSub, G: SemiringAction, *,
                                   guard: int = DEFAULT_HOM_GUARD) -> AdjunctionReport:
    h, F = inv.h, inv.x_action
    if G.B != h.target or F.B != h.source:
        raise StructuralError("verify_adjunction_srng: G acts by the target of h, F by its source")
    restricted = restrict_action(h, G)
    lhs = equivariant_homs(restricted, F, guard=guard)
    rhs = equivariant_homs(G, inv.action, guard=guard)
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
    if bijection_ok:
        endos_f = equivariant_homs(F, F, guard=guard)
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
            for v in equivariant_homs(G, G, guard=guard):
                for t in lhs:
                    if corestrict(compose(t, v)) != tuple(
                            corestrict(t)[v.map[y]] for y in G.X.elements):
                        naturality_ok = False
                        failure = f"naturality square fails for v={v.map}, t={t.map}"
                        break
                if not naturality_ok:
                    break

    functoriality_ok = True
    if bijection_ok and naturality_ok:  # so every endo of F is in restricted
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

    return AdjunctionReport(h, len(lhs), len(rhs), bijection_ok,
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


def _outcome(verify, inv, G):
    try:
        return verify(inv, G)
    except Exception as exc:  # the same exception, at the same point, counts as agreement
        return type(exc), str(exc)


def _agree(inv, G) -> AdjunctionReport | tuple:
    got = _outcome(verify_adjunction_srng, inv, G)
    assert got == _outcome(_oracle_verify_adjunction_srng, inv, G), (inv.h.map, inv.members)
    return got


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
            "is not a bijection of hom-sets", "naturality square fails for w=",
            "naturality square fails for v=", "fails functoriality")


def _branch(outcome) -> str:
    if isinstance(outcome, tuple):
        return outcome[0].__name__
    if outcome.failure is None:
        return "ok"
    return next(b for b in BRANCHES if b in outcome.failure)


# ---------------------------------------------------------------------------
# the comparisons


def test_sweep_agrees_with_the_oracle():
    assert len(SWEEP) == 3479
    assert len({id(inv) for inv, _ in SWEEP}) == 298
    for inv, G in SWEEP:
        assert _agree(inv, G).ok


def test_tampered_invariants_agree_with_the_oracle():
    branches = set()
    for inv, G in SWEEP[::5]:
        for bad in _tamperings(inv):
            branches.add(_branch(_agree(bad, G)))
    assert branches == {"ok", "StructuralError", *BRANCHES[:3]}


def _wrong_restriction(correct_calls: int):
    """An R_h on maps that is right for the first correct_calls calls on each
    map and the identity after that."""
    seen = {}

    def restrict(inv, w):
        seen[w.map] = seen.get(w.map, 0) + 1
        if seen[w.map] <= correct_calls:
            return RESTRICT(inv, w)
        return Hom(inv.algebra, inv.algebra, tuple(range(inv.algebra.size)))
    return restrict


@pytest.mark.parametrize("correct_calls, branch, flag", [
    (0, "naturality square fails for w=", "naturality_ok"),
    (1, "fails functoriality", "functoriality_ok"),
])
def test_wrong_restriction_agrees_with_the_oracle(monkeypatch, correct_calls, branch, flag):
    # Naturality on endos of G and functoriality compare corestrictions with
    # themselves, so only a wrong R_h on maps can make them fail.
    failures = 0
    for inv, G in SWEEP[::7]:
        outcomes = []
        for verify, module in ((verify_adjunction_srng, adjoints),
                               (_oracle_verify_adjunction_srng, sys.modules[__name__])):
            monkeypatch.setattr(module, "restrict_invariant_map",
                                _wrong_restriction(correct_calls))
            outcomes.append(_outcome(verify, inv, G))
            monkeypatch.undo()
        got, want = outcomes
        assert got == want, (inv.h.map, inv.members)
        if got.failure is not None:
            failures += 1
            assert _branch(got) == branch
            assert [got.bijection_ok, got.naturality_ok, got.functoriality_ok].count(False) == 1
            assert getattr(got, flag) is False
    assert failures > 0
