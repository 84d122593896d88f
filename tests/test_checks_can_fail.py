"""Every adjunction, action/point roundtrip, coherence-along, decomposition
and split-short-five-lemma verdict line can fail.

A check that no fault can turn red certifies nothing.  Each row of the
table below puts one wrong construction in place of the right one, at the
module-level name the suite calls, and asserts that the lines it names go
red, each naming the counter or the failure that caught it, while every
other line stays green.  The checks themselves are never faulted.

The adjunction rows run on a slice of the catalog (monoids of size <= 3,
four semirings), small enough that the whole table takes about a second;
suite_roundtrip runs on the whole catalog.  The coherence rows run
suite_coherence on a second slice: two points and three algebras of each
variety.  The ssfl rows run suite_ssfl on the whole catalog, tampered so
that its Schreier points admit one of its points that is not.
"""

import copy
import dataclasses
import json
import re

import pytest

from schreierkit import (Hom, Kind, MonoidAction, Point, SemiringAction,
                         StructuralError, build_catalog, check_coherence_along,
                         check_schreier, cofree_mon,
                         cofree_mon_surjective, counit_mon,
                         decompose_kernel_word, equivariant_homs,
                         invariants_srng, point_to_action, product,
                         restrict_action, restrict_invariant_map,
                         semidirect_point, suite_adjunction_mon,
                         suite_adjunction_srng, suite_coherence,
                         suite_roundtrip, suite_ssfl)
from schreierkit import adjoints, coherence, suites
from schreierkit.adjoints import _mediating_map
from schreierkit.catalog import Catalog
from schreierkit.points import PulledBackPoint

CAT = build_catalog()
SLICE = Catalog(
    monoids={n: CAT.monoids[n] for n in ("zero", "b2", "z2", "n3")},
    semirings={n: CAT.semirings[n] for n in ("zero_rig", "bool_rig", "z2_ring", "bool_x_z2r")},
    points={}, monoid_actions={}, semiring_actions={})
LINES = ("cofree-adjunction[mon]", "surjective-cofree[mon]", "invariants-adjunction[srng]",
         *(f"{line}[{variety}]" for variety in ("mon", "srng")
           for line in ("action-roundtrip", "point-roundtrip", "homset-cardinalities")))


COHERENCE_SLICE = Catalog(
    monoids={n: CAT.monoids[n] for n in ("zero", "b2", "z2")},
    semirings={n: CAT.semirings[n] for n in ("zero_rig", "bool_rig", "z2_ring")},
    points={n: CAT.points[n] for n in ("id_b2", "prod_b2_z2", "id_z2ring", "sd_mul_z2r")},
    monoid_actions={}, semiring_actions={})
COHERENCE_LINES = (*(f"{line}[{variety}]" for variety in ("mon", "srng")
                     for line in ("catalog-instances", "kernel-coherence",
                                  "fibre-jse-agreement", "coherence-along")),
                   "decompose-product[srng]", "decompose-words[srng]")


def _verdicts():
    checks = (suite_adjunction_mon(SLICE).checks + suite_adjunction_srng(SLICE).checks
              + suite_roundtrip(CAT).checks)
    return {c.name: c for c in checks}


def _coherence_verdicts():
    return {c.name: c for c in suite_coherence(COHERENCE_SLICE).checks}


def _shows(check) -> str:
    """What a red line shows: its detail and its witness."""
    return f"{check.detail} {json.dumps(check.witness, sort_keys=True)}"


# ---------------------------------------------------------------------------
# wrong constructions


def _trivial(a):
    """The action of a's base on a's carrier by identities (monoids) or by
    zero (semirings)."""
    X, B = a.X, a.B
    if isinstance(a, MonoidAction):
        return MonoidAction(B, X, tuple(tuple(X.elements) for _ in B.elements))
    return SemiringAction(B, X, tuple((0,) * X.size for _ in B.elements),
                          tuple((0,) * B.size for _ in X.elements))


def _restrict_along_zero(h, G):
    """h*(G) as if h sent everything to 0, so that E acts trivially."""
    return restrict_action(Hom(h.source, h.target, (0,) * h.source.size), G)


def _counit_at_last(c):
    """Evaluation at the last element of B instead of at 0."""
    eps = counit_mon(c)
    return Hom(eps.source, eps.target, tuple(u[-1] for u in c.elements))


def _mediating_off_by_one(c, G, beta_map):
    return tuple((i + 1) % len(c.elements) for i in _mediating_map(c, G, beta_map))


def _cofree_with_trivial_shift(h, F, *, guard):
    """L(B, M) whose B-action forgets the shift; counit_mon then raises."""
    c = cofree_mon(h, F, guard=guard)
    n = len(c.elements)
    return dataclasses.replace(c, action=MonoidAction(
        h.target, c.monoid, tuple(tuple(range(n)) for _ in h.target.elements)))


def _surjective_over_unpointed(c, sect):
    """The simplified L(B, M) over a section that moves the basepoint."""
    h = c.h
    moved = [e for e in h.source.elements if e != 0 and h.map[e] == 0]
    return cofree_mon_surjective(c, (moved[0], *sect[1:]) if moved else sect)


def _identity_restriction(inv, w):
    return Hom(inv.algebra, inv.algebra, tuple(range(inv.algebra.size)))


def _off_by_one_restriction(inv, w):
    n = inv.algebra.size
    return Hom(inv.algebra, inv.algebra,
               tuple((i + 1) % n for i in restrict_invariant_map(inv, w).map))


def _invariants_with_zero_action(h, F):
    """R_h(X) with B acting by zero instead of through preimages."""
    inv = invariants_srng(h, F)
    return dataclasses.replace(inv, action=_trivial(inv.action))


def _restriction_of_a_map_leaving_r_h(inv, w):
    """R_h of a map that sends every nonzero element outside R_h(X), in place
    of R_h(w); restrict_invariant_map then raises ComputationError."""
    X = inv.x_action.X
    outside = [x for x in X.elements if x not in inv.members]
    if not outside:
        return restrict_invariant_map(inv, w)
    return restrict_invariant_map(inv, Hom(X, X, tuple(x and outside[0] for x in X.elements)))


def _semidirect_of_trivial(kind):
    """The semidirect point of another action, the trivial one, for actions of kind."""
    def fault(a):
        return semidirect_point(_trivial(a) if isinstance(a, kind) else a)
    return fault


def _extracted_trivial(kind):
    """point_to_action answering the trivial action for actions of kind."""
    def fault(p):
        a = point_to_action(p)
        return _trivial(a) if isinstance(a, kind) else a
    return fault


def _equivariant_without_last(kind):
    """equivariant_homs dropping its last map for actions of kind."""
    def fault(a1, a2, *, guard):
        maps = equivariant_homs(a1, a2, guard=guard)
        return maps[:-1] if isinstance(a1, kind) else maps
    return fault


def _pulled_over_all_pairs(h, p):
    """h*(p) on all of A x E, not only on the pairs over a common point of B."""
    E = h.source
    pr = product(p.A, E)
    s = Hom(E, pr.algebra, tuple(p.s.map[h.map[e]] * E.size + e for e in E.elements))
    pairs = tuple((a, e) for a in p.A.elements for e in E.elements)
    return PulledBackPoint(Point(pr.algebra, E, pr.proj2, s), pairs, pr.proj1)


def _along_a_middle_over_all_pairs(kind):
    """check_coherence_along handed that wrong pulled-back middle point, for
    instances over a base of kind."""
    def fault(h, inst, left, middle, right):
        if inst.base.kind is kind:
            middle = _pulled_over_all_pairs(h, inst.middle)
        return check_coherence_along(h, inst, left, middle, right)
    return fault


def _zero_retraction(p):
    """The retraction of a point whose every element lay in the section image."""
    return (0,) * p.A.size


def _holding_zero_retractions(inst):
    wrong = copy.copy(inst)
    object.__setattr__(wrong, "retractions", (_zero_retraction(inst.left),
                                              _zero_retraction(inst.right)))
    return wrong


def _mixed_pairs_with_zero_retractions(inst, word):
    """decompose_kernel_word on an instance holding wrong retractions, for
    the mixed two-letter words f(a)g(c) and g(c)f(a) only."""
    if len(word) == 2 and word[0][0] != word[1][0]:
        inst = _holding_zero_retractions(inst)
    return decompose_kernel_word(inst, word)


def _every_letter_out_of_range(inst, word):
    """decompose_kernel_word whose letter-range test rejects every letter, so
    that every word falls outside the hypothesis."""
    tag, x = word[0]
    raise StructuralError(f"letter {tag}({x}) out of range")


# the first failing word as the decompose-words witness shows it
ONE_LETTER = r"\(\('[fg]', \d+\),\)\)"
MIXED_PAIR = r"\(\('f', \d+\), \('g', \d+\)\)\)|\(\('g', \d+\), \('f', \d+\)\)\)"


# ---------------------------------------------------------------------------
# the table: (module, name, fault, {line that goes red: what it shows})

ROWS = {
    "mon-cardinality": (suites, "restrict_action", _restrict_along_zero,
                        {"cofree-adjunction[mon]": r"cardinality=[1-9]"}),
    "mon-bijection": (suites, "counit_mon", _counit_at_last,
                      {"cofree-adjunction[mon]": r"bijection=[1-9]"}),
    "mon-mediating": (suites, "_mediating_map", _mediating_off_by_one,
                      {"cofree-adjunction[mon]": r"mediating=[1-9]"}),
    "mon-construction": (suites, "cofree_mon", _cofree_with_trivial_shift,
                         {"cofree-adjunction[mon]": r"construction=[1-9]"}),
    "mon-unpointed-section": (suites, "cofree_mon_surjective", _surjective_over_unpointed,
                              {"surjective-cofree[mon]": r"iso failures=[1-9]"}),
    "srng-identity-restriction": (adjoints, "restrict_invariant_map", _identity_restriction,
                                  {"invariants-adjunction[srng]": r"counit square fails"}),
    "srng-off-by-one-restriction": (
        adjoints, "restrict_invariant_map", _off_by_one_restriction,
        {"invariants-adjunction[srng]": r"is not an equivariant endomap of R_h\(X\)"}),
    "srng-zero-induced-action": (
        suites, "invariants_srng", _invariants_with_zero_action,
        {"invariants-adjunction[srng]": r"is not equivariant on the right|not a bijection"}),
    "srng-computation-error": (
        adjoints, "restrict_invariant_map", _restriction_of_a_map_leaving_r_h,
        {"invariants-adjunction[srng]": r"failures=[1-9].*equivariant map leaves R_h\(X\)"}),
    # suite_roundtrip shares its semidirect points between its action and
    # hom-set lines, so a wrong semidirect point turns both red.
    "mon-semidirect-of-another-action": (
        suites, "semidirect_point", _semidirect_of_trivial(MonoidAction),
        {"action-roundtrip[mon]": r"failing.*annih_n3_b2",
         "homset-cardinalities[mon]": r"failing"}),
    "srng-semidirect-of-another-action": (
        suites, "semidirect_point", _semidirect_of_trivial(SemiringAction),
        {"action-roundtrip[srng]": r"failing.*mul_bool_bool",
         "homset-cardinalities[srng]": r"failing"}),
    "mon-wrong-extracted-action": (
        suites, "point_to_action", _extracted_trivial(MonoidAction),
        {"action-roundtrip[mon]": r"failing.*annih_n3_b2"}),
    "srng-wrong-extracted-action": (
        suites, "point_to_action", _extracted_trivial(SemiringAction),
        {"action-roundtrip[srng]": r"failing.*mul_bool_bool"}),
    "mon-equivariant-drops-a-map": (
        suites, "equivariant_homs", _equivariant_without_last(MonoidAction),
        {"homset-cardinalities[mon]": r"failing"}),
    "srng-equivariant-drops-a-map": (
        suites, "equivariant_homs", _equivariant_without_last(SemiringAction),
        {"homset-cardinalities[srng]": r"failing"}),
}


COHERENCE_ROWS = {
    "mon-pulled-middle-over-all-pairs": (
        suites, "check_coherence_along", _along_a_middle_over_all_pairs(Kind.MONOID),
        {"coherence-along[mon]": r'"failing": "id_b2.*"h": \['}),
    "srng-pulled-middle-over-all-pairs": (
        suites, "check_coherence_along", _along_a_middle_over_all_pairs(Kind.SEMIRING),
        {"coherence-along[srng]": r'"failing": "id_z2ring.*"h": \['}),
    # the instance holds wrong retractions: every word with a letter off the
    # section image fails, the first a one-letter word
    "srng-instance-holds-wrong-retractions": (
        coherence, "schreier_retraction", _zero_retraction,
        {"decompose-product[srng]": r"Schreier split fails",
         "decompose-words[srng]": ONE_LETTER}),
    # only the mixed two-letter words fail: 54 of the 150 the product line
    # reads from the word sweep, and the same 54 of the 2946 words
    "srng-wrong-retractions-for-products": (
        suites, "decompose_kernel_word", _mixed_pairs_with_zero_retractions,
        {"decompose-product[srng]":
             r'decomposed=96, .*"failing": \[".*", \d+, \d+, "(fg|gf)"\]',
         "decompose-words[srng]": rf"decomposed=2892, .*({MIXED_PAIR})"}),
    # no word is decomposed, so neither line certifies anything
    "srng-every-word-outside-hypothesis": (
        suites, "decompose_kernel_word", _every_letter_out_of_range,
        {"decompose-product[srng]": r"^decomposed=0, outside hypothesis=[1-9]\d* null$",
         "decompose-words[srng]": r"^decomposed=0, outside hypothesis=[1-9]\d* null$"}),
}


@dataclasses.dataclass(frozen=True)
class _CatalogAdmitting(Catalog):
    """A catalog whose Schreier points also admit its point `admitted`,
    which is not Schreier."""

    admitted: str

    def schreier_points(self, variety):
        points = dict(super().schreier_points(variety))
        if self.admitted in self.points_of(variety):
            points[self.admitted] = self.points[self.admitted]
        return sorted(points.items())


def _admitting(name):
    return _CatalogAdmitting(**{f.name: getattr(CAT, f.name)
                                for f in dataclasses.fields(Catalog)}, admitted=name)


# the table: (non-Schreier catalog point admitted, {line that goes red: what it shows})
SSFL_ROWS = {
    # diag_b2 -> diag_b2 by g = (0, 1, 3, 3): both kernels are {0, 1}, and g
    # is not onto
    "mon-admits-diag_b2": (
        "diag_b2", {"ssfl[mon]": r'fibre morphisms=36 \{"g": \[0, 1, 3, 3\], '
                                 r'"h": \[0, 1\], "source": \{.*"target": \{'}),
    # sd_mul_bool -> diag_bool by g = (0, 3, 1, 3): the kernel {0, 2} onto
    # {0, 1}, and g is not onto
    "srng-admits-diag_bool": (
        "diag_bool", {"ssfl[srng]": r'fibre morphisms=18 \{"g": \[0, 3, 1, 3\], '
                                    r'"h": \[0, 1\], "source": \{.*"target": \{'}),
}


def _assert_red_exactly(verdicts, red):
    for line, shows in red.items():
        assert not verdicts[line].ok, line
        assert re.search(shows, _shows(verdicts[line])), _shows(verdicts[line])
    assert all(v.ok for n, v in verdicts.items() if n not in red), {
        n: _shows(v) for n, v in verdicts.items()}


def test_every_line_is_green_without_a_fault():
    verdicts = _verdicts()
    assert sorted(verdicts) == sorted(LINES)
    assert all(v.ok for v in verdicts.values()), {n: v.detail for n, v in verdicts.items()}


def test_every_coherence_line_is_green_without_a_fault():
    verdicts = _coherence_verdicts()
    assert sorted(verdicts) == sorted(COHERENCE_LINES)
    assert all(v.ok for v in verdicts.values()), {n: v.detail for n, v in verdicts.items()}


@pytest.mark.parametrize("row", ROWS)
def test_fault_turns_its_line_red(monkeypatch, row):
    module, name, fault, red = ROWS[row]
    monkeypatch.setattr(module, name, fault)
    _assert_red_exactly(_verdicts(), red)


@pytest.mark.parametrize("row", COHERENCE_ROWS)
def test_fault_turns_its_coherence_line_red(monkeypatch, row):
    module, name, fault, red = COHERENCE_ROWS[row]
    monkeypatch.setattr(module, name, fault)
    _assert_red_exactly(_coherence_verdicts(), red)


def test_every_ssfl_line_is_green_without_a_fault():
    verdicts = {c.name: c for c in suite_ssfl(CAT).checks}
    assert sorted(verdicts) == ["ssfl[mon]", "ssfl[srng]"]
    _assert_red_exactly(verdicts, {})


@pytest.mark.parametrize("row", SSFL_ROWS)
def test_tampered_catalog_turns_its_ssfl_line_red(row):
    admitted, red = SSFL_ROWS[row]
    assert not check_schreier(CAT.points[admitted]).is_schreier
    verdicts = {c.name: c for c in suite_ssfl(_admitting(admitted)).checks}
    assert sorted(verdicts) == ["ssfl[mon]", "ssfl[srng]"]
    _assert_red_exactly(verdicts, red)
