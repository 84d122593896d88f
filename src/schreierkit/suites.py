"""Verification sweeps over the catalog.

Each suite quantifies one family of claims over every applicable catalog
entry and returns a Report; the CLI `verify` subcommands and the acceptance
tests share these functions.  Iteration order is sorted names throughout, so
two runs with the same inputs produce identical reports.

Theorem-certified identities raise ComputationError when they fail; suites
catch that and record the failure as a red check rather than aborting, so
one broken identity cannot hide the remaining verdicts.
"""

from __future__ import annotations

import functools
import itertools

from .actions import (enumerate_monoid_actions, enumerate_semiring_actions,
                      equivariant_homs, point_to_action, restrict_action,
                      roundtrip_point_iso, semidirect_point)
from .adjoints import (DEFAULT_FUNC_GUARD, _mediating_map, cofree_mon,
                       cofree_mon_surjective, counit_mon, invariants_srng,
                       pointed_sections, verify_adjunction_srng,
                       verify_restriction_functor)
from .algebra import DEFAULT_HOM_GUARD, TabularAlgebra, enumerate_homs
from .catalog import Catalog, build_catalog, coherence_instances
from .coherence import (check_coherence_along, check_kernel_coherence,
                        check_ring_base_schreier, decompose_kernel_word,
                        jointly_strongly_epi, jse_in_fibre)
from .errors import ComputationError, StructuralError
from .points import (check_schreier, enumerate_split_epis, fibre_maps,
                     fibre_morphism, fibre_product_point, is_strong_point,
                     pullback_point, ssfl_facts)
from .reporting import Report
from .serialize import point_morphism_to_dict, point_to_dict

VARIETIES = ("mon", "srng")

# Largest catalog carriers the sweeps take; each report's config echoes its own.
PROTOMODULARITY_MAX_SIZE = 6
ADJUNCTION_BASE_MAX = 3  # |B| in the monoid triple sweep
ADJUNCTION_SOURCE_MAX = 4  # |E|, and |B| in the semiring sweep
ADJUNCTION_CARRIER_MAX = 4  # carriers of the actions F and G
ADJUNCTION_SURJ_BASE_MAX = 4  # |B| in the monoid sweep over surjections
COHERENCE_ALONG_MAX = 6  # sources of the changes of base
COHERENCE_WORD_MAX = 3  # longest decomposed word
RING_BASE_MAX_SIZE = 8


def _sized(d: dict[str, TabularAlgebra], max_size: int):
    return [(n, a) for n, a in sorted(d.items()) if a.size <= max_size]


def _action_pool(carriers, enumerate_actions, guard: int):
    """actions_on(base): every action of base on the carriers, enumerated once."""
    @functools.cache
    def actions_on(base: TabularAlgebra) -> tuple:
        return tuple(act for _, X in carriers for act in enumerate_actions(base, X, guard=guard))
    return actions_on


def suite_protomodularity(cat: Catalog | None = None, *,
                          hom_guard: int = DEFAULT_HOM_GUARD,
                          command=("verify", "protomodularity")) -> Report:
    """Schreier implies strong on every enumerated split epi, and the Schreier
    class is stable under pullback and binary fibre product."""
    cat = cat or build_catalog()
    rep = Report(list(command), {"max_size": PROTOMODULARITY_MAX_SIZE, "guard_homs": hom_guard})
    for variety in VARIETIES:
        algebras = _sized(cat.algebras(variety), PROTOMODULARITY_MAX_SIZE)
        checked = schreier = 0
        bad = []
        for _, A in algebras:
            for _, B in algebras:
                if A.size < B.size:
                    continue
                for p in enumerate_split_epis(A, B, guard=hom_guard):
                    checked += 1
                    if check_schreier(p).is_schreier:
                        schreier += 1
                        if not is_strong_point(p).ok:
                            bad.append(p)
        rep.add(f"schreier-implies-strong[{variety}]", not bad,
                f"split epis={checked}, schreier={schreier}",
                point_to_dict(bad[0]) if bad else None)

        points = cat.schreier_points(variety)
        pulled = 0
        bad = []
        for _, p in points:
            for _, E in algebras:
                for h in enumerate_homs(E, p.B, guard=hom_guard):
                    pulled += 1
                    q = pullback_point(h, p).point
                    if not check_schreier(q).is_schreier:
                        bad.append(q)
        rep.add(f"pullback-stability[{variety}]", not bad,
                f"pullbacks={pulled} over {len(points)} schreier points",
                point_to_dict(bad[0]) if bad else None)

        fibre = 0
        bad = []
        for _, p1 in points:
            for _, p2 in points:
                if p1.B != p2.B:
                    continue
                fibre += 1
                q = fibre_product_point(p1, p2).point
                if not check_schreier(q).is_schreier:
                    bad.append(q)
        rep.add(f"fibre-product-stability[{variety}]", not bad,
                f"fibre products={fibre}",
                point_to_dict(bad[0]) if bad else None)
    return rep


def suite_ssfl(cat: Catalog | None = None, *,
               hom_guard: int = DEFAULT_HOM_GUARD,
               command=("verify", "ssfl")) -> Report:
    """Split short five lemma on every fibre morphism of Schreier catalog
    points: kernel-bijective implies bijective.  The witness is the first
    failing morphism."""
    cat = cat or build_catalog()
    rep = Report(list(command), {"guard_homs": hom_guard})
    for variety in VARIETIES:
        points = cat.schreier_points(variety)
        checked = 0
        bad = None
        for _, p1 in points:
            for _, p2 in points:
                if p1.B != p2.B:
                    continue
                for g in fibre_maps(p1, p2, guard=hom_guard):
                    checked += 1
                    if bad is None and ssfl_facts(p1, p2, g) == (True, False):
                        bad = fibre_morphism(p1, p2, g)
        rep.add(f"ssfl[{variety}]", bad is None, f"fibre morphisms={checked}",
                None if bad is None else point_morphism_to_dict(bad))
    return rep


def suite_roundtrip(cat: Catalog | None = None, *,
                    hom_guard: int = DEFAULT_HOM_GUARD,
                    command=("verify", "roundtrip")) -> Report:
    """The action/point equivalence: action -> semidirect point -> action is
    the identity on tables, point -> action -> semidirect point is isomorphic
    to the original, and corresponding hom-sets have equal cardinality."""
    cat = cat or build_catalog()
    rep = Report(list(command), {"guard_homs": hom_guard})
    for variety, pool in (("mon", cat.monoid_actions), ("srng", cat.semiring_actions)):
        actions = sorted(pool.items())
        sd = {name: semidirect_point(a) for name, a in actions}
        bad = [name for name, a in actions if point_to_action(sd[name]) != a]
        rep.add(f"action-roundtrip[{variety}]", not bad,
                f"actions={len(actions)}", None if not bad else
                {"failing": bad})

        points = cat.schreier_points(variety)
        bad = []
        for name, p in points:
            try:
                roundtrip_point_iso(p)
            except ComputationError as exc:
                bad.append((name, str(exc)))
        rep.add(f"point-roundtrip[{variety}]", not bad,
                f"schreier points={len(points)}",
                None if not bad else {"failing": [n for n, _ in bad],
                                      "first": bad[0][1]})

        pairs = checked = 0
        bad = []
        for n1, a1 in actions:
            for n2, a2 in actions:
                if a1.B != a2.B:
                    continue
                pairs += 1
                t = len(equivariant_homs(a1, a2, guard=hom_guard))
                m = len(fibre_maps(sd[n1], sd[n2], guard=hom_guard))
                checked += 1
                if t != m:
                    bad.append((n1, n2, t, m))
        rep.add(f"homset-cardinalities[{variety}]", not bad,
                f"action pairs={pairs}",
                None if not bad else {"failing": bad[0]})
    return rep


def _mon_triple_failure(c, eps, G, restricted, hom_guard: int) -> tuple[str, str] | None:
    """(counter, message) for the first check of one (h, F, G) that fails,
    given c = L(B, M) for (h, F), its counit eps and restricted = h*(G)."""
    lhs = equivariant_homs(restricted, c.m_action, guard=hom_guard)
    rhs = equivariant_homs(G, c.action, guard=hom_guard)
    if len(lhs) != len(rhs):
        return "cardinality", f"hom-set sizes {len(lhs)} != {len(rhs)}"
    composed = {}
    for gamma in rhs:
        composed.setdefault(tuple(eps.map[v] for v in gamma), []).append(gamma)
    if set(composed) != set(lhs) or any(len(v) != 1 for v in composed.values()):
        return "bijection", "counit composition is not a bijection onto the hom-set"
    for beta in lhs:
        try:
            if _mediating_map(c, G, beta) != composed[beta][0]:
                return "mediating", "mediating formula disagrees with the enumerated inverse"
        except ComputationError as exc:
            return "mediating", str(exc)
    return None


def _counts(bad: dict[str, int]) -> str:
    return ", ".join(f"{name}={n}" for name, n in bad.items())


def suite_adjunction_mon(cat: Catalog | None = None, *,
                         hom_guard: int = DEFAULT_HOM_GUARD,
                         func_guard: int = DEFAULT_FUNC_GUARD,
                         command=("verify", "adjunction", "--variety", "mon")
                         ) -> Report:
    """The relative right adjoint for monoid actions.

    First sweep: every hom h: E -> B between catalog monoids (|E| <= 4,
    |B| <= 3), every action F on |M| <= 4 and G on |S| <= 4.  Checks, per
    triple: |Hom_E(h*G, F)| = |Hom_B(G, L(B,M))|, composing with the counit
    is a bijection from the right-hand side onto the left (existence and
    uniqueness of the mediating map at once), and the mediating formula
    gamma(x)(b) = beta(b . x) is that bijection's inverse.  This covers all
    that mediate_mon checks: gamma is then an enumerated equivariant hom
    whose composite with the counit is beta.

    Second sweep: for surjective h the submonoid characterization: every
    pointed set-section yields the same submonoid, isomorphic to L(B, M).

    A ComputationError while building L(B, M), its counit or a submonoid
    fails every triple or instance of its (h, F) as "construction".
    """
    cat = cat or build_catalog()
    rep = Report(list(command),
                 {"base_max": ADJUNCTION_BASE_MAX, "source_max": ADJUNCTION_SOURCE_MAX,
                  "carrier_max": ADJUNCTION_CARRIER_MAX, "surj_base_max": ADJUNCTION_SURJ_BASE_MAX,
                  "guard_homs": hom_guard, "guard_functions": func_guard})
    actions_on = _action_pool(_sized(cat.monoids, ADJUNCTION_CARRIER_MAX),
                              enumerate_monoid_actions, hom_guard)

    triples = 0
    bad = dict.fromkeys(("construction", "cardinality", "bijection", "mediating"), 0)
    first_failure = ""
    for _, E in _sized(cat.monoids, ADJUNCTION_SOURCE_MAX):
        for _, B in _sized(cat.monoids, ADJUNCTION_BASE_MAX):
            for h in enumerate_homs(E, B, guard=hom_guard):
                restricted = [restrict_action(h, G) for G in actions_on(B)]  # h*(G), for every F
                for F in actions_on(E):
                    triples += len(actions_on(B))
                    try:
                        c = cofree_mon(h, F, guard=func_guard)
                        eps = counit_mon(c)
                    except ComputationError as exc:
                        bad["construction"] += len(actions_on(B))
                        first_failure = first_failure or str(exc)
                        continue
                    for G, hG in zip(actions_on(B), restricted):
                        failed = _mon_triple_failure(c, eps, G, hG, hom_guard)
                        if failed is not None:
                            bad[failed[0]] += 1
                            first_failure = first_failure or failed[1]
    ok = not any(bad.values())
    rep.add("cofree-adjunction[mon]", ok,
            f"triples={triples}" if ok else
            f"triples={triples}, {_counts(bad)}: {first_failure}")

    instances = 0
    bad = dict.fromkeys(("construction", "iso failures", "section dependence"), 0)
    first_failure = ""
    for _, E in sorted(cat.monoids.items()):
        for _, B in _sized(cat.monoids, ADJUNCTION_SURJ_BASE_MAX):
            for h in enumerate_homs(E, B, guard=hom_guard):
                if not h.is_surjective():
                    continue
                sections = pointed_sections(h)
                for F in actions_on(E):
                    instances += len(sections)
                    try:
                        c = cofree_mon(h, F, guard=func_guard)
                        found = [cofree_mon_surjective(c, sect) for sect in sections]
                    except ComputationError as exc:
                        bad["construction"] += len(sections)
                        first_failure = first_failure or str(exc)
                        continue
                    for sc in found:
                        if not sc.is_isomorphism:
                            bad["iso failures"] += 1
                            first_failure = first_failure or (sc.failure or "not iso")
                        if sc.members != found[0].members:
                            bad["section dependence"] += 1
                            first_failure = first_failure or (
                                "submonoid depends on the chosen section")
    ok = not any(bad.values())
    rep.add("surjective-cofree[mon]", ok,
            f"(h, F, section) instances={instances}" if ok else
            f"instances={instances}, {_counts(bad)}: {first_failure}")
    return rep


def suite_adjunction_srng(cat: Catalog | None = None, *,
                          hom_guard: int = DEFAULT_HOM_GUARD,
                          command=("verify", "adjunction", "--variety", "srng")
                          ) -> Report:
    """The relative right adjoint for semiring actions, along every surjective
    hom h between catalog semirings and every action F of its source: R_h on
    maps is a functor into B-actions with a commuting counit square, checked
    once per (h, F), and for every action G of its target the hom-set
    bijection via corestriction to the invariant subalgebra.  A triple
    (h, F, G) fails when its bijection fails, or when R_h(X) or R_h on maps
    fails for its (h, F)."""
    cat = cat or build_catalog()
    rep = Report(list(command),
                 {"source_max": ADJUNCTION_SOURCE_MAX,
                  "carrier_max": ADJUNCTION_CARRIER_MAX, "guard_homs": hom_guard})
    actions_on = _action_pool(_sized(cat.semirings, ADJUNCTION_CARRIER_MAX),
                              enumerate_semiring_actions, hom_guard)

    triples = 0
    bad = 0
    first_failure = ""
    for _, E in _sized(cat.semirings, ADJUNCTION_SOURCE_MAX):
        for _, B in _sized(cat.semirings, ADJUNCTION_SOURCE_MAX):
            for h in enumerate_homs(E, B, guard=hom_guard):
                if not h.is_surjective():
                    continue
                for F in actions_on(E):
                    triples += len(actions_on(B))
                    try:
                        inv = invariants_srng(h, F)
                        failure = verify_restriction_functor(inv, guard=hom_guard)
                    except ComputationError as exc:
                        failure = str(exc)
                    if failure is not None:
                        bad += len(actions_on(B))
                        first_failure = first_failure or failure
                        continue
                    for G in actions_on(B):
                        adj = verify_adjunction_srng(inv, G, guard=hom_guard)
                        if not adj.ok:
                            bad += 1
                            first_failure = first_failure or (adj.failure or "")
    rep.add("invariants-adjunction[srng]", bad == 0,
            f"triples={triples}" if bad == 0 else
            f"triples={triples}, failures={bad}: {first_failure}")
    return rep


def _product_witness(failure) -> tuple:
    """(name, a, c, order) of the product f(a)g(c) or g(c)f(a) that a failing
    mixed two-letter word spells."""
    name, ((t1, x1), (_, x2)) = failure
    return (name, x1, x2, "fg") if t1 == "f" else (name, x2, x1, "gf")


def suite_coherence(cat: Catalog | None = None, *, variety: str | None = None,
                    hom_guard: int = DEFAULT_HOM_GUARD,
                    command=("verify", "coherence")) -> Report:
    """Kernel coherence and coherence along every enumerated change of base,
    on every catalog coherence instance; for semirings, the word
    decompositions with their vanishing certificates on all valid inputs,
    the product line counting the mixed two-letter words among them."""
    cat = cat or build_catalog()
    rep = Report(list(command),
                 {"variety": variety or "both", "along_max": COHERENCE_ALONG_MAX,
                  "word_max": COHERENCE_WORD_MAX, "guard_homs": hom_guard})
    for var in VARIETIES if variety is None else (variety,):
        instances = coherence_instances(cat, var, guard=hom_guard)
        rep.add(f"catalog-instances[{var}]", len(instances) > 0,
                f"instances={len(instances)}")

        bad = [name for name, inst in instances
               if not check_kernel_coherence(inst).ok]
        rep.add(f"kernel-coherence[{var}]", not bad,
                f"instances={len(instances)}",
                None if not bad else {"failing": bad})

        bad = [name for name, inst in instances
               if jse_in_fibre(inst).ok
               != jointly_strongly_epi(inst.f.g, inst.g.g).ok]
        rep.add(f"fibre-jse-agreement[{var}]", not bad,
                f"instances={len(instances)}",
                None if not bad else {"failing": bad})

        algebras = _sized(cat.algebras(var), COHERENCE_ALONG_MAX)
        pulled_back = functools.cache(pullback_point)  # once per (h, point)
        pulled = 0
        bad = []
        for name, inst in instances:
            for _, E in algebras:
                for h in enumerate_homs(E, inst.base, guard=hom_guard):
                    pulled += 1
                    legs = (pulled_back(h, p) for p in (inst.left, inst.middle, inst.right))
                    if not check_coherence_along(h, inst, *legs).ok:
                        bad.append((name, h.map))
        rep.add(f"coherence-along[{var}]", not bad,
                f"pullbacks={pulled} over {len(instances)} instances",
                None if not bad else {"failing": bad[0][0], "h": list(bad[0][1])})

        if var != "srng":
            continue
        counts = {"product": [0, 0], "words": [0, 0]}  # decomposed, outside hypothesis
        bad = {"product": [], "words": []}
        for name, inst in instances:
            A, C = inst.f.source.A, inst.g.source.A
            alphabet = [("f", a) for a in A.elements] + [("g", c) for c in C.elements]
            for n in range(1, COHERENCE_WORD_MAX + 1):
                for word in itertools.product(alphabet, repeat=n):
                    # f(a)g(c) is the mixed word (f a, g c), and g(c)f(a) is (g c, f a)
                    mixed = n == 2 and word[0][0] != word[1][0]
                    lines = ("product", "words") if mixed else ("words",)
                    try:
                        decompose_kernel_word(inst, word)
                    except ComputationError as exc:
                        for line in lines:
                            bad[line].append((name, word, str(exc)))
                        continue
                    except StructuralError:
                        outcome = 1
                    else:
                        outcome = 0
                    for line in lines:
                        counts[line][outcome] += 1
        for line, witness in (("product", _product_witness), ("words", str)):
            # a line that decomposed nothing certifies nothing
            rep.add(f"decompose-{line}[srng]", not bad[line] and counts[line][0] > 0,
                    "decomposed={}, outside hypothesis={}".format(*counts[line]),
                    None if not bad[line] else
                    {"failing": witness(bad[line][0][:2]), "error": bad[line][0][2]})
    return rep


def suite_ring_base(cat: Catalog | None = None, *,
                    hom_guard: int = DEFAULT_HOM_GUARD,
                    command=("verify", "ring-base")) -> Report:
    """Every split epi from a catalog semiring onto the two-element ring is
    Schreier; the precondition rejects the boolean semiring, which does admit
    a non-Schreier split epi."""
    cat = cat or build_catalog()
    rep = Report(list(command), {"max_size": RING_BASE_MAX_SIZE, "guard_homs": hom_guard})
    sources = _sized(cat.semirings, RING_BASE_MAX_SIZE)
    ring = cat.semirings["z2_ring"]
    result = check_ring_base_schreier(ring, sources, guard=hom_guard)
    rep.add("ring-base-schreier[z2_ring]", result.ok,
            f"split epis={result.checked} from {len(sources)} semirings",
            None if result.ok else
            point_to_dict(result.violations[0].point))

    try:
        check_ring_base_schreier(cat.semirings["bool_rig"], sources, guard=hom_guard)
    except StructuralError as exc:
        rep.add("ring-base-precondition[bool_rig]", True, str(exc))
    else:
        rep.add("ring-base-precondition[bool_rig]", False,
                "boolean semiring accepted despite not being a ring")

    w = check_schreier(cat.points["diag_bool"])
    rep.add("non-schreier-over-bool_rig", not w.is_schreier, w.describe())
    return rep

