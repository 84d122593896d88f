"""Joint strong epimorphy, kernel coherence, coherence along change of base,
the semiring decomposition identities with their vanishing certificates, the
ring-base Schreier guarantee, and the bounded counterexample search."""

import itertools
import json
import time

import pytest

from schreierkit import (CoherenceInstance, ComputationError, Hom, NotSchreier,
                         PointMorphism, SearchBounds, StructuralError,
                         build_catalog,
                         check_coherence_along, check_kernel_coherence,
                         check_ring_base_schreier, check_schreier,
                         coherence_instances, decompose_kernel_word,
                         dumps_canonical, enumerate_homs, evaluate_tree,
                         identity_hom,
                         identity_point, is_additive_group,
                         jointly_strongly_epi,
                         jse_in_fibre, kernel_algebra, pullback_point,
                         replay_witness, schreier_retraction,
                         search_counterexamples)
from schreierkit import coherence, points, search
from schreierkit.serialize import point_morphism_to_dict, point_to_dict

CAT = build_catalog()
B2 = CAT.monoids["b2"]
MON_INSTANCES = coherence_instances(CAT, "mon")
SRNG_INSTANCES = coherence_instances(CAT, "srng")


def _oracle_generated(d, seeds) -> tuple[int, ...]:
    """The subalgebra generated by 0 and seeds, by adding every product of
    members until nothing changes."""
    members = {0, *seeds}
    while True:
        grown = members | {t[x][y] for _, t in d.all_tables()
                           for x in members for y in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


# ---------------------------------------------------------------------------
# joint strong epimorphy


def test_jse_sections_alone_do_not_generate_the_product():
    p = CAT.points["prod_b2_b2"]
    chk = jointly_strongly_epi(p.s, p.s)
    assert not chk.ok
    assert tuple(chk.generated) == (0, 2)  # just the section copy of b2


def test_jse_identity_with_anything_generates():
    p = CAT.points["prod_b2_b2"]
    chk = jointly_strongly_epi(identity_hom(p.A), p.s)
    assert chk.ok and chk.generated.is_all()


def test_jse_requires_common_codomain():
    with pytest.raises(StructuralError):
        jointly_strongly_epi(identity_hom(B2), identity_hom(CAT.monoids["z2"]))


def test_jse_generated_matches_the_oracle_on_all_catalog_instances():
    for _, inst in (*MON_INSTANCES, *SRNG_INSTANCES):
        chk = jointly_strongly_epi(inst.f.g, inst.g.g)
        assert chk.ok  # instances are filtered on this
        d, fmap, gmap = inst.middle.A, inst.f.g.map, inst.g.g.map
        assert chk.generated.members == _oracle_generated(d, fmap + gmap)
        fib = jse_in_fibre(inst)
        assert fib.ok == chk.ok
        assert fib.generated.members == _oracle_generated(
            d, fmap + gmap + inst.middle.s.map)


# ---------------------------------------------------------------------------
# kernel coherence


def test_catalog_instance_counts():
    assert len(MON_INSTANCES) == 52
    assert len(SRNG_INSTANCES) == 19


def test_kernel_coherence_holds_on_all_catalog_instances():
    for name, inst in (*MON_INSTANCES, *SRNG_INSTANCES):
        chk = check_kernel_coherence(inst)
        assert chk.ok, name
        k_alg, k_embed = kernel_algebra(inst.middle)
        assert len(chk.generated) == k_alg.size
        pos = {v: i for i, v in enumerate(k_embed)}
        fmap, gmap = inst.f.g.map, inst.g.g.map
        seeds = [pos[fmap[x]] for x in inst.H] + [pos[gmap[y]] for y in inst.L]
        assert chk.generated.members == _oracle_generated(k_alg, seeds)


def _section_pair_instance():
    # f = g = the section of the product point: a legal pair of fibre
    # morphisms that is NOT jointly strongly epimorphic
    mid = CAT.points["prod_b2_b2"]
    src = CAT.points["id_b2"]
    m = PointMorphism(src, mid, mid.s, identity_hom(B2))
    return CoherenceInstance(m, m)


def test_kernel_coherence_fails_without_joint_strong_epimorphy():
    inst = _section_pair_instance()
    chk = check_kernel_coherence(inst)
    assert not chk.ok
    assert tuple(chk.generated) == (0,)  # both kernels map onto 0 only


def test_section_pair_witness_round_trips_and_replays():
    inst = _section_pair_instance()
    payload = {"f": point_morphism_to_dict(inst.f),
               "g": point_morphism_to_dict(inst.g)}
    doc = search._witness("KernelCoherenceFailure", "kernel_coherence", payload,
                          search._kernel_coherence_verdict(inst))
    assert doc["verdict"] == "kernel_jse=False, generated=[0]"
    assert search._reverify(doc) is doc
    assert replay_witness(json.loads(dumps_canonical(doc))) == doc["verdict"]


def test_instance_shape_rejections():
    mid = CAT.points["prod_b2_b2"]
    other = CAT.points["id_b2"]
    f = PointMorphism(other, mid, mid.s, identity_hom(B2))
    g = PointMorphism(other, other, identity_hom(B2), identity_hom(B2))
    with pytest.raises(StructuralError):
        CoherenceInstance(f, g)  # different middles
    diag = CAT.points["diag_b2"]
    dm = PointMorphism(diag, diag, identity_hom(diag.A), identity_hom(B2))
    with pytest.raises(NotSchreier):
        CoherenceInstance(dm, dm)  # diag_b2 is not a Schreier point


# ---------------------------------------------------------------------------
# coherence along change of base


def _legs(h, inst):
    """The instance's left, middle and right points pulled back along h."""
    return [pullback_point(h, p) for p in (inst.left, inst.middle, inst.right)]


def _along(h, inst):
    return check_coherence_along(h, inst, *_legs(h, inst))


def test_coherence_along_identity_matches_the_plain_check():
    for _, inst in (*MON_INSTANCES, *SRNG_INSTANCES):
        chk = _along(identity_hom(inst.base), inst)
        assert chk.ok == jointly_strongly_epi(inst.f.g, inst.g.g).ok


def test_coherence_along_zero_hom_is_the_kernel_statement():
    """Pulling back along 0 -> B extracts the fibre over 0, so the verdict
    must agree with check_kernel_coherence."""
    for variety, instances in (("mon", MON_INSTANCES), ("srng", SRNG_INSTANCES)):
        zero = CAT.algebras(variety)["zero" if variety == "mon" else "zero_rig"]
        for name, inst in instances:
            h0 = Hom(zero, inst.base, (0,))
            assert (_along(h0, inst).ok
                    == check_kernel_coherence(inst).ok), name


def test_coherence_along_rejects_wrong_target():
    _, inst = MON_INSTANCES[0]
    z2 = CAT.monoids["z2"]
    if inst.base != z2:
        legs = _legs(identity_hom(inst.base), inst)
        with pytest.raises(StructuralError, match="h must land in the base"):
            check_coherence_along(identity_hom(z2), inst, *legs)


def test_coherence_along_rejects_non_jse_pairs():
    inst = _section_pair_instance()
    legs = _legs(identity_hom(B2), inst)
    for _ in range(2):  # the second time on the kept verdict
        with pytest.raises(StructuralError, match="not jointly strongly epimorphic"):
            check_coherence_along(identity_hom(B2), inst, *legs)


def test_coherence_along_decides_the_precondition_once_per_instance(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return jointly_strongly_epi(f, g)

    monkeypatch.setattr(coherence, "jointly_strongly_epi", counted)
    _, inst = SRNG_INSTANCES[0]
    inst = CoherenceInstance(inst.f, inst.g)
    assert not calls  # building an instance decides nothing
    along = 0
    for E in (CAT.semirings["z2_ring"], CAT.semirings["bool_x_z2r"], inst.base):
        for h in enumerate_homs(E, inst.base):
            assert _along(h, inst).ok
            along += 1
    assert along > 2 and calls == [(inst.f.g, inst.g.g)]
    assert inst.jse == jointly_strongly_epi(inst.f.g, inst.g.g)


# ---------------------------------------------------------------------------
# semiring decomposition identities

# the identity pair over the semidirect point of z2_ring acting on itself:
# kernel K = {0, 2}, base = z2_ring.  The product f(a)g(c) is the word
# (f a, g c), and g(c)f(a) is (g c, f a).


def _identity_instance(point_name):
    mid = CAT.points[point_name]
    m = PointMorphism(mid, mid, identity_hom(mid.A), identity_hom(mid.B))
    return CoherenceInstance(m, m)


def test_coherence_instance_refuses_a_non_fibre_morphism_and_two_middles():
    b2xb2 = CAT.monoids["b2xb2"]
    mid = identity_point(b2xb2)
    swap = Hom(b2xb2, b2xb2, (0, 2, 1, 3))  # (x, y) |-> (y, x)
    twisted = PointMorphism(mid, mid, swap, swap)
    fibre = PointMorphism(mid, mid, identity_hom(b2xb2), identity_hom(b2xb2))
    for f, g in ((twisted, fibre), (fibre, twisted)):
        with pytest.raises(StructuralError, match="built from fibre morphisms"):
            CoherenceInstance(f, g)
    other = identity_point(B2)
    elsewhere = PointMorphism(other, other, identity_hom(B2), identity_hom(B2))
    with pytest.raises(StructuralError, match="share the middle point"):
        CoherenceInstance(fibre, elsewhere)


def _product_word(a, c, order="fg"):
    return (("f", a), ("g", c)) if order == "fg" else (("g", c), ("f", a))


def test_product_decomposition_all_valid_pairs_both_orders():
    inst = _identity_instance("sd_mul_z2r")
    D = inst.middle.A
    mul = D.op_table("mul")
    bmul = inst.base.op_table("mul")
    covered = 0
    for a in D.elements:
        for c in D.elements:
            for order in ("fg", "gf"):
                k = mul[a][c] if order == "fg" else mul[c][a]
                if inst.middle.f.map[k] != 0:
                    with pytest.raises(StructuralError):
                        decompose_kernel_word(inst, _product_word(a, c, order))
                    continue
                d = decompose_kernel_word(inst, _product_word(a, c, order))
                covered += 1
                assert d.value == k
                assert evaluate_tree(inst, d.tree) == k
                assert d.tree[0] == "add" and ("szero",) in d.tree
                prod = d.vanishing[0]
                for b in d.vanishing[1:]:
                    prod = bmul[prod][b]
                assert prod == 0  # the certificate itself
    assert covered == 24


def test_product_decomposition_leaves_lie_in_the_kernels():
    inst = _identity_instance("sd_mul_z2r")
    d = decompose_kernel_word(inst, _product_word(2, 2))
    kernel = set(inst.K)

    def leaves(tree):
        if tree[0] in ("f", "g"):
            yield tree
        elif tree[0] != "szero":
            for t in tree[1:]:
                yield from leaves(t)

    found = list(leaves(d.tree))
    assert found and all(x in kernel for _, x in found)


def test_product_decomposition_is_semiring_specific():
    mid = CAT.points["prod_b2_b2"]
    m = PointMorphism(mid, mid, identity_hom(mid.A), identity_hom(B2))
    inst = CoherenceInstance(m, m)
    with pytest.raises(StructuralError, match="semiring-specific"):
        decompose_kernel_word(inst, _product_word(0, 0))


def test_word_decomposition_lengths_one_to_three():
    inst = _identity_instance("sd_mul_z2r")
    D = inst.middle.A
    mul = D.op_table("mul")
    letters = [(t, x) for t in ("f", "g") for x in D.elements]
    covered = 0
    for n in (1, 2, 3):
        for word in itertools.product(letters, repeat=n):
            k = word[0][1]
            for _, x in word[1:]:
                k = mul[k][x]
            if inst.middle.f.map[k] != 0:
                with pytest.raises(StructuralError):
                    decompose_kernel_word(inst, word)
                continue
            d = decompose_kernel_word(inst, word)
            covered += 1
            assert d.value == k
            assert evaluate_tree(inst, d.tree) == k
            assert len(d.vanishing) == n
    assert covered == 500


def test_word_decomposition_over_the_boolean_semidirect_point():
    # same sweep on a base without additive inverses
    inst = _identity_instance("sd_mul_bool")
    D = inst.middle.A
    mul = D.op_table("mul")
    letters = [(t, x) for t in ("f", "g") for x in D.elements]
    for word in itertools.product(letters, repeat=2):
        k = mul[word[0][1]][word[1][1]]
        if inst.middle.f.map[k] == 0:
            d = decompose_kernel_word(inst, word)
            assert evaluate_tree(inst, d.tree) == d.value == k


def test_word_decomposition_rejections():
    inst = _identity_instance("sd_mul_z2r")
    with pytest.raises(StructuralError):
        decompose_kernel_word(inst, ())
    with pytest.raises(StructuralError):
        decompose_kernel_word(inst, (("h", 0),))
    for letter in (("f", 99), ("f", inst.left.A.size), ("g", inst.right.A.size),
                   ("f", -1)):
        with pytest.raises(StructuralError, match="out of range"):
            decompose_kernel_word(inst, (letter,))
    with pytest.raises(StructuralError):
        decompose_kernel_word(inst, (("f", 1),))  # lands over base 1, not 0


def test_refused_word_takes_no_schreier_retraction(monkeypatch):
    # The instance holds both retractions, so no word decides Schreier again.
    inst = _identity_instance("sd_mul_z2r")
    calls = []

    def counting(p):
        calls.append(p)
        return check_schreier(p)

    for module in (points, coherence):
        monkeypatch.setattr(module, "check_schreier", counting)
    with pytest.raises(StructuralError, match="does not land in the kernel"):
        decompose_kernel_word(inst, (("f", 1),))
    decompose_kernel_word(inst, (("f", 2), ("g", 3)))
    assert calls == []
    assert inst.retractions == (schreier_retraction(inst.left),
                                schreier_retraction(inst.right))
    assert calls == [inst.left, inst.right]


# ---------------------------------------------------------------------------
# ring bases force the Schreier condition


def test_additive_group_detection():
    assert is_additive_group(CAT.semirings["z2_ring"])
    assert not is_additive_group(CAT.semirings["bool_rig"])
    assert is_additive_group(CAT.semirings["zero_rig"])


def test_ring_base_all_split_epis_schreier():
    sources = sorted(CAT.semirings.items())
    rep = check_ring_base_schreier(CAT.semirings["z2_ring"], sources)
    assert rep.ok and rep.checked > 0
    assert not rep.violations
    labels = [label for label, _ in rep.entries]
    assert labels == sorted(labels)


def test_ring_base_rejects_non_group_base():
    with pytest.raises(StructuralError):
        check_ring_base_schreier(CAT.semirings["bool_rig"],
                                 sorted(CAT.semirings.items()))


def test_ring_base_rejects_monoid_base():
    with pytest.raises(StructuralError):
        check_ring_base_schreier(B2, sorted(CAT.semirings.items()))


def test_non_schreier_split_epi_exists_over_the_boolean_rig():
    """What the precondition is protecting against: over bool_rig the diag
    point construction gives a genuine non-Schreier split epi."""
    w = check_schreier(CAT.points["diag_bool"])
    assert not w.is_schreier


# ---------------------------------------------------------------------------
# the bounded counterexample search


def test_search_nonschreier_finds_the_diagonal_point():
    res = search_counterexamples("NonSchreier", SearchBounds(variety="mon"))
    assert res.completed and not res.timed_out
    assert res.examined == 35 and len(res.witnesses) == 6
    diag = point_to_dict(CAT.points["diag_b2"])
    assert any(w["payload"]["point"] == diag for w in res.witnesses)
    for w in res.witnesses:
        assert replay_witness(w) == w["verdict"]
        assert w["verdict"].startswith(("ExistenceFails", "UniquenessFails"))


def test_search_nonschreier_srng_finds_the_boolean_diagonal():
    res = search_counterexamples("NonSchreier", SearchBounds(variety="srng"))
    assert res.completed and len(res.witnesses) == 2
    diag = point_to_dict(CAT.points["diag_bool"])
    assert any(w["payload"]["point"] == diag for w in res.witnesses)


def test_search_kernel_coherence_clean_at_catalog_scale():
    res = search_counterexamples("KernelCoherenceFailure",
                                 SearchBounds(variety="mon", timeout_s=60))
    assert res.completed and res.witnesses == ()
    assert res.examined == 2250


def test_search_kernel_coherence_jt3_fits_the_default_timeout():
    res = search_counterexamples("KernelCoherenceFailure",
                                 SearchBounds(variety="jt", max_size=3))
    assert res.completed and res.witnesses == ()
    assert res.examined == 65062


def test_search_raises_when_the_mask_verdict_is_wrong(monkeypatch):
    # A closure that drops its highest element makes the mask verdict say
    # "fails" where check_kernel_coherence says "holds"; the cross-check of
    # every would-be witness must catch it.
    closure_mask = search.closure_mask

    def drop_one(a, mask):
        closed = closure_mask(a, mask)
        return closed & ~(1 << (closed.bit_length() - 1))

    monkeypatch.setattr(search, "closure_mask", drop_one)
    with pytest.raises(ComputationError, match="check_kernel_coherence holds"):
        search_counterexamples("KernelCoherenceFailure",
                               SearchBounds(variety="jt", max_size=2))


def test_search_ssfl_failures_exist_off_the_schreier_class():
    res = search_counterexamples("SSFLFailureOffClass",
                                 SearchBounds(variety="mon", timeout_s=60))
    assert res.completed and len(res.witnesses) == 44
    for w in res.witnesses:
        assert replay_witness(w) == w["verdict"]
        assert w["verdict"] == "kernel_bijective=True, bijective=False"


def test_search_generic_universe_completes_at_size_two():
    for goal, expect_examined in (("NonSchreier", 14),
                                  ("KernelCoherenceFailure", 98),
                                  ("SSFLFailureOffClass", 46)):
        res = search_counterexamples(goal, SearchBounds(variety="jt", max_size=2))
        assert res.completed and res.witnesses == ()
        assert res.examined == expect_examined


def test_search_timeout_is_reported(search_deadline_at_tick):
    # The complete search ticks 7,176 times, 87 of them while building its
    # universe, so a deadline at tick 500 falls inside the pair sweep.
    search_deadline_at_tick(500)
    res = search_counterexamples("KernelCoherenceFailure",
                                 SearchBounds(variety="jt", max_size=3))
    assert res.timed_out and not res.completed
    assert 0 < res.examined < 65062


def test_search_timeout_bounds_universe_generation():
    # The jt universe at size 4 holds 262,233 algebras and takes seconds to
    # build; the deadline must cut the build short, not start after it.
    start = time.monotonic()
    res = search_counterexamples("NonSchreier",
                                 SearchBounds(variety="jt", max_size=4, timeout_s=0.2))
    assert time.monotonic() - start < 2
    assert res.timed_out and not res.completed


def test_search_witness_cap_truncates():
    res = search_counterexamples("SSFLFailureOffClass",
                                 SearchBounds(variety="mon", max_witnesses=1,
                                              timeout_s=60))
    assert not res.completed and not res.timed_out
    assert len(res.witnesses) == 1


def test_search_witness_cap_equal_to_the_count_completes():
    full = search_counterexamples("NonSchreier", SearchBounds(variety="mon"))
    res = search_counterexamples("NonSchreier",
                                 SearchBounds(variety="mon",
                                              max_witnesses=len(full.witnesses)))
    assert res.completed and not res.timed_out
    assert res.examined == full.examined == 35
    assert res.witnesses == full.witnesses


def test_search_seed_reorders_but_witnesses_are_canonical():
    base = search_counterexamples("NonSchreier", SearchBounds(variety="mon"))
    for seed in (1, 7, 1234):
        res = search_counterexamples("NonSchreier",
                                     SearchBounds(variety="mon", seed=seed))
        assert ([dumps_canonical(w) for w in res.witnesses]
                == [dumps_canonical(w) for w in base.witnesses])


def test_search_rejects_unknown_goal_and_bad_bounds():
    with pytest.raises(StructuralError):
        search_counterexamples("Everything")
    with pytest.raises(StructuralError):
        SearchBounds(variety="groups")
    with pytest.raises(StructuralError):
        SearchBounds(max_size=0)
    with pytest.raises(StructuralError):
        SearchBounds(max_witnesses=0)


def test_replay_rejects_malformed_witnesses():
    with pytest.raises(StructuralError):
        replay_witness({"type": "witness", "checker": "schreier"})
    with pytest.raises(StructuralError):
        replay_witness({"type": "witness", "checker": "frobnicate",
                        "payload": {}})
