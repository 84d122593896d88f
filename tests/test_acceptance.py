"""End-to-end verification battery.

Each test runs one headline guarantee of the toolkit against the full
catalog, so `pytest -v tests/test_acceptance.py` prints a single verdict
line per guarantee.  Expensive suites run once per module and are shared
between the tests that read different checks out of the same report.  The
sweeps that filter equivariant hom-sets run from an empty square-bit cache
and assert that it evicted nothing.
"""

import time

import pytest

from schreierkit import (
    SearchBounds,
    build_catalog,
    replay_witness,
    reports_equal_modulo_timestamp,
    search_counterexamples,
    suite_adjunction_mon,
    suite_adjunction_srng,
    suite_coherence,
    suite_protomodularity,
    suite_ring_base,
    suite_roundtrip,
    suite_ssfl,
)
from schreierkit import actions
from schreierkit.serialize import point_to_dict

CAT = build_catalog()


def _timed(suite):
    t0 = time.monotonic()
    rep = suite(CAT)
    return rep, time.monotonic() - t0


def _require(report, *names):
    """Assert the named checks exist and passed; return them by name."""
    by = {c.name: c for c in report.checks}
    missing = [n for n in names if n not in by]
    assert not missing, f"checks absent from report: {missing}"
    failing = [f"{n}: {by[n].detail}" for n in names if not by[n].ok]
    assert not failing, "failing checks: " + "; ".join(failing)
    return {n: by[n] for n in names}


def _cold_squares(run):
    """run() from an empty square-bit cache of equivariant_homs; returns its
    result and the cache's statistics."""
    actions._square_bits.cache_clear()
    result = run()
    return result, actions._square_bits.cache_info()


def _assert_nothing_evicted(squares):
    # every square computed during the sweep is still held
    assert 0 < squares.misses == squares.currsize < squares.maxsize, squares


def _count(detail, key):
    # details read like "split epis=94, schreier=70"
    return int(detail.split(key + "=")[1].split(",")[0].split(" ")[0])


@pytest.fixture(scope="module")
def protomodularity():
    return _timed(suite_protomodularity)


@pytest.fixture(scope="module")
def adjunction_mon():
    (rep, elapsed), squares = _cold_squares(lambda: _timed(suite_adjunction_mon))
    return rep, elapsed, squares


@pytest.fixture(scope="module")
def nonschreier_search():
    t0 = time.monotonic()
    res = search_counterexamples("NonSchreier", SearchBounds(variety="mon"))
    return res, time.monotonic() - t0


def test_01_schreier_points_are_strong_across_the_catalog(protomodularity):
    rep, elapsed = protomodularity
    by = _require(rep, "schreier-implies-strong[mon]",
                  "schreier-implies-strong[srng]")
    for name in by:
        assert _count(by[name].detail, "schreier") > 0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_02_schreier_class_closed_under_pullback_and_fibre_product(protomodularity):
    rep, _ = protomodularity
    by = _require(rep, "pullback-stability[mon]", "pullback-stability[srng]",
                  "fibre-product-stability[mon]",
                  "fibre-product-stability[srng]")
    assert _count(by["pullback-stability[mon]"].detail, "pullbacks") > 0
    assert _count(by["fibre-product-stability[mon]"].detail,
                  "fibre products") > 0


def test_03_split_short_five_lemma_and_the_diagonal_witness(nonschreier_search):
    rep = suite_ssfl(CAT)
    _require(rep, "ssfl[mon]", "ssfl[srng]")

    res, elapsed = nonschreier_search
    assert elapsed < 10.0, f"search took {elapsed:.1f}s"
    assert res.completed and res.witnesses
    diag = point_to_dict(CAT.points["diag_b2"])
    assert any(w["payload"]["point"] == diag for w in res.witnesses)


def test_04_actions_and_split_epis_are_interchangeable():
    rep, squares = _cold_squares(lambda: suite_roundtrip(CAT))
    _require(rep, "action-roundtrip[mon]", "action-roundtrip[srng]",
             "point-roundtrip[mon]", "point-roundtrip[srng]",
             "homset-cardinalities[mon]", "homset-cardinalities[srng]")
    _assert_nothing_evicted(squares)


def test_05_cofree_monoid_action_is_right_adjoint(adjunction_mon):
    rep, elapsed, squares = adjunction_mon
    by = _require(rep, "cofree-adjunction[mon]")
    assert _count(by["cofree-adjunction[mon]"].detail, "triples") > 0
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
    _assert_nothing_evicted(squares)


def test_06_surjective_cofree_agrees_and_ignores_the_section(adjunction_mon):
    rep, _, _ = adjunction_mon
    _require(rep, "surjective-cofree[mon]")


def test_07_semiring_invariants_give_the_right_adjoint():
    rep, squares = _cold_squares(lambda: suite_adjunction_srng(CAT))
    _require(rep, "invariants-adjunction[srng]")
    _assert_nothing_evicted(squares)


def test_08_split_epis_over_the_two_element_ring_are_schreier():
    rep = suite_ring_base(CAT)
    _require(rep, "ring-base-schreier[z2_ring]",
             "ring-base-precondition[bool_rig]",
             "non-schreier-over-bool_rig")


def test_09_kernel_coherence_and_decomposition_certificates():
    rep = suite_coherence(CAT)
    _require(rep, "catalog-instances[mon]", "catalog-instances[srng]",
             "kernel-coherence[mon]", "kernel-coherence[srng]",
             "fibre-jse-agreement[mon]", "fibre-jse-agreement[srng]",
             "coherence-along[mon]", "coherence-along[srng]",
             "decompose-product[srng]", "decompose-words[srng]")


def test_10_witnesses_replay_and_reports_are_deterministic(nonschreier_search):
    searches = [nonschreier_search[0],
                search_counterexamples("NonSchreier",
                                       SearchBounds(variety="srng")),
                search_counterexamples("SSFLFailureOffClass",
                                       SearchBounds(variety="mon",
                                                    max_size=3))]
    replayed = 0
    for res in searches:
        for w in res.witnesses:
            assert replay_witness(w) == w["verdict"]
            replayed += 1
    assert replayed > 0

    first = suite_ssfl(CAT).to_dict()
    second = suite_ssfl(CAT).to_dict()
    assert reports_equal_modulo_timestamp(first, second)
