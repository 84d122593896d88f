"""Finite verification toolkit for Schreier split epimorphisms.

Pointed algebras with a binary + and constant 0 obeying 0+x = x+0 = x are
presented as tables; split epimorphisms, their kernels, actions, semidirect
products, relative right adjoints, and coherence conditions are all checked
by exhaustive computation at small scale.
"""

from .actions import (MonoidAction, SemiringAction, additive_reduct,
                      endomorphism_monoid, enumerate_monoid_actions,
                      enumerate_semiring_actions, equivariant_homs,
                      point_to_action, require_valid_action, restrict_action,
                      roundtrip_point_iso, semidirect, semidirect_point,
                      semidirect_srng, validate_action)
from .adjoints import (AdjunctionReport, CofreeTable, InvariantSub,
                       SurjectiveCofree, all_sections, cofree_mon,
                       cofree_mon_surjective, counit_mon, invariants_srng,
                       mediate_mon, pointed_sections, restrict_invariant_map,
                       verify_adjunction_srng, verify_restriction_functor)
from .algebra import (Hom, Kind, LawReport, Product, Pullback, Subset,
                      TabularAlgebra, algebras_isomorphic, check_hom,
                      compose, enumerate_homs, find_isomorphism,
                      generated_subalgebra, generating_set, hom_candidate_count,
                      identity_hom, is_hom, make_algebra, product, pullback,
                      require_valid, subset, validate_algebra)
from .catalog import (Catalog, build_catalog, coherence_instances,
                      export_catalog, load_catalog_dir, lookup)
from .coherence import (CoherenceInstance, Decomposition, JseCheck,
                        RingBaseReport, check_coherence_along,
                        check_kernel_coherence, check_ring_base_schreier,
                        decompose_kernel_word, evaluate_tree,
                        is_additive_group, jointly_strongly_epi,
                        jse_in_fibre)
from .errors import (ComputationError, GuardExceeded, InvalidAction,
                     NotSchreier, SignatureMismatch, StructuralError,
                     ToolkitError)
from .points import (Point, PointMorphism, SchreierStatus, SchreierWitness,
                     check_schreier, enumerate_fibre_morphisms,
                     enumerate_split_epis, fibre_maps, fibre_morphism,
                     fibre_product_point, identity_point, is_strong_point,
                     kernel_algebra, points_isomorphic, product_point,
                     pullback_point, schreier_retraction, ssfl_facts)
from .reporting import Report, reports_equal_modulo_timestamp
from .search import (GOALS, SearchBounds, SearchResult, replay_witness,
                     result_to_dict, search_counterexamples)
from .serialize import (dumps_canonical, from_dict, load, load_action,
                        load_algebra, load_hom, load_point, save, to_dict)
from .suites import (suite_adjunction_mon, suite_adjunction_srng,
                     suite_coherence, suite_protomodularity, suite_ring_base,
                     suite_roundtrip, suite_ssfl)

__version__ = "0.1.0"
