"""Central extensions of finite groups from 2-cocycles: construction,
second cohomology with abelian coefficients, and certificate-producing
isomorphism criteria."""

from .catalog import (alternating_group, catalog_names, get_group,
                      identify_group, special_linear_2_5)
from .cocycles import (Cocycle2, CocycleSpace, apply_coboundary,
                       are_cohomologous, cocycle_inv, cocycle_mul,
                       compute_cocycle_space, coboundary_from, is_cocycle,
                       is_symmetric, make_cocycle, pullback, pushforward,
                       sim_is_trivial, trivial_cocycle)
from .errors import (ConditionsFailed, DimensionMismatch,
                     GroupMismatch, GroupValidationError,
                     HypothesisNotVerified, NonAbelianUnsupported,
                     NotAbelian, NotG1Iso, NotG2Iso, NotLowerIso,
                     NotNormalized, PreconditionViolated,
                     SizeLimitExceeded)
from .extensions import (ExtensionGroup, HomConditionReport, HomMatrix,
                         build_extension, central_quotient_data,
                         check_hom_conditions, decompose_hom,
                         equivalence_isomorphism, hom_condition_failures,
                         is_abelian_extension,
                         is_homomorphism_direct, preserves_kernel_setwise,
                         preserves_section_setwise, reconstruct_hom)
from .groups import (DEFAULT_LIMITS, FiniteGroup, GroupMap, SearchLimits,
                     brute_force_isomorphism, center, cyclic_group,
                     direct_product, enumerate_automorphisms,
                     enumerate_homs, enumerate_isomorphisms,
                     is_purely_nonabelian, is_simple, validate_group)
from .isotest import (CERTIFICATE_KINDS, IsoCertificate,
                      build_purely_nonabelian_iso, g1_isomorphic_necessary,
                      g1g2_isomorphic, g2_isomorphic_equal_order,
                      g2_isomorphic_necessary, lower_b2trivial,
                      lower_isomorphic, lower_necessary, lower_sufficient,
                      lower_to_direct, oracle_iso_survey,
                      simple_quotient_check, upper_isomorphic,
                      verify_theorems)

__version__ = "0.1.0"
