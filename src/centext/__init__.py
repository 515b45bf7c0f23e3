"""Central extensions of finite groups from 2-cocycles: construction,
second cohomology with abelian coefficients, and certificate-producing
isomorphism criteria."""

from .catalog import (alternating_group, catalog_names, get_group,
                      identify_group, projective_special_linear_2_7,
                      special_linear_2_5)
from .cocycles import (Cocycle2, CocycleSpace, apply_coboundary,
                       are_cohomologous, cocycle_inv, cocycle_mul,
                       compute_cocycle_space, coboundary_from, is_cocycle,
                       make_cocycle, pullback, pushforward, sim_is_trivial,
                       trivial_cocycle)
from .errors import (ConditionsFailed, DimensionMismatch,
                     GroupMismatch, GroupValidationError,
                     HypothesisNotVerified, InternalInconsistency,
                     NotAbelian, NotG1Iso,
                     NotG2Iso, NotLowerIso, NotNormalized,
                     PreconditionViolated, SizeLimitExceeded)
from .extensions import (TRIVIAL_COMPONENTS, ExtensionGroup, HomMatrix,
                         build_extension, central_quotient_data,
                         decompose_hom, equivalence_isomorphism,
                         hom_condition_failures, is_homomorphism_direct,
                         reconstruct_hom)
from .groups import (DEFAULT_LIMITS, FiniteGroup, GroupMap, SearchLimits,
                     brute_force_isomorphism, center, cyclic_group,
                     direct_product, enumerate_automorphisms,
                     enumerate_homs, enumerate_isomorphisms,
                     is_purely_nonabelian, is_simple, validate_group)
from .isotest import (CERTIFICATE_KINDS, IsoCertificate, Verdict,
                      build_purely_nonabelian_iso, decide, g1g2_isomorphic,
                      g2_isomorphic_equal_order, lower_isomorphic,
                      lower_sufficient, necessary, oracle_iso_survey,
                      simple_quotient_check, upper_isomorphic,
                      verify_theorems)

__version__ = "0.1.0"
