"""Frobenius freeness and Gorensteinness checkers over F_p quotient rings."""

from .algebra_kernel import (GroebnerBasis, INFINITE, Polynomial, RingModel,
                             buchberger, krull_dimension, normal_form)
from .budget import Budget, DEFAULT_BUDGET
from .criteria import (CriterionReport, RigidityVerdict, check_cor_codim1,
                       check_cor_free, check_gorenstein, check_thm_kl,
                       check_thm_main1, pd_is_finite, rigidity_scan)
from .errors import (ArgumentError, BudgetExceededError, FrobcheckError,
                     InternalConsistencyError, ModelError, PreconditionError)
from .frobenius import (PushforwardModule, frobenius_complex,
                        frobenius_module, kappa_for_sop, kappa_upper_bound,
                        pushforward_presentation, pushforward_tor,
                        tor_frobenius)
from .invariants import (EulerCharacteristic, canonical_module,
                         cm_type_and_gorenstein, depth_of_module,
                         depth_of_ring, dimension_of_module,
                         euler_characteristic, is_cohen_macaulay, is_mcm,
                         is_regular_sequence, is_sop, quotient_by_sequence,
                         rank_of_module, residue_field, ring_as_module)
from .module_engine import (FreeComplex, PresentedModule, ext,
                            koszul_complex, min_generators,
                            minimal_free_resolution, minimalize,
                            module_groebner, module_length, tor)

__version__ = "0.1.0"
