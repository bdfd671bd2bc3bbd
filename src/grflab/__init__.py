"""grflab: a numerical laboratory for smooth Gaussian random fields.

Fields are finite Karhunen-Loeve expansions over closed-form basis
functions, so covariance kernels, their mixed derivatives, Whitney-style
sup seminorms, jet covariance matrices and Cameron-Martin support bases are
all computed exactly; Monte Carlo estimation with reproducible splittable
streams covers the probabilistic side.
"""

from .basis import (BUMP_MAX_DERIV_ORDER, BasisFunction, Box, Bump, Harmonic, IntegratedBump,
                    Monomial, Scaled, box, fd_check, grid_points, unit_interval)
from .counterexample import (CounterexampleConfig, a_n, build_X_n, build_Y_n,
                             exact_small_norm_prob, kernel_sup_decay)
from .exceptions import (DomainError, GrflabError, IllConditionedError,
                         OrderUnsupportedError, SchemaError)
from .field import (KLField, SamplePath, SupportBasisFunction, cm_inner,
                    eval_sample, kl_field, projection_residual, sample,
                    sample_seminorm, support_basis)
from .jet import (Jet, JetCovariance, NondegeneracyCertificate,
                  NondegeneracyScan, jet_covariance, jet_dimension, jet_eval,
                  nondegeneracy_certificate, scan_nondegeneracy)
from .kernel import (ClosedFormKernel, CovarianceKernel, KLKernel,
                     KernelSeminormSpec, check_psd, check_symmetry,
                     eval_kernel, eval_kernel_deriv, kernel_distance,
                     kernel_of, kernel_seminorm)
from .mc import (DegenerateZero, EventSpec, GaussianRatio, LimitStudyRow,
                 MCEstimate, PositiveOnBox, SupNormBelow, ZeroCountEquals,
                 empirical_sup_mean, estimate_probability, gaussian_ratio,
                 limit_study)
from .multiindex import count_multi_indices, graded_lex_key, multi_indices
from .rng import RandomStream, normal_cdf, normal_quantile
from .serialize import (basis_from_dict, basis_to_dict, box_from_dict,
                        box_to_dict, event_from_dict, event_to_dict,
                        field_digest, field_from_dict, field_to_dict,
                        kernel_from_dict, kernel_to_dict)

__version__ = "0.1.0"
