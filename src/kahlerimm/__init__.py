"""Exact truncated-series decisions for local Kahler immersions into
complex space forms: resolvability certificates, explicit maps, model
catalog, Wallach-set decisions and obstruction scans.

Every public function is one the ``kahlerimm`` command line reaches,
save a few that ``tests/test_imports.py`` names with their reasons.
"""

from .scalars import CScalar, as_fraction, format_fraction
from .series import BiSeries, GradedOrder, HolSeries, det_series, \
    exp_series, index_of_ordinal, log1p_series, ordinal_of_index, \
    pow1p_series, solve_graded_fixed_point
from .radial import RSeries
from .diastasis import BochnerReport, b_transform, check_bochner_form, \
    normalize_to_diastasis
from .resolvability import CertifiedNotResolvable, HartogsWitness, \
    HermMatrix, MatrixWitness, NotPsd, Psd, ResolvableUpTo, build_matrix, \
    hartogs_criterion, psd_certify, resolvability
from .immersion import Component, ImmersionMap, NotResolvableError, Target, \
    factor_immersion, verify_immersion
from .models import MODELS, build_model, hartogs_profile
from .symmetric import DomainInvariants, Membership, \
    bergman_scaling_decision, cartan_hartogs_failure, classical_invariants, \
    wallach_membership
from .bell import CigarLimit, CigarScan, bell_complete, bell_partial, \
    cigar_limit, cigar_scan
from .einstein import EinsteinResult, NotEinstein, einstein_estimate, \
    hessian_det

__version__ = "0.1.0"
