"""Alpha-continued fractions, by-excess expansions and Brjuno-type sums."""

from .alpha import (AlphaDigit, AlphaExpansion, alpha_bar, alpha_expand,
                    alpha_reduce, alpha_step, beta_check, decay_check,
                    reconstruction_check, rho_alpha)
from .brjuno import (BoundReport, BrjunoResult, ConditionViolation,
                     SingularityU, b0_even, brjuno_sum, diff_report,
                     figure_rows, functional_residual, log_denominator_sum,
                     make_u, q_series, semi_brjuno)
from .byexcess import (MalformedStream, MinusExpansion, complement_regular,
                       minus_expand, minus_step, minus_to_regular,
                       regular_to_minus)
from .exact import (AdaptiveReal, DomainError, ExactnessUnavailable,
                    Fraction, InvalidRadicand, NeedsPrecision, NotASurd,
                    Surd, compare, floor_shift, is_exact, parse_real,
                    precision, recip, sign_val, to_float)
from .holder import HolderEstimate, InsufficientScales, estimate_holder

__version__ = "0.1.0"

__all__ = [
    "AdaptiveReal", "AlphaDigit", "AlphaExpansion", "BoundReport",
    "BrjunoResult", "ConditionViolation", "DomainError",
    "ExactnessUnavailable", "HolderEstimate", "InsufficientScales",
    "InvalidRadicand", "MalformedStream", "MinusExpansion", "NeedsPrecision",
    "NotASurd", "SingularityU", "Surd", "alpha_bar", "alpha_expand",
    "alpha_reduce", "alpha_step", "b0_even", "beta_check", "brjuno_sum",
    "compare", "complement_regular", "decay_check", "diff_report",
    "estimate_holder", "figure_rows", "floor_shift", "functional_residual",
    "is_exact", "log_denominator_sum", "make_u", "minus_expand",
    "minus_step", "minus_to_regular", "parse_real", "precision", "q_series",
    "recip", "reconstruction_check", "regular_to_minus", "rho_alpha",
    "semi_brjuno", "sign_val",
]
