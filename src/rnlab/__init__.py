"""rnlab: exact machinery for bounding the p-free part of x^2 + D.

Modules:
    quadring    exact arithmetic in the ring of integers of Q(sqrt(-D))
    pade        Pade approximants to (1-z)^k, contents, the bound constants
    bounds      the paper's bound checks (loaded on first use)
    hensel      Tonelli-Shanks and Hensel lifting mod p^n
    dyadic      directed rounding to k bits, under every certified verdict
    rigor       certified comparisons on integer log and exp ends, and pi
    certifier   huge-solution certificates and the maximal sigma
    decomposer  gamma = beta^k mu decompositions and the chain audit
    survey      the per-exponent m > x^sigma survey with checkpointing
    cli         command-line entry points
"""

import sys as _sys

# reports and resume blobs serialize integers with tens of thousands of
# digits; lift CPython's int<->str conversion guard
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(0)

from .certifier import (HugeSolutionCertificate, MaxSigmaResult, certify,
                        max_sigma, rigorous_compare, thresholds)
from .decomposer import Decomposition, audit_theorem1_chain, decompose
from .hensel import LiftState, lift_step_odd, lift_two, roots_mod_pn, sqrt_mod_p
from .pade import (BoundConstants, IntPolynomial, PadeSystem, binom,
                   build_diagonal, build_general, content, cross_constant,
                   eval_at_z0, normalize)
from .quadring import QuadInt
from .survey import (SurveyRecord, SurveyReport, checkpoint, power_compare,
                     restore, run_survey)

__version__ = "0.1.0"

__all__ = [
    "BoundConstants", "Decomposition", "HugeSolutionCertificate",
    "IntPolynomial", "LiftState", "MaxSigmaResult", "PadeSystem", "QuadInt",
    "SurveyRecord", "SurveyReport", "audit_theorem1_chain", "binom",
    "build_diagonal", "build_general", "certify", "check_e_bound",
    "check_q_bound", "checkpoint", "content", "cross_constant", "decompose",
    "eval_at_z0", "factorial_ratio_bounds", "kernel_extrema", "lift_step_odd",
    "lift_two", "max_sigma", "normalize", "power_compare", "restore",
    "rigorous_compare", "roots_mod_pn", "run_survey", "sqrt_mod_p",
    "thresholds",
]

# No subcommand calls the bound checks, so rnlab.cli does not import
# rnlab.bounds; these names load it on first access (PEP 562).  The hook
# caches nothing in this module's namespace.
_LAZY = frozenset({"check_e_bound", "check_q_bound", "factorial_ratio_bounds",
                   "kernel_extrema"})


def __getattr__(name):
    if name in _LAZY:
        from . import bounds
        return getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # the eager and lazy names alike, without the hook's own machinery
    return sorted((globals().keys() | _LAZY)
                  - {"_LAZY", "__getattr__", "__dir__"})
