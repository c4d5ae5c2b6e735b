"""factratio: exact verification of factorial-ratio divisibility claims,
floor-function identities, and q-binomial positivity at desk scale.

Everything is integer or rational arithmetic; there is no floating point
in any verification path.
"""

from .divisibility import (
    DivisibilityClaim,
    central_product_value,
    central_valuation_verdict,
    check_divisibility,
    check_product,
    check_two_binomial_conjecture,
    check_valuation_bounds,
    eval_ratio,
    product_forms,
    sun_s,
    sun_t,
    valuation_case_orders,
)
from .errors import (
    InternalCheckError,
    NotPolynomialError,
    PreconditionError,
    UsageError,
)
from .floors import (
    CongruenceIdentity,
    check_by_fractional_parts,
    check_congruence_identity,
    check_identity_at,
    landau_min,
    landau_witnesses,
)
from .forms import BalancedRatio, LinearForm, form
from .qpoly import (
    DensePoly,
    cyclotomic,
    is_nonnegative,
    is_reciprocal,
    is_unimodal,
    q_catalan,
    qbinomial,
    rsw_filter,
)
from .qratio import (
    CycloExponentVector,
    exponent_vector,
    expand,
    expand_many,
    naive_expand,
)
from .registry import ClaimRecord, get_claim, list_claims
from .reports import RunReport, emit_report
from .runner import run_claim
from .valuation import (
    PadicProfile,
    binary_digit_sum,
    digit_sum,
    factorize,
    is_prime,
    legendre_ord,
    padic_profile,
    primes_up_to,
    ratio_ord,
    ratio_ord2_run,
)

__version__ = "0.1.0"
