"""fsing: certify log canonical / klt singularities of Q-defined rings via
Frobenius splitting at a single prime, and compute test ideals by explicit
Frobenius sums."""

__version__ = "0.1.0"

from .polycore import (
    CoefficientDomain,
    GREVLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    RATIONALS,
    parse_polynomial,
    poly_arith,
    poly_power,
    prime_field,
)
from .groebner import (
    Budget,
    BudgetExceededError,
    Ideal,
    colon_ideal,
    groebner_basis,
    ideal_membership,
    ideal_ops,
    intersection,
)
from .triples import (
    DivisorData,
    RingPresentation,
    TripleSpec,
    divisor,
    polynomial_ring,
    quotient_ring,
)
from .frobenius import (
    FrobeniusPower,
    bracket_power,
    frobenius_root,
)
from .fcriteria import (
    fpt_lower_bound,
    nu_value,
    sharply_fpure,
    splitting_oracle,
    strongly_fregular,
    suggest_test_elements,
)
from .testideals import (
    PLinearMap,
    RelativeSetup,
    TauResult,
    base_change_check,
    fiber_compare,
    relative_pair_setup,
    stabilization_scan,
    sum_decomposition_check,
    tau_absolute,
    tau_pair_divisor,
    tau_relative,
)
from .arithmodels import (
    ArithmeticModel,
    geometric_sfr_check,
    reduce_mod_p,
    spread_out,
    suggest_primes,
)
from .certify import (
    Certificate,
    JobSpec,
    certify_klt,
    certify_log_canonical,
    run_corpus,
    verify_deformation_sfr,
)
