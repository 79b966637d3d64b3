"""The package's public surface, pinned: a name that joins or leaves it must
be added to or removed from this list in the same change."""

import types

import fsing

PUBLIC_NAMES = [
    "ArithmeticModel", "Budget", "BudgetExceededError", "Certificate",
    "CoefficientDomain", "DivisorData", "FrobeniusPower", "GREVLEX", "Ideal",
    "JobSpec", "LEX", "MonomialOrder", "PLinearMap", "ParseError",
    "Polynomial", "RATIONALS", "RelativeSetup", "RingPresentation",
    "TauResult", "TripleSpec", "base_change_check", "bracket_power",
    "certify_klt", "certify_log_canonical", "colon_ideal", "divisor",
    "fiber_compare", "fpt_lower_bound", "frobenius_root",
    "geometric_sfr_check", "intersection", "nu_value", "parse_polynomial",
    "polynomial_ring", "prime_field", "quotient_ring", "reduce_mod_p",
    "relative_pair_setup", "run_corpus", "sharply_fpure", "splitting_oracle",
    "spread_out", "stabilization_scan", "strongly_fregular", "suggest_primes",
    "suggest_test_elements", "sum_decomposition_check", "tau_absolute",
    "tau_pair_divisor", "tau_relative", "verify_deformation_sfr",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(fsing).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
