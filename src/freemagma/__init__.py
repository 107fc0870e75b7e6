"""Exact-arithmetic toolkit for the free magma on one generator: term
enumeration, subgroupoid counting sequences, and density estimation."""

from .density import (
    DensityEstimate,
    LongitudinalAsymptote,
    NullDensityVerdict,
    aitken,
    density_algebra_checks,
    density_report,
    estimate_density,
    fg_null_density_test,
    growth,
    longitudinal_asymptote,
    longitudinal_convergence_check,
    ratio_trace,
)
from .errors import (
    CapacityError,
    ExactDivisionError,
    FreeMagmaError,
    TermParseError,
    UnsupportedVariantError,
)
from .motzkin_paths import PathSpec, count_paths, crosscheck_subgroupoid, enumerate_paths
from .reporting import CheckReport
from .sequences import (
    BigSeq,
    cat_transform,
    cat_transform_signed,
    catalan_bounds_check,
    catalan_c,
    catalan_motzkin_identities,
    catalan_numbers,
    motzkin,
    motzkin_numbers,
    multinomial_count,
    read_sequence_csv,
    series_identity_check,
    sqrt_series_counting,
    write_sequence_csv,
)
from .subgroupoids import (
    ExplicitSeq,
    FiniteSet,
    GenFamily,
    Longitudinal,
    NumericalSemigroupInfo,
    ShiftedFull,
    brute_count,
    closure_up_to,
    contains,
    counting_sequence,
    counting_texts,
    family_levels,
    format_family,
    generator_counting_sequence,
    longitudinal_counting,
    minimal_generating_up_to,
    minimal_generators,
    parse_family,
    rank_lambda,
    semigroup_info,
)
from .terms import (
    Term,
    decode,
    encode,
    enumerate_terms,
    format_term,
    iter_level_texts,
    iter_terms_up_to,
    leaf,
    left_comb,
    length,
    parse_term,
    product,
    right_comb,
    sum_terms,
)
from .verify import verify_all

__version__ = "0.1.0"
