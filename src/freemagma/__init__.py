"""Exact-arithmetic toolkit for the free magma on one generator: term
enumeration, subgroupoid counting sequences, and density estimation.

The public names below are imported from their submodules on first use
(PEP 562), so ``import freemagma`` and a command-line run load only the
modules they need.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "density": (
        "DensityEstimate",
        "LongitudinalAsymptote",
        "NullDensityVerdict",
        "aitken",
        "density_algebra_checks",
        "density_report",
        "estimate_density",
        "fg_null_density_test",
        "growth",
        "longitudinal_asymptote",
        "longitudinal_convergence_check",
        "ratio_trace",
    ),
    "errors": (
        "CapacityError",
        "ExactDivisionError",
        "FreeMagmaError",
        "TermParseError",
        "UnsupportedVariantError",
    ),
    "motzkin_paths": ("PathSpec", "count_paths", "crosscheck_subgroupoid", "enumerate_paths"),
    "reporting": ("CheckReport",),
    "sequences": (
        "BigSeq",
        "cat_transform",
        "cat_transform_signed",
        "catalan_bounds_check",
        "catalan_c",
        "catalan_motzkin_identities",
        "catalan_numbers",
        "motzkin",
        "motzkin_numbers",
        "multinomial_count",
        "read_sequence_csv",
        "series_identity_check",
        "sqrt_series_counting",
        "write_sequence_csv",
    ),
    "subgroupoids": (
        "ExplicitSeq",
        "FiniteSet",
        "GenFamily",
        "Longitudinal",
        "NumericalSemigroupInfo",
        "ShiftedFull",
        "brute_count",
        "closure_up_to",
        "contains",
        "counting_sequence",
        "counting_texts",
        "family_levels",
        "format_family",
        "generator_counting_sequence",
        "longitudinal_counting",
        "minimal_generating_up_to",
        "minimal_generators",
        "parse_family",
        "rank_lambda",
        "semigroup_info",
    ),
    "terms": (
        "Term",
        "decode",
        "encode",
        "enumerate_terms",
        "format_term",
        "iter_level_texts",
        "iter_terms_up_to",
        "leaf",
        "left_comb",
        "length",
        "parse_term",
        "product",
        "right_comb",
        "sum_terms",
    ),
    "verify": ("verify_all",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # Not cached here: the submodule's attribute is read on every access, so
    # a patch of the submodule shows through the package namespace too.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
