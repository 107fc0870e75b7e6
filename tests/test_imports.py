"""Import footprint: the package namespace resolves its public names on first
use, and a command-line run loads only the modules its subcommand runs.

The footprint tests run the CLI in a fresh interpreter, because this test
process has already imported every module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freemagma

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's public names, kept here independently of its export table.
EXPORTS = [
    "DensityEstimate", "LongitudinalAsymptote", "NullDensityVerdict", "aitken",
    "density_algebra_checks", "density_report", "estimate_density",
    "fg_null_density_test", "growth", "longitudinal_asymptote",
    "longitudinal_convergence_check", "ratio_trace",
    "CapacityError", "ExactDivisionError", "FreeMagmaError", "TermParseError",
    "UnsupportedVariantError",
    "PathSpec", "count_paths", "crosscheck_subgroupoid", "enumerate_paths",
    "CheckReport",
    "BigSeq", "cat_transform", "cat_transform_signed", "catalan_bounds_check",
    "catalan_c", "catalan_motzkin_identities", "catalan_numbers", "motzkin",
    "motzkin_numbers", "multinomial_count", "read_sequence_csv",
    "series_identity_check", "sqrt_series_counting", "write_sequence_csv",
    "ExplicitSeq", "FiniteSet", "GenFamily", "Longitudinal", "NumericalSemigroupInfo",
    "ShiftedFull", "brute_count", "closure_up_to", "contains", "counting_sequence",
    "counting_texts", "family_levels", "format_family", "generator_counting_sequence",
    "longitudinal_counting", "minimal_generating_up_to", "minimal_generators",
    "parse_family", "rank_lambda", "semigroup_info",
    "Term", "decode", "encode", "enumerate_terms", "format_term", "iter_level_texts",
    "iter_terms_up_to", "leaf", "left_comb", "length", "parse_term", "product",
    "right_comb", "sum_terms",
    "verify_all",
]


# Only dataclasses loads these; a record type costs every run about 10 ms.
RECORD_MACHINERY = {"dataclasses", "inspect"}


def loaded_modules(*argv: str) -> set[str]:
    """The modules that ``python -m freemagma.cli ARGV`` imports, read from
    ``-X importtime``, which logs every import on stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "freemagma.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def ours(names: set[str]) -> set[str]:
    return {name for name in names if name.split(".")[0] == "freemagma"}


def test_version_loads_only_errors():
    assert ours(loaded_modules("--version")) <= {"freemagma", "freemagma.cli", "freemagma.errors"}


def test_density_loads_neither_verify_nor_motzkin_paths():
    loaded = loaded_modules("density", "--n", "shifted:1", "--m", "full", "--nmax", "50")
    assert "freemagma.density" in loaded
    assert loaded.isdisjoint({"freemagma.verify", "freemagma.motzkin_paths", *RECORD_MACHINERY})


def test_count_loads_no_density():
    loaded = loaded_modules("count", "--family", "shifted:1", "--n", "10")
    assert "freemagma.subgroupoids" in loaded
    assert loaded.isdisjoint(
        {"freemagma.density", "freemagma.verify", "freemagma.motzkin_paths", *RECORD_MACHINERY}
    )


def test_count_and_density_load_no_heapq():
    # Nothing these commands run merges sorted streams, so neither pays
    # for importing heapq.
    for argv in (
        ("count", "--family", "shifted:1", "--n", "10"),
        ("density", "--n", "shifted:1", "--m", "full", "--nmax", "50"),
    ):
        assert "heapq" not in loaded_modules(*argv), argv


def test_motzkin_loads_neither_subgroupoids_nor_terms():
    loaded = loaded_modules("motzkin", "--length", "6", "--forbid", "FU,FF")
    assert "freemagma.motzkin_paths" in loaded
    assert loaded.isdisjoint({"freemagma.subgroupoids", "freemagma.terms", *RECORD_MACHINERY})


def test_exports_unchanged():
    assert freemagma.__all__ == EXPORTS


def test_exports_are_their_submodules_attributes():
    for name in freemagma.__all__:
        module = importlib.import_module(f"freemagma.{freemagma._MODULE_OF[name]}")
        assert getattr(freemagma, name) is getattr(module, name), name
        assert name in dir(freemagma), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        freemagma.no_such_name  # noqa: B018
    assert not hasattr(freemagma, "_grow_texts")
