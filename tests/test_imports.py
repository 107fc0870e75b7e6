"""Import footprint: the package namespace resolves its public names on first
use, and a command-line run loads only the modules its subcommand runs.

The footprint tests run the CLI in a fresh interpreter, because this test
process has already imported every module."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freemagma

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_CHILD = SRC.parent / "bench" / "child.py"

# The package's public names, kept here independently of its export table.
EXPORTS = [
    "NullDensityVerdict", "cat_transform_signed", "catalan_bounds_check", "catalan_c",
    "catalan_motzkin_identities", "crosscheck_subgroupoid", "density_algebra_checks",
    "fg_null_density_test", "longitudinal_convergence_check", "motzkin_numbers",
    "multinomial_count", "series_identity_check",
    "DensityEstimate", "LongitudinalAsymptote", "aitken", "density_report",
    "estimate_density", "growth", "longitudinal_asymptote", "ratio_trace",
    "CapacityError", "ExactDivisionError", "FreeMagmaError", "TermParseError",
    "UnsupportedVariantError",
    "PathSpec", "count_paths", "enumerate_paths",
    "CheckReport",
    "BigSeq", "cat_transform", "catalan_numbers", "read_sequence_csv", "write_sequence_csv",
    "ExplicitSeq", "FiniteSet", "GenFamily", "Longitudinal", "NumericalSemigroupInfo",
    "ShiftedFull", "brute_count", "closure_up_to", "contains", "counting_sequence",
    "counting_texts", "family_levels", "format_family", "generator_counting_sequence",
    "longitudinal_counting", "minimal_generating_up_to", "minimal_generators",
    "parse_family", "rank_lambda", "semigroup_info",
    "Term", "enumerate_terms", "format_term", "iter_level_texts", "iter_terms_up_to",
    "leaf", "left_comb", "parse_term", "product", "right_comb", "sum_terms",
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
    assert loaded.isdisjoint(
        {
            "freemagma.verify",
            "freemagma.checks",
            "freemagma.motzkin_paths",
            "freemagma.listing",
            *RECORD_MACHINERY,
        }
    )


def test_count_loads_no_density():
    # Nor does it load fractions, which only the code that makes a
    # Fraction imports; transform loads none of these either.
    unused = {
        "freemagma.density",
        "freemagma.verify",
        "freemagma.checks",
        "freemagma.motzkin_paths",
        "freemagma.listing",
        "fractions",
        *RECORD_MACHINERY,
    }
    loaded = loaded_modules("count", "--family", "shifted:1", "--n", "10")
    assert "freemagma.subgroupoids" in loaded
    assert loaded.isdisjoint(unused)
    assert loaded_modules("transform", "--values", "1,1", "--n", "5").isdisjoint(unused)


def test_count_and_density_load_no_heapq():
    # Nothing these commands run merges sorted streams, so neither pays
    # for importing heapq.
    for argv in (
        ("count", "--family", "shifted:1", "--n", "10"),
        ("density", "--n", "shifted:1", "--m", "full", "--nmax", "50"),
    ):
        assert "heapq" not in loaded_modules(*argv), argv


def test_only_a_csv_reader_loads_csv(tmp_path):
    # The csv module adds about 0.11 MB to a run's peak RSS, and only
    # read_sequence_csv (transform --seqfile) parses CSV.
    for argv in (
        ("count", "--family", "shifted:1", "--n", "10"),
        ("enumerate", "--n", "3"),
        ("motzkin", "--length", "6"),
        ("longitudinal", "--lengths", "2,3", "--nmax", "10"),
    ):
        assert "csv" not in loaded_modules(*argv), argv
    seqfile = tmp_path / "gens.csv"
    seqfile.write_text("n,value\n1,0\n2,1\n")
    assert "csv" in loaded_modules("transform", "--seqfile", str(seqfile))


def test_only_enumerate_loads_the_listing():
    # The block listing is compiled only by the runs that list terms.
    assert "freemagma.listing" in loaded_modules("enumerate", "--n", "3")
    assert "freemagma.listing" not in loaded_modules(
        "longitudinal", "--lengths", "2,3", "--nmax", "10"
    )


def test_enumerate_loads_terms_only_for_csv():
    # Plain and JSON output join the listing's blocks; only CSV numbers
    # one text at a time through terms.iter_level_texts.
    for fmt in ("plain", "json"):
        loaded = loaded_modules("enumerate", "--n", "5", "--format", fmt)
        assert "freemagma.listing" in loaded
        assert "freemagma.terms" not in loaded, fmt
    assert "freemagma.terms" in loaded_modules("enumerate", "--n", "5", "--format", "csv")


def test_motzkin_loads_neither_subgroupoids_nor_terms():
    loaded = loaded_modules("motzkin", "--length", "6", "--forbid", "FU,FF")
    assert "freemagma.motzkin_paths" in loaded
    assert loaded.isdisjoint(
        {"freemagma.subgroupoids", "freemagma.terms", "freemagma.checks", *RECORD_MACHINERY}
    )


def test_only_verify_loads_the_checks(tmp_path):
    # The verification code is compiled only by the run that verifies; the
    # count, density and motzkin runs are checked with their footprints.
    seqfile = tmp_path / "gens.csv"
    seqfile.write_text("n,value\n1,0\n2,1\n3,1\n")
    for argv in (
        ("transform", "--seqfile", str(seqfile), "--n", "10"),
        ("longitudinal", "--lengths", "2,3", "--nmax", "10"),
    ):
        assert "freemagma.checks" not in loaded_modules(*argv), argv
    assert "freemagma.checks" in loaded_modules("verify", "--scope", "fast")


def test_moved_names_are_read_from_checks():
    # Each forwarder serves exactly the names that the benchmark's TRACED
    # reads from its module and that live in checks, and no other.
    from freemagma import checks, density, motzkin_paths, sequences

    spec = importlib.util.spec_from_file_location("bench_child", BENCH_CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for module in (sequences, density, motzkin_paths):
        layer = module.__name__.rsplit(".", 1)[1]
        served = {name for name in child.TRACED[layer] if name in vars(checks)} - set(vars(module))
        for name in served:
            assert getattr(module, name) is getattr(checks, name), name
        for name in set(vars(checks)) - set(vars(module)) - served:
            with pytest.raises(AttributeError, match=name):
                getattr(module, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="PI_LOWER"):
        sequences.PI_LOWER  # noqa: B018


def test_exports_unchanged():
    assert freemagma.__all__ == EXPORTS


def test_exports_resolve_from_their_defining_module():
    for name in freemagma.__all__:
        if name == "GenFamily":  # a typing.Union, which keeps no __module__ of its own
            continue
        assert getattr(freemagma, name).__module__ == f"freemagma.{freemagma._MODULE_OF[name]}", name


def test_exports_are_their_submodules_attributes():
    for name in freemagma.__all__:
        module = importlib.import_module(f"freemagma.{freemagma._MODULE_OF[name]}")
        assert getattr(freemagma, name) is getattr(module, name), name
        assert name in dir(freemagma), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        freemagma.no_such_name  # noqa: B018
    assert not hasattr(freemagma, "_closure_texts")
