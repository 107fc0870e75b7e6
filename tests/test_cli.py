"""Command-line interface: outputs, formats, exit codes, determinism."""

import hashlib
import json
import os
import stat
import sys
import threading

import pytest

from freemagma import (
    BigSeq,
    ExplicitSeq,
    cat_transform,
    catalan_c,
    catalan_numbers,
    cli,
    counting_sequence,
    counting_texts,
    enumerate_terms,
    errors,
    format_term,
    listing,
    longitudinal_counting,
    parse_family,
    sequences,
    write_sequence_csv,
)
from freemagma.cli import main
from freemagma.errors import ExactDivisionError
from freemagma.sequences import unlimited_int_digits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["(1+(1+1))", "((1+1)+1)"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 5
        assert "((1+1)+(1+1))" in payload["terms"]

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_out_file_bytes_equal_stdout(self, capsys, tmp_path, fmt):
        out_file = tmp_path / "terms.txt"
        code, out, _ = run_cli(capsys, "enumerate", "--n", "6", "--format", fmt)
        assert code == 0
        code, _, _ = run_cli(
            capsys, "enumerate", "--n", "6", "--format", fmt, "--out", str(out_file)
        )
        assert code == 0
        data = out_file.read_bytes()
        assert data == out.encode()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")

    def test_cap_exceeded_is_usage_error(self, capsys, monkeypatch):
        self.refuse_to_build(monkeypatch)
        code, out, err = run_cli(capsys, "enumerate", "--n", "20")
        assert code == 2
        assert out == ""
        assert "estimated 3240.7 MiB, over the memory budget of 1024.0 MiB" in err

    @staticmethod
    def refuse_to_build(monkeypatch):
        def no_texts(*args):
            raise AssertionError("a text level was built over the budget")

        for builder in ("_orders", "_level_runs", "_texts"):
            monkeypatch.setattr(listing, builder, no_texts)

    def test_budget_refuses_20_before_building(self, capsys, monkeypatch):
        self.refuse_to_build(monkeypatch)
        code, _, err = run_cli(capsys, "enumerate", "--n", "20")
        assert code == 2
        assert "the listing of length 20 from levels 2..17 (48,760,366 terms)" in err

    def test_budget_admits_19(self, monkeypatch):
        # 19 is the longest length the default budget admits; its price is
        # read from the check, and nothing is listed.
        self.refuse_to_build(monkeypatch)
        checked = []
        real = listing.check_memory

        def spy(what, estimate):
            checked.append((what, f"{estimate / 2**20:.1f} MiB"))
            real(what, estimate)

        monkeypatch.setattr(listing, "check_memory", spy)
        listing._check_listing(19)
        what = "the listing of length 19 from levels 2..16 (13,402,696 terms)"
        assert checked == [(what, "840.3 MiB")]

    def test_small_budget_refuses_before_building(self, capsys, monkeypatch):
        self.refuse_to_build(monkeypatch)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
        code, out, err = run_cli(capsys, "enumerate", "--n", "12")
        assert code == 2
        assert out == ""
        assert "levels 2..9 (2,055 terms) would take an estimated 1.9 MiB" in err
        assert "memory budget of 1.0 MiB" in err

    @staticmethod
    def term_output(n, fmt):
        """The output as built from Term objects: enumerate_terms and format_term."""
        level = enumerate_terms(n)
        if fmt == "json":
            payload = {"length": n, "count": len(level), "terms": [format_term(t) for t in level]}
            text = json.dumps(payload, indent=2)
        elif fmt == "csv":
            rows = [f"{i},{format_term(t)}" for i, t in enumerate(level, start=1)]
            text = "\n".join(["index,term"] + rows)
        else:
            text = "\n".join(format_term(t) for t in level)
        return text + "\n"

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_streamed_bytes_equal_term_output(self, capsys, tmp_path, fmt):
        out_file = tmp_path / "terms.out"
        for n in range(1, 11):
            expected = self.term_output(n, fmt)
            code, out, _ = run_cli(capsys, "enumerate", "--n", str(n), "--format", fmt)
            assert code == 0
            assert out == expected, n
            code, _, _ = run_cli(
                capsys, "enumerate", "--n", str(n), "--format", fmt, "--out", str(out_file)
            )
            assert code == 0
            assert out_file.read_bytes() == expected.encode(), n

    # Digests of the stdout of enumerate --n 12: any change to the order or
    # the format of a listing shows here.
    PINNED_12 = {
        "plain": "81bd8e0993651dbb60aed3323e0a6ce851c93ea3176b422a806452eff71bcdb9",
        "csv": "2df6c094f0104021efd7f92cdddcf556c1ba229c50157e0d7a3b713800e4a4d7",
        "json": "17302900bcbf35477868a8d65774e39cfb9c3b28f6e4c521fbba7d4a0665aaea",
    }

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_length_12_bytes_pinned(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "12", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_12[fmt]

    # Digests of the stdout of enumerate --n 13, as the level DP that came
    # before the block listing printed it.
    PINNED_13 = {
        "plain": "0933a9b598eed3ef78a5530b343bb8058cb3ed7f2ec8cfea970b32f1b30541f5",
        "json": "f196367eb345bfb533c7503fbf27384bee0b9fdcb2cab44e2e9a1f32b7c26d02",
    }

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_length_13_bytes_pinned(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "13", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_13[fmt]


class TestStreamedJson:
    """count, longitudinal --nmax and enumerate stream their JSON; the bytes
    must be those of json.dumps(..., indent=2) on the same payload, which
    keeps the key order of the stream when loaded back."""

    @staticmethod
    def assert_dumps_bytes(out):
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        return payload

    @pytest.mark.parametrize("n", [1, 300])
    def test_count(self, capsys, n):
        for family in ("full", "shifted:(1+1)", "longitudinal:[2,3]", "seq:[0,\t1, 1]"):
            code, out, err = run_cli(
                capsys, "count", "--family", family, "--n", str(n), "--format", "json"
            )
            assert code == 0, err
            payload = self.assert_dumps_bytes(out)
            assert list(payload) == ["family", "n_max", "values"]
            assert payload["family"] == family
            expected = counting_sequence(parse_family(family), n)
            assert payload["values"] == {str(k): str(v) for k, v in enumerate(expected, 1)}

    def test_count_label_needing_escapes(self, capsys, tmp_path):
        seqfile = tmp_path / 'gen "é" \\.csv'
        write_sequence_csv(seqfile, BigSeq([0, 1, 1]))
        family = f"seqfile:{seqfile}"
        code, out, err = run_cli(
            capsys, "count", "--family", family, "--n", "5", "--format", "json"
        )
        assert code == 0, err
        assert '\\"\\u00e9\\" \\\\.csv' in out
        assert self.assert_dumps_bytes(out)["family"] == family

    @pytest.mark.parametrize("n", [1, 300])
    def test_longitudinal(self, capsys, n):
        code, out, err = run_cli(capsys, "longitudinal", "--lengths", "4,6", "--nmax", str(n))
        assert code == 0, err
        payload = self.assert_dumps_bytes(out)
        assert list(payload)[-1] == "counting"
        expected = longitudinal_counting({4, 6}, n)
        assert payload["counting"] == {str(k): str(v) for k, v in enumerate(expected, 1)}

    def test_transform_of_empty_and_short_files(self, capsys, tmp_path):
        for values in ([], [0, 1, 1]):
            seqfile = tmp_path / "seq.csv"
            write_sequence_csv(seqfile, BigSeq(values))
            code, out, err = run_cli(
                capsys, "transform", "--seqfile", str(seqfile), "--format", "json"
            )
            assert code == 0, err
            assert len(self.assert_dumps_bytes(out)["values"]) == len(values)

    @pytest.mark.parametrize("n", [1, 11])
    def test_enumerate(self, capsys, n):
        code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--format", "json")
        assert code == 0, err
        payload = self.assert_dumps_bytes(out)
        assert payload["terms"] == [t.text for t in enumerate_terms(n)]


class TestFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_outputs_follow_umask(self, capsys, tmp_path, umask):
        previous = os.umask(umask)
        try:
            runs = [
                ("count", "--family", "full", "--n", "5", "--out", str(tmp_path / "c.csv")),
                ("enumerate", "--n", "4", "--out", str(tmp_path / "e.txt")),
                (
                    "density", "--n", "shifted:1", "--m", "full", "--nmax", "50",
                    "--precision", "6", "--out", str(tmp_path / "d"),
                ),
            ]
            for argv in runs:
                assert run_cli(capsys, *argv)[0] == 0
        finally:
            os.umask(previous)
        written = [tmp_path / "c.csv", tmp_path / "e.txt"]
        written += [
            tmp_path / "d" / name
            for name in ("density_trace.csv", "density_accelerated.csv", "density_report.json")
        ]
        for path in written:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


class TestCount:
    def test_csv_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--family", "finite:[(1+1),(1+(1+1))]", "--n", "16"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        values = [int(line.split(",")[1]) for line in lines[1:]]
        assert values == [0, 1, 1, 1, 2, 3, 6, 11, 22, 44, 90, 187, 392, 832, 1778, 3831]

    def test_plain_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--family", "longitudinal:[2]", "--n", "6", "--format", "plain"
        )
        assert code == 0
        assert out.splitlines() == ["n=1 0", "n=2 1", "n=3 0", "n=4 5", "n=5 0", "n=6 42"]

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--family", "bogus:[1]", "--n", "4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "spec", ["finite:[(1+1),(1+(1+1)]", "finite:[(1,1)]", "longitudinal:[2,(3]"]
    )
    def test_malformed_list_is_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "count", "--family", spec, "--n", "4")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_spaces_in_list_change_nothing(self, capsys):
        spaced = run_cli(capsys, "count", "--family", "finite:[ (1 + 1) , (1+(1+1)) ]", "--n", "9")
        plain = run_cli(capsys, "count", "--family", "finite:[(1+1),(1+(1+1))]", "--n", "9")
        assert spaced[0] == 0
        assert spaced == plain

    def test_values_past_int_digit_limit(self, capsys, tmp_path):
        # C_7299 has about 4390 digits, past Python's default 4300-digit limit.
        limit = sys.get_int_max_str_digits()
        target = tmp_path / "full.csv"
        code, _, err = run_cli(
            capsys, "count", "--family", "full", "--n", "7300", "--out", str(target)
        )
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        last = target.read_text().splitlines()[-1]
        with unlimited_int_digits():
            assert last == f"7300,{catalan_numbers(7300)[-1]}"

    def test_seq_family_past_int_digit_limit(self, capsys):
        big = "9" * 5000
        code, out, err = run_cli(
            capsys, "count", "--family", f"seq:[{big}]", "--n", "1", "--format", "plain"
        )
        assert code == 0, err
        assert out.strip() == f"n=1 {big}"

    def test_seq_counts_past_int_digit_limit(self, capsys):
        # 10**4400 + 1 generates counts of 4401, 8801 and 13201 digits, all
        # past the 4300-digit limit, which no caller lifts here.
        spec = f"seq:[1{'0' * 4399}1]"
        limit = sys.get_int_max_str_digits()
        assert 0 < limit < 4401
        texts = list(counting_texts(parse_family(spec), 3))
        with unlimited_int_digits():
            assert texts == [str(v) for v in counting_sequence(parse_family(spec), 3)]
        assert [len(t) for t in texts] == [4401, 8801, 13201]
        expected = {
            "plain": "".join(f"n={n} {t}\n" for n, t in enumerate(texts, 1)),
            "csv": "n,value\n" + "".join(f"{n},{t}\n" for n, t in enumerate(texts, 1)),
        }
        for fmt in ("plain", "csv", "json"):
            code, out, err = run_cli(capsys, "count", "--family", spec, "--n", "3", "--format", fmt)
            assert code == 0, err
            assert sys.get_int_max_str_digits() == limit
            if fmt == "json":
                assert json.loads(out)["values"] == {str(n): t for n, t in enumerate(texts, 1)}
            else:
                assert out == expected[fmt]

    def test_deterministic_output(self, capsys, tmp_path):
        target = tmp_path / "seq.csv"
        args = ("count", "--family", "shifted:1", "--n", "12", "--out", str(target))
        assert run_cli(capsys, *args)[0] == 0
        first = target.read_bytes()
        assert run_cli(capsys, *args)[0] == 0
        assert target.read_bytes() == first

    def test_csv_bytes_equal_library_writer(self, capsys, tmp_path):
        cli_file, lib_file = tmp_path / "cli.csv", tmp_path / "lib.csv"
        code, _, _ = run_cli(
            capsys, "count", "--family", "full", "--n", "30", "--out", str(cli_file)
        )
        assert code == 0
        write_sequence_csv(lib_file, catalan_c(30))
        assert lib_file.read_bytes() == cli_file.read_bytes()


class TestTransform:
    def test_values_inline(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--values", "1,0,0", "--n", "8", "--format", "plain"
        )
        assert code == 0
        assert [int(line.split()[1]) for line in out.splitlines()] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_seqfile_roundtrip(self, capsys, tmp_path):
        src = tmp_path / "gen.csv"
        src.write_text("n,value\n1,0\n2,1\n3,1\n")
        code, out, _ = run_cli(
            capsys, "transform", "--seqfile", str(src), "--n", "10"
        )
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values == [0, 1, 1, 1, 2, 3, 6, 11, 22, 44]

    def test_negative_horizon_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "transform", "--values", "1,0,0", "--n", "-2"
        )
        assert code == 2
        assert out == "" and "horizon" in err
        src = tmp_path / "gen.csv"
        src.write_text("n,value\n1,0\n2,1\n")
        code, out, err = run_cli(capsys, "transform", "--seqfile", str(src), "--n", "-2")
        assert code == 2
        assert out == "" and "horizon" in err

    def test_seqfile_horizon_bytes_pinned(self, capsys, tmp_path):
        # The transform of the Catalan counts to n=5000, read to n=400 only.
        src = tmp_path / "count.csv"
        assert run_cli(capsys, "count", "--family", "full", "--n", "5000", "--out", str(src))[0] == 0
        code, out, _ = run_cli(capsys, "transform", "--seqfile", str(src), "--n", "400")
        assert code == 0
        digest = "06589aedaeac9c833ae8b3d5b0be7e26d03f295357b0039a7b2f860dac738900"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["transform", "count"])
    @pytest.mark.parametrize(
        "hist, refused",
        [
            # 100,000 ones are a dense histogram, so they take the schoolbook,
            # which holds every value; |b_n| <= 5^n prices it at 1480.5 MiB.
            ([1] * 100_000, "the schoolbook transform to length 100,000 would take an estimated 1480.5 MiB"),
            # Two nonzero entries take the recurrence, whose window holds the
            # last 100,000 values, each of up to 2.33 bits per length.
            (
                [1] + [0] * 99_998 + [1],
                "the recurrence window of 100,000 counts to length 100,000 would take an estimated 2963.2 MiB",
            ),
        ],
        ids=["schoolbook", "window"],
    )
    def test_histogram_refused_before_any_value(self, capsys, monkeypatch, tmp_path, command, hist, refused):
        # The request is refused before the first product.
        def no_values(*args):
            raise AssertionError("a count was made over the budget")

        src = tmp_path / "hist.csv"
        write_sequence_csv(src, BigSeq(hist))
        monkeypatch.setattr(sequences, "_schoolbook_transform", no_values)
        monkeypatch.setattr(sequences, "_recurrence_step", no_values)
        argv = {
            "transform": ("transform", "--seqfile", str(src)),
            "count": ("count", "--family", f"seqfile:{src}", "--n", "100000"),
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{refused}, over the memory budget of 1024.0 MiB" in err

    def test_short_histogram_streams_at_any_horizon(self, monkeypatch):
        # [0, 1, 1] takes the recurrence, which holds a window: its first
        # text comes at once at the horizon the schoolbook is refused at.
        def no_values(*args):
            raise AssertionError("the schoolbook ran")

        monkeypatch.setattr(sequences, "_schoolbook_transform", no_values)
        assert next(counting_texts(ExplicitSeq(BigSeq([0, 1, 1])), 100_000)) == "0"

    @pytest.mark.parametrize("values", ["1,-1", "-1", "2,-3,1", "0,-1,0,0,2"])
    def test_signed_values_print_the_schoolbook(self, capsys, values):
        hist = BigSeq(int(v) for v in values.split(",")).padded(60)
        code, out, err = run_cli(capsys, "transform", "--values", values, "--n", "60")
        assert code == 0, err
        assert out == "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(cat_transform(hist), 1))
        assert ",-0\n" not in out

    @pytest.mark.parametrize("values", ["0,1,1", "1", "3,0,0,7,0,0,0,0,1", ",".join(["1"] * 40)])
    def test_values_print_as_the_seq_family(self, capsys, values):
        transform = run_cli(capsys, "transform", "--values", values, "--n", "120")
        count = run_cli(capsys, "count", "--family", f"seq:[{values}]", "--n", "120")
        assert transform[0] == count[0] == 0
        assert transform[1] == count[1]

    def test_seqfile_rows_past_horizon_not_read(self, capsys, tmp_path):
        src = tmp_path / "gen.csv"
        src.write_text("n,value\n1,0\n2,1\n3,1\n5,oops\n")
        code, out, _ = run_cli(capsys, "transform", "--seqfile", str(src), "--n", "3")
        assert code == 0
        assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == [0, 1, 1]
        code, out, err = run_cli(capsys, "transform", "--seqfile", str(src))
        assert code == 2
        assert out == "" and "non-consecutive index at row 4" in err

    def test_seq_family_rows_past_horizon_not_read(self, capsys, tmp_path):
        src = tmp_path / "gen.csv"
        src.write_text("n,value\n1,0\n2,1\n3,1\n5,oops\n")
        code, out, _ = run_cli(capsys, "count", "--family", f"seqfile:{src}", "--n", "3")
        assert code == 0
        assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == [0, 1, 1]
        code, out, err = run_cli(capsys, "count", "--family", f"seqfile:{src}", "--n", "4")
        assert code == 2
        assert out == "" and "non-consecutive index at row 4" in err


class TestDensity:
    def test_json_report_and_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, out, _ = run_cli(
            capsys,
            "density",
            "--n",
            "shifted:1",
            "--m",
            "full",
            "--nmax",
            "200",
            "--precision",
            "6",
            "--out",
            str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family_n"] == "shifted:1"
        assert payload["n_max"] == 200
        assert payload["value"].startswith("0.35")
        report_text = (out_dir / "density_report.json").read_text()
        assert report_text.endswith("\n") and not report_text.endswith("\n\n")
        report = json.loads(report_text)
        assert report["value"] == payload["value"]
        trace = (out_dir / "density_trace.csv").read_text().splitlines()
        assert trace[0] == "n,value"
        assert len(trace) == 201
        assert (out_dir / "density_accelerated.csv").exists()

    def test_oscillating_plain(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "density",
            "--n",
            "longitudinal:[2]",
            "--m",
            "full",
            "--nmax",
            "200",
            "--format",
            "plain",
        )
        assert code == 0
        assert "undefined-oscillating" in out
        assert "period 2" in out

    def test_artifacts_deterministic(self, capsys, tmp_path):
        def run(out_dir):
            code, _, _ = run_cli(
                capsys, "density", "--n", "shifted:1", "--m", "full",
                "--nmax", "100", "--precision", "6", "--out", str(out_dir),
            )
            assert code == 0
            report = json.loads((out_dir / "density_report.json").read_text())
            report.pop("runtime_seconds")
            report.pop("trace_csv_path")
            report.pop("accelerated_csv_path")
            return (out_dir / "density_trace.csv").read_bytes(), report

        trace_a, report_a = run(tmp_path / "a")
        trace_b, report_b = run(tmp_path / "b")
        assert trace_a == trace_b
        assert report_a == report_b

    def test_empty_trace_leaves_earlier_files(self, capsys, tmp_path):
        # The CSVs are written as the rows come, through temp files that a
        # failed run removes; an earlier run's trace is not replaced.
        earlier = b"n,value\n1,0.5\n"
        (tmp_path / "density_trace.csv").write_bytes(earlier)
        code, _, err = run_cli(
            capsys, "density", "--n", "full", "--m", "longitudinal:[7]", "--nmax", "5",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "denominator growth is identically zero" in err
        assert [p.name for p in tmp_path.iterdir()] == ["density_trace.csv"]
        assert (tmp_path / "density_trace.csv").read_bytes() == earlier

    @pytest.mark.parametrize("seq", ["[1,1]", "[0,3]", "[0,1,3]", "[0,1,2,5]"])
    def test_count_no_subgroupoid_has_is_refused(self, capsys, tmp_path, seq):
        code, out, err = run_cli(
            capsys, "density", "--n", f"seq:{seq}", "--m", "full", "--nmax", "300",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert "members of length" in err
        assert list(tmp_path.iterdir()) == []

    def test_precision_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "density", "--n", "shifted:1", "--m", "full", "--nmax", "50",
            "--precision", "4",
        )
        assert code == 2
        assert "precision" in err


class TestLongitudinal:
    def test_counting_past_int_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "longitudinal", "--lengths", "2", "--nmax", "7300")
        assert code == 0, err
        assert len(json.loads(out)["counting"]["7300"]) > 4300

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "longitudinal", "--lengths", "4,6")
        assert code == 0
        payload = json.loads(out)
        assert payload["gcd"] == 2
        assert payload["frobenius"] == 1
        assert payload["per_residue"] == ["4/5", "1/5"]

    def test_large_lengths(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, "longitudinal", "--lengths", "1000000007,1000000009")
        assert code == 0, err
        assert json.loads(out)["frobenius"] == 1000000014000000047
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
        code, _, err = run_cli(capsys, "longitudinal", "--lengths", "100000,100001,100002")
        assert code == 2
        assert "Apery table" in err

    def test_table_follows_the_horizon(self, capsys, monkeypatch):
        # The semigroup table is sized by the shortest length, so a count
        # whose horizon no length reaches builds none.
        from freemagma import subgroupoids

        huge = "1000000007,1000000008,1000000009"
        code, _, err = run_cli(capsys, "longitudinal", "--lengths", huge)
        assert code == 2
        assert "Apery table of 1,000,000,007 residues" in err
        code, out, _ = run_cli(
            capsys, "count", "--family", "longitudinal:[3,1000000007]", "--n", "8",
            "--format", "plain",
        )
        assert code == 0
        assert out.splitlines() == [
            "n=1 0", "n=2 0", "n=3 2", "n=4 0", "n=5 0", "n=6 42", "n=7 0", "n=8 0"
        ]

        def refuse(*args):
            raise AssertionError("a semigroup table was built")

        monkeypatch.setattr(subgroupoids, "_apery_table", refuse)
        code, out, err = run_cli(capsys, "count", "--family", f"longitudinal:[{huge}]", "--n", "50")
        assert code == 0, err
        assert out.splitlines() == ["n,value"] + [f"{n},0" for n in range(1, 51)]

    def test_counting_included(self, capsys):
        code, out, _ = run_cli(capsys, "longitudinal", "--lengths", "2", "--nmax", "6")
        payload = json.loads(out)
        assert payload["counting"]["6"] == "42"

    def test_plain_counting_follows_asymptotes(self, capsys):
        _, head, _ = run_cli(capsys, "longitudinal", "--lengths", "2,3", "--format", "plain")
        code, out, _ = run_cli(
            capsys, "longitudinal", "--lengths", "2,3", "--nmax", "10", "--format", "plain"
        )
        _, counts, _ = run_cli(
            capsys, "count", "--family", "longitudinal:[2,3]", "--n", "10", "--format", "plain"
        )
        assert code == 0
        assert out == head + counts
        assert counts.splitlines()[-1] == "n=10 4862"


class TestMotzkin:
    def test_count(self, capsys):
        assert run_cli(capsys, "motzkin", "--length", "4")[1].strip() == "9"
        assert (
            run_cli(capsys, "motzkin", "--length", "4", "--forbid", "FU,FF")[1].strip()
            == "3"
        )
        out = run_cli(
            capsys, "motzkin", "--length", "4", "--forbid", "FU,FF", "--colors", "F=2"
        )[1]
        assert out.strip() == "6"

    def test_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "motzkin", "--length", "4", "--forbid", "FU,FF", "--list"
        )
        assert code == 0
        assert set(out.split()) == {"UUDD", "UDUD", "UFDF"}

    def test_bad_bigram(self, capsys):
        code, _, err = run_cli(capsys, "motzkin", "--length", "4", "--forbid", "XY")
        assert code == 2

    def test_listing_past_length_20(self, capsys):
        code, out, _ = run_cli(
            capsys, "motzkin", "--length", "21", "--forbid", "UU,FF,FU,UF", "--list"
        )
        assert code == 0
        assert out.split() == ["UD" * 10 + "F"]

    # The counts the height DP printed, before the equation counted them.
    PINNED_COUNTS = {
        "1000": "15ae53add6268a13201af95b77512ebd481de1c81dda0f955e8466db39710236",
        "4000": "d9eb9a7b08b4cbeaa40b9bc1c169de6f7ef069ccef69d8f698cfbce2c10711d4",
    }

    @pytest.mark.parametrize("length", sorted(PINNED_COUNTS))
    def test_long_count_bytes_pinned(self, capsys, length):
        code, out, _ = run_cli(
            capsys, "motzkin", "--length", length, "--forbid", "FU,FF", "--colors", "F=2"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_COUNTS[length]

    def test_listing_past_count_cap_is_usage_error(self, capsys):
        # 9^12 * M_12 colored paths: refused from the count, before listing.
        code, out, err = run_cli(
            capsys, "motzkin", "--length", "12", "--colors", "U=9,D=9,F=9", "--list"
        )
        assert code == 2
        assert out == ""
        assert "listing 4,380,764,540,356,791 paths would take an estimated" in err
        assert "over the memory budget of 1024.0 MiB" in err


class TestMotzkinOutput:
    # Digests of the stdout of `motzkin --list` at lengths 0..12 and of the
    # `--forbid FU,FF --colors F=2` listing at length 12, concatenated in
    # that order: any change to the order or the format of a listing shows.
    CASES = [["--length", str(n)] for n in range(13)] + [
        ["--length", "12", "--forbid", "FU,FF", "--colors", "F=2"]
    ]
    PINNED = {
        "plain": "5abf165669c17fbb7e25131a005d5dc8ef8f2cdcb4bf04f42823332f4ecc14d8",
        "json": "2a4b27a5d01c28de7d8dbeefdeee51c25e1028b803cb26834b1ba61ab515615d",
    }

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_listing_bytes_pinned(self, capsys, fmt):
        digest = hashlib.sha256()
        for case in self.CASES:
            code, out, _ = run_cli(capsys, "motzkin", *case, "--list", "--format", fmt)
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == self.PINNED[fmt]

    @pytest.mark.slow
    def test_json_listing_streams_within_its_price(self, tmp_path):
        import tracemalloc

        from freemagma.motzkin_paths import PATH_BYTES

        out_file = tmp_path / "paths.json"
        tracemalloc.start()
        try:
            argv = ["motzkin", "--length", "14", "--list", "--format", "json"]
            code = main(argv + ["--out", str(out_file)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        count = json.loads(out_file.read_text())["count"]
        assert count == 113_634  # M_14
        assert peak <= count * PATH_BYTES, (peak, count * PATH_BYTES)

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_count_past_int_digit_limit(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "motzkin", "--length", "700", "--colors", "U=1000000,D=1000000,F=1000000",
            "--format", fmt,
        )
        assert code == 0
        # The count is read as text: int() of it would pass the digit limit.
        digits = json.loads(out, parse_int=str)["count"] if fmt == "json" else out.strip()
        assert digits.isdigit() and len(digits) == 4530


class TestVerify:
    def test_fast_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "fast")
        assert code == 0
        assert "OK:" in out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "fast", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "oracle-equivalence" in names and "density-estimates" in names

    def test_json_names_are_registry_names(self, capsys):
        from freemagma.verify import CHECKS

        code, out, _ = run_cli(capsys, "verify", "--scope", "fast", "--format", "json")
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == [n for n, _ in CHECKS]

    def test_failing_delegated_check_keeps_registry_name(self, monkeypatch):
        from freemagma import checks, verify

        def boom(lengths):
            raise RuntimeError("boom")

        # Library checks fail through their own comparisons: a wrong Catalan
        # table and a wrong path count.
        real_cats, real_paths = checks.catalan_numbers, checks._path_counts
        monkeypatch.setattr(checks, "catalan_numbers", lambda n: [2 * c for c in real_cats(n)])
        monkeypatch.setattr(checks, "_path_counts", lambda spec: [v + 1 for v in real_paths(spec)])
        # A check's own mismatch, with its first index, and a crash.
        monkeypatch.setattr(verify, "multinomial_count", lambda alphas, n: -1)
        monkeypatch.setattr(verify, "semigroup_info", boom)
        registry = [
            entry
            for entry in verify.CHECKS
            if entry[0] in ("longitudinal-convergence", "motzkin-paths", "motzkin-identities")
        ]
        own = [e for e in verify.CHECKS if e[0] in ("multinomial-formula", "semigroup-info")]
        monkeypatch.setattr(verify, "CHECKS", registry + own)
        reports = verify.verify_all("fast")
        delegated, own = reports[: len(registry)], reports[len(registry) :]
        assert [r.name for r in delegated] == [n for n, _ in registry]
        assert not any(r.passed for r in delegated)
        assert not any(r.details.startswith("raised") for r in delegated)
        failed = [r.as_dict() for r in own]
        for report in failed:
            del report["data"]["elapsed_s"]
        assert failed == [
            {
                "name": "multinomial-formula",
                "passed": False,
                "details": "alphas=[2]: mismatch at n=1",
                "first_failure": 1,
                "data": {},
            },
            {
                "name": "semigroup-info",
                "passed": False,
                "details": "raised RuntimeError: boom",
                "data": {},
            },
        ]

    @pytest.mark.parametrize(
        "entry, attr, forge, expected",
        [
            (
                "motzkin-identities",
                "catalan_numbers",
                lambda real: lambda n: [c + (k == 5) for k, c in enumerate(real(n))],
                {
                    "details": "C_(n+1) = sum binom(n,k) M_k fails at n=4",
                    "first_failure": 4,
                },
            ),
            (
                "catalan-bounds",
                "catalan_numbers",
                lambda real: lambda n: [4**k if k == 7 else c for k, c in enumerate(real(n))],
                {"details": "weak bound fails at n=7", "first_failure": 7},
            ),
            (
                "series-identities",
                "cat_transform",
                lambda real: lambda a: BigSeq(
                    [v + (n == 5) for n, v in enumerate(real(a).entries, 1)]
                ),
                {"details": "full magma: Psi != Psi^2 + Phi at order 5"},
            ),
            (
                "longitudinal-convergence",
                "catalan_numbers",
                lambda real: lambda n: [2 * c for c in real(n)],
                {
                    "details": "worst residue 0: |ratio - asymptote| = 4.00e-01, "
                    "aux limit error 6.31e-04, tolerance 0.005",
                    "data": {
                        "p": 2,
                        "n_max": 300,
                        "worst_error": 0.40040178895551265,
                        "aux_error": 0.0006310681414868092,
                        "tolerance": 0.005,
                    },
                },
            ),
            (
                "density-algebra",
                "brute_count",
                # Four times the counts of <(1+1)> pass those of the whole magma.
                lambda real: lambda gens, n: BigSeq([4 * v for v in real(gens, n).entries])
                if {format_term(g) for g in gens} == {"(1+1)"}
                else real(gens, n),
                {"details": "ratio outside [0,1] at n=2", "first_failure": 2},
            ),
            (
                "motzkin-paths",
                "_path_counts",
                lambda real: lambda spec: [v + (m == 5) for m, v in enumerate(real(spec))],
                {
                    "details": "finite:[(1+1),(1+(1+1))]: path count 7 != |N|_7 = 6 (offset 2)",
                    "first_failure": 7,
                },
            ),
        ],
    )
    def test_library_check_fails_at_its_first_mismatch(
        self, monkeypatch, entry, attr, forge, expected
    ):
        # Each library check in freemagma.checks, made to fail through its
        # own comparison, gives this report under its registry name.
        from freemagma import checks, verify

        monkeypatch.setattr(checks, attr, forge(getattr(checks, attr)))
        monkeypatch.setattr(verify, "CHECKS", [e for e in verify.CHECKS if e[0] == entry])
        (report,) = verify.verify_all("fast")
        got = report.as_dict()
        del got["data"]["elapsed_s"]
        assert got == {"name": entry, "passed": False, "data": {}, **expected}

    def test_only_verify_all_builds_reports(self):
        # Every check fails by raising; verify_all alone makes the reports.
        import ast
        from pathlib import Path

        import freemagma

        def report_builders(node, where):
            # The qualified name of the scope around each call of CheckReport.
            if isinstance(node, ast.Call) and "CheckReport" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                yield where
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            for child in ast.iter_child_nodes(node):
                yield from report_builders(child, where)

        found = [
            where
            for module in sorted(Path(freemagma.__file__).parent.glob("*.py"))
            for where in report_builders(ast.parse(module.read_text()), module.stem)
        ]
        assert found and set(found) == {"verify.verify_all"}

    def test_broken_reachability_fails_sequence_fixtures(self, monkeypatch):
        from freemagma import subgroupoids, verify

        table = subgroupoids._apery_table

        def seven_left_out(reduced):
            # The least member that is 7 mod a moves past 7: for [2, 3]
            # that leaves out the odd lengths 3, 5 and 7.
            least = table(reduced)
            least[7 % len(least)] = max(least[7 % len(least)], 9)
            return least

        monkeypatch.setattr(subgroupoids, "_apery_table", seven_left_out)
        assert subgroupoids.counting_sequence(subgroupoids.Longitudinal({2, 3}), 9)[7] == 0
        registry = [e for e in verify.CHECKS if e[0] == "sequence-fixtures"]
        monkeypatch.setattr(verify, "CHECKS", registry)
        (report,) = verify.verify_all("fast")
        assert not report.passed
        assert "longitudinal [2, 3]" in report.details

    def test_oscillation_detection_runs_period_nine(self, monkeypatch):
        from freemagma import verify

        estimate = verify.estimate_density
        runs = []

        def recording(family_n, family_m, n_max, precision):
            runs.append((family_n, n_max))
            return estimate(family_n, family_m, n_max, precision)

        monkeypatch.setattr(verify, "estimate_density", recording)
        registry = [e for e in verify.CHECKS if e[0] == "oscillation-detection"]
        monkeypatch.setattr(verify, "CHECKS", registry)
        (report,) = verify.verify_all("fast")
        assert report.passed
        assert (verify.Longitudinal({9}), 100) in runs

    def test_reports_do_not_share_data(self, monkeypatch):
        from freemagma import verify
        check = ("always", lambda scope: "always passes")
        monkeypatch.setattr(verify, "CHECKS", [check, check])
        first, second = verify.verify_all("fast")
        assert first.data is not second.data
        assert list(first.data) == list(second.data) == ["elapsed_s"]

    def test_rejects_bad_scope(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scope", "everything"])
        assert exc.value.code == 2

    def test_missing_scope_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2
        assert "scope" in capsys.readouterr().err


class TestOutputProbe:
    def test_existing_probe_name_survives(self, capsys, tmp_path):
        keep = tmp_path / ".write-probe"
        keep.write_text("user data\n")
        code, _, _ = run_cli(
            capsys, "density", "--n", "shifted:1", "--m", "full", "--nmax", "50",
            "--precision", "6", "--out", str(tmp_path),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "count", "--family", "full", "--n", "5", "--out", str(tmp_path / "c.csv")
        )
        assert code == 0
        assert keep.read_text() == "user data\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".write-probe", "c.csv", "density_accelerated.csv",
            "density_report.json", "density_trace.csv",
        ]

    def test_density_opens_each_output_once(self, capsys, tmp_path, monkeypatch):
        from freemagma import sequences

        opened = []
        real = sequences._atomic_file

        def spy(path):
            opened.append(path)
            return real(path)

        monkeypatch.setattr(sequences, "_atomic_file", spy)
        code, _, _ = run_cli(
            capsys, "density", "--n", "shifted:1", "--m", "full", "--nmax", "50",
            "--precision", "6", "--out", str(tmp_path / "out"),
        )
        assert code == 0
        names = ("density_accelerated.csv", "density_report.json", "density_trace.csv")
        assert sorted(opened) == [tmp_path / "out" / name for name in names]

    def test_only_main_writes_a_commands_output(self):
        # Each command takes its arguments alone and returns its output,
        # which main writes; density also writes its report file.
        import ast
        from pathlib import Path

        tree = ast.parse(Path(cli.__file__).read_text())
        writers = {
            getattr(node, "name", "<module>")
            for node in tree.body
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and "_write_lines" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        }
        assert writers == {"main", "_cmd_density"}
        commands = {
            node.name: ast.unparse(node.args)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
        }
        assert len(commands) == len(cli.COMMANDS)
        assert set(commands.values()) == {"args: argparse.Namespace"}

    # Each command with the function that starts its work.
    WORK = [
        (("count", "--family", "full", "--n", "5"), "subgroupoids", "counting_texts"),
        (("transform", "--values", "0,1,1"), "sequences", "_histogram_counts"),
        (("enumerate", "--n", "5"), "listing", "_level_blocks"),
        (("longitudinal", "--lengths", "2,3", "--nmax", "10"), "subgroupoids", "semigroup_info"),
        (("motzkin", "--length", "5"), "motzkin_paths", "count_paths"),
        (("verify", "--scope", "fast"), "verify", "verify_all"),
        (("density", "--n", "shifted:1", "--m", "full", "--nmax", "50"), "density", "estimate_density"),
    ]

    @pytest.mark.parametrize("argv, module, work", WORK, ids=[w[0][0] for w in WORK])
    def test_unwritable_out_fails_before_the_work(self, capsys, tmp_path, monkeypatch, argv, module, work):
        import importlib

        def started(*args, **kwargs):
            pytest.fail(f"{module}.{work} ran although --out cannot be written")

        monkeypatch.setattr(importlib.import_module(f"freemagma.{module}"), work, started)
        regular = tmp_path / "F"
        regular.write_text("")
        code, out, err = run_cli(capsys, *argv, "--out", str(regular / "x"))
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv", [("enumerate", "--n", "20"), ("motzkin", "--length", "3000", "--list")]
    )
    def test_refused_request_leaves_no_file(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "F"))
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        # A rename would put a regular file where the FIFO was, and its
        # reader would wait for a writer that never comes.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        argv = ("count", "--family", "full", "--n", "5")
        code, _, _ = run_cli(capsys, *argv, "--out", str(fifo))
        reader.join(timeout=10)
        assert code == 0 and not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        _, out, _ = run_cli(capsys, *argv)
        assert got == [out.encode()]

    def test_failed_rename_leaves_no_density_files(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "density", "--n", "shifted:1", "--m", "full", "--nmax", "50",
            "--precision", "6", "--out", str(out_dir),
        )
        assert code == 2
        assert list(out_dir.iterdir()) == []


class TestExitCodes:
    def test_internal_arithmetic_fault_is_not_usage_error(self, capsys, monkeypatch):
        def broken(family, n_max):
            raise ExactDivisionError("a 12-bit integer is not divisible by 7 (remainder 3)")

        monkeypatch.setattr("freemagma.subgroupoids.counting_texts", broken)
        code, _, err = run_cli(capsys, "count", "--family", "shifted:1", "--n", "10")
        assert code == cli.EXIT_INTERNAL == 3
        assert "internal error" in err

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--values", "1,x,0")
        assert code == cli.EXIT_USAGE == 2
        assert "error" in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enumerate", "--n", "600"], "the listing of length 600 would hold over 10^33 terms"),
            (["enumerate", "--n", "20000"], "the listing of length 20000 would hold over 10^33 terms"),
            (
                ["enumerate", "--n", "100000", "--format", "json"],
                "the listing of length 100000 would hold over 10^33 terms",
            ),
            (
                ["motzkin", "--length", "3000", "--list"],
                "listing 2.06e+1426 paths would take an estimated 6.05e+1423 MiB",
            ),
        ],
    )
    def test_oversized_request_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}, over the memory budget of 1024.0 MiB\n"
        assert len(err) < 300

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_length_zero_is_usage_error(self, capsys, fmt):
        code, out, err = run_cli(capsys, "enumerate", "--n", "0", "--format", fmt)
        assert (code, out, err) == (cli.EXIT_USAGE, "", "error: length must be >= 1, got 0\n")


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version(self, capsys):
        # --version builds no subparser, and prints what the parser with
        # all seven prints.
        assert cli.build_parser(["--version"])._subparsers is None
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("freemagma ")
        assert (0, out, err) == self._parse(capsys, cli.build_parser([]), ["--version"])

    @staticmethod
    def _parse(capsys, parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        return exc.value.code, *capsys.readouterr()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_one_subparser_keeps_every_byte(self, capsys, command):
        # A run builds only its command's subparser; its help and its
        # usage errors read as those of the parser with all seven, as does
        # the usage that an error after its arguments prints.
        parser = cli.build_parser([command])
        assert len(parser._subparsers._group_actions[0].choices) == 1
        assert parser.format_usage() == cli.build_parser([]).format_usage()
        for argv in ([command, "--help"], [command, "--bogus"]):
            one = self._parse(capsys, cli.build_parser(argv), argv)
            assert one == self._parse(capsys, cli.build_parser([]), argv), argv
            assert one[0] == (0 if argv[1] == "--help" else 2)

    def test_unknown_command_lists_all_seven(self, capsys):
        code, out, err = self._parse(capsys, cli.build_parser(["bogus"]), ["bogus"])
        assert (code, out) == (2, "")
        assert "invalid choice: 'bogus'" in err
        for command in cli.COMMANDS:
            assert f"'{command}'" in err, command
