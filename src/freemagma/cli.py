"""Command-line front end.

Subcommands: enumerate, count, transform, density, longitudinal, motzkin,
verify.  Outputs are deterministic for a given configuration and written
atomically (temp file + rename).  Exit codes: 0 success, 1 verification
failure, 2 usage error (bad arguments, unparsable input, unwritable output),
3 internal arithmetic fault (an exact division left a remainder).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .errors import ExactDivisionError, FreeMagmaError

# Each subcommand imports the functions it runs, so that a run loads only the
# modules it uses; `--version` loads none beyond this one and `errors`.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _ensure_writable_dir(path: Path) -> None:
    import tempfile

    path.mkdir(parents=True, exist_ok=True)
    try:
        fd, probe = tempfile.mkstemp(dir=path, prefix=".write-probe-")
    except OSError as exc:
        raise FreeMagmaError(f"output directory {path} is not writable: {exc}") from exc
    os.close(fd)
    os.unlink(probe)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    from .sequences import _atomic_write, _write_lines

    if out:
        _atomic_write(Path(out), text)
    else:
        _write_lines(sys.stdout, text)


def _json_pieces(meta: dict, key: str, empty: list | dict, entries: Iterable[str]) -> Iterator[str]:
    """The bytes of ``json.dumps({**meta, key: value}, indent=2)``, where
    ``value`` is a list or dict like ``empty`` given as its encoded
    ``entries`` (``"text"`` or ``"key": "text"``); one entry may be several
    of them already joined by ``",\\n    "``.  Only the head goes through
    ``json.dumps``; the entries are streamed, never held at once.  Term
    texts and decimal texts need no escaping."""
    text = json.dumps({**meta, key: empty}, indent=2)
    pieces = iter(entries)
    first = next(pieces, None)
    if first is None:
        yield text
        return
    yield f"{text[:-3]}\n    {first}"
    for entry in pieces:
        yield f",\n    {entry}"
    yield f"\n  {text[-3:]}"


def _sequence_text(texts: Iterable[str], fmt: str, meta: dict) -> Iterable[str]:
    """One sequence, given as the decimal texts of its entries 1, 2, ...,
    as streamed pieces."""
    rows = enumerate(texts, start=1)
    if fmt == "json":
        return _json_pieces(meta, "values", {}, (f'"{n}": "{v}"' for n, v in rows))
    if fmt == "csv":
        from .sequences import _csv_text

        return _csv_text(rows)
    return (f"n={n} {v}\n" for n, v in rows)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    """Plain output is the level's blocks as they come, and each JSON
    entry is a block's texts joined by one ``replace``.  CSV numbers its
    rows, so it is formatted one text at a time."""
    from .sequences import catalan_numbers
    from .terms import _level_blocks, iter_level_texts

    pieces: Iterable[str]
    if args.format == "json":
        meta = {"length": args.n, "count": catalan_numbers(args.n)[-1]}
        entries = ('"' + b[:-1].replace("\n", '",\n    "') + '"' for b in _level_blocks(args.n))
        pieces = _json_pieces(meta, "terms", [], entries)
    elif args.format == "csv":
        texts = iter_level_texts(args.n)
        pieces = chain(("index,term\n",), (f"{i},{t}\n" for i, t in enumerate(texts, start=1)))
    else:
        pieces = _level_blocks(args.n)
    _emit(pieces, args.out)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    from .subgroupoids import counting_texts, parse_family

    family = parse_family(args.family)
    texts = counting_texts(family, args.n)
    text = _sequence_text(texts, args.format, {"family": args.family, "n_max": args.n})
    _emit(text, args.out)
    return EXIT_OK


def _cmd_transform(args: argparse.Namespace) -> int:
    from .sequences import BigSeq, cat_transform, read_sequence_csv, unlimited_int_digits

    if args.seqfile:
        seq = read_sequence_csv(args.seqfile, args.n if args.n > 0 else None)
    else:
        with unlimited_int_digits():
            seq = BigSeq(int(v) for v in args.values.split(","))
    if args.n:
        seq = seq.padded(args.n)
    out = cat_transform(seq)
    with unlimited_int_digits():
        texts = [str(v) for v in out]
    text = _sequence_text(texts, args.format, {"n_max": len(out)})
    _emit(text, args.out)
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import density_report, estimate_density, write_trace_csv
    from .sequences import _atomic_write
    from .subgroupoids import parse_family

    if args.precision < 6:
        raise FreeMagmaError(f"precision must be >= 6 significant digits, got {args.precision}")
    family_n = parse_family(args.n)
    family_m = parse_family(args.m)
    out_dir = Path(args.out) if args.out else None
    start = time.perf_counter()
    est = estimate_density(family_n, family_m, args.nmax, precision=args.precision)
    runtime = round(time.perf_counter() - start, 3)
    trace_path = accel_path = None
    if out_dir is not None:
        trace_path = str(out_dir / "density_trace.csv")
        accel_path = str(out_dir / "density_accelerated.csv")
        write_trace_csv(trace_path, est.trace.samples)
        write_trace_csv(accel_path, est.accelerated)
    report = density_report(
        est, args.n, args.m, trace_path, accel_path, runtime_seconds=runtime
    )
    report_text = json.dumps(report, indent=2)
    if args.format == "plain":
        if est.status == "oscillating":
            residues = ", ".join(str(v) for v in est.per_residue or ())
            text = (
                f"density undefined-oscillating (period {est.oscillation_period})\n"
                f"per-residue estimates: {residues}"
            )
        else:
            text = f"density ~= {est.value} ({est.status}, n_max={est.n_max})"
    else:
        text = report_text
    if out_dir is not None:
        _atomic_write(out_dir / "density_report.json", report_text)
    _emit(text, None)
    return EXIT_OK


def _cmd_longitudinal(args: argparse.Namespace) -> int:
    from .density import longitudinal_asymptote
    from .subgroupoids import Longitudinal, counting_texts, semigroup_info

    lengths = sorted({int(v) for v in args.lengths.split(",")})
    asym = longitudinal_asymptote(lengths)
    info = semigroup_info(lengths)
    payload: dict = {
        "lengths": lengths,
        "gcd": info.gcd,
        "reduced_generators": sorted(info.reduced_generators),
        "frobenius": info.frobenius,
        "period": asym.p,
        "per_residue": [str(v) for v in asym.per_residue],
    }
    texts = counting_texts(Longitudinal(lengths), args.nmax) if args.nmax else None
    text: str | Iterable[str]
    if args.format == "plain":
        lines = [
            f"lengths: {lengths}",
            f"gcd: {info.gcd}  reduced: {sorted(info.reduced_generators)}  frobenius: {info.frobenius}",
            f"period: {asym.p}",
        ]
        lines += [f"residue {r}: {v}" for r, v in enumerate(asym.per_residue)]
        text = chain((f"{line}\n" for line in lines), _sequence_text(texts or (), "plain", {}))
    elif texts is not None:
        text = _json_pieces(payload, "counting", {}, (f'"{n}": "{v}"' for n, v in enumerate(texts, 1)))
    else:
        text = json.dumps(payload, indent=2)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_motzkin(args: argparse.Namespace) -> int:
    from .motzkin_paths import PathSpec, count_paths, enumerate_paths
    from .sequences import unlimited_int_digits

    bigrams = [b.strip() for b in args.forbid.split(",") if b.strip()] if args.forbid else []
    colors = {}
    if args.colors:
        for part in args.colors.split(","):
            step, _, mult = part.partition("=")
            colors[step.strip()] = int(mult)
    spec = PathSpec(args.length, forbidden_bigrams=bigrams, color_multiplicity=colors)
    text: str | Iterable[str]
    if args.list:
        paths = enumerate_paths(spec)
        if args.format == "json":
            meta = {"length": args.length, "count": len(paths)}
            text = _json_pieces(meta, "paths", [], (f'"{p}"' for p in paths))
        else:
            text = (f"{p}\n" for p in paths)
    else:
        payload = {"length": args.length, "count": count_paths(spec)}
        with unlimited_int_digits():
            text = json.dumps(payload, indent=2) if args.format == "json" else str(payload["count"])
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_all

    reports = verify_all(args.scope)
    ok = all(r.passed for r in reports)
    if args.format == "json":
        text = json.dumps(
            {
                "scope": args.scope,
                "passed": ok,
                "checks": [r.as_dict() for r in reports],
            },
            indent=2,
        )
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name}: {r.details}")
        lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freemagma",
        description=(
            "Exact enumeration, counting and density estimation for subgroupoids "
            "of the free magma on one generator."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all terms of a given length")
    p.add_argument("--n", type=int, required=True, help="term length (>= 1)")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count", help="counting sequence of a subgroupoid")
    p.add_argument("--family", required=True, help="family spec, e.g. finite:[(1+1)] or full")
    p.add_argument("--n", type=int, required=True, help="horizon n_max (>= 1)")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("transform", help="apply the counting transform to a raw sequence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seqfile", help="CSV file with header n,value")
    group.add_argument("--values", help="comma-separated entries, e.g. 0,1,1")
    p.add_argument(
        "--n",
        type=int,
        default=0,
        help="zero-pad/truncate input to this horizon; --seqfile rows past it are not read",
    )
    p.add_argument("--format", choices=("plain", "csv", "json"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("density", help="estimate the density of one family in another")
    p.add_argument("--n", required=True, help="numerator family spec")
    p.add_argument("--m", required=True, help="denominator family spec (e.g. full)")
    p.add_argument("--nmax", type=int, required=True, help="trace horizon")
    p.add_argument("--precision", type=int, default=8, help="requested significant digits (>= 6)")
    p.add_argument("--format", choices=("plain", "json"), default="json")
    p.add_argument("--out", help="output directory for report + trace CSVs")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("longitudinal", help="asymptotes and semigroup data of a longitudinal family")
    p.add_argument("--lengths", required=True, help="comma-separated generator lengths, e.g. 2,3")
    p.add_argument("--nmax", type=int, default=0, help="also emit the counting sequence to n_max")
    p.add_argument("--format", choices=("plain", "json"), default="json")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_longitudinal)

    p = sub.add_parser("motzkin", help="count or list constrained Motzkin paths")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--forbid", default="", help="forbidden bigrams, e.g. FU,FF")
    p.add_argument("--colors", default="", help="step color multiplicities, e.g. F=2")
    p.add_argument("--list", action="store_true", help="list paths instead of counting")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_motzkin)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--scope", choices=("fast", "full"), required=True)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Fail on unwritable output locations before any computation runs.
        out = getattr(args, "out", None)
        if out:
            _ensure_writable_dir(Path(out) if args.command == "density" else Path(out).parent)
        return args.fn(args)
    except ExactDivisionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FreeMagmaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
