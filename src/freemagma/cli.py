"""Command-line front end.

Subcommands: enumerate, count, transform, density, longitudinal, motzkin,
verify.  Outputs are deterministic for a given configuration.  Each command
returns what to write and its exit code, and :func:`main` writes it to the
output, which it opens before the command runs, so an unwritable one fails
first (density opens the files of its ``--out`` directory itself).  An
output file is written as a temp file ``.NAME.XXXXXX`` beside it, renamed
over it when the command ends and removed on any failure.  Exit codes:
0 success, 1 verification failure, 2 usage error (bad arguments,
unparsable input, unwritable output), 3 internal arithmetic fault (an
exact division left a remainder).
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from . import __version__
from .errors import ExactDivisionError, FreeMagmaError

# Each subcommand imports the functions it runs, so that a run loads only the
# modules it uses; `--version` loads none beyond this one and `errors`.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# What a command returns: the text that main writes, one string or pieces
# made as they are read, and the exit code.
Result = tuple["str | Iterable[str]", int]


def _json_text(obj: dict) -> str:
    """``json.dumps(obj, indent=2)``; only a run that writes JSON loads the
    json module (0.13 MB of RSS)."""
    import json

    return json.dumps(obj, indent=2)


def _json_pieces(meta: dict, key: str, empty: list | dict, entries: Iterable[str]) -> Iterator[str]:
    """The bytes of ``json.dumps({**meta, key: value}, indent=2)``, where
    ``value`` is a list or dict like ``empty`` given as its encoded
    ``entries`` (``"text"`` or ``"key": "text"``); one entry may be several
    of them already joined by ``",\\n    "``.  Only the head goes through
    ``json.dumps``; the entries are streamed, never held at once.  Term
    texts and decimal texts need no escaping."""
    text = _json_text({**meta, key: empty})
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


def _cmd_enumerate(args: argparse.Namespace) -> Result:
    """Plain output is the level's blocks as they come, and each JSON
    entry is a block's texts joined by one ``replace``.  CSV numbers its
    rows, so it is formatted one text at a time."""
    from .sequences import catalan_numbers
    from .listing import _level_blocks

    pieces: Iterable[str]
    if args.format == "json":
        blocks = _level_blocks(args.n)
        meta = {"length": args.n, "count": catalan_numbers(args.n)[-1]}
        entries = ('"' + b[:-1].replace("\n", '",\n    "') + '"' for b in blocks)
        pieces = _json_pieces(meta, "terms", [], entries)
    elif args.format == "csv":
        from .terms import iter_level_texts

        texts = iter_level_texts(args.n)
        pieces = chain(("index,term\n",), (f"{i},{t}\n" for i, t in enumerate(texts, start=1)))
    else:
        pieces = _level_blocks(args.n)
    return pieces, EXIT_OK


def _cmd_count(args: argparse.Namespace) -> Result:
    from .subgroupoids import counting_texts, parse_family

    family = parse_family(args.family, args.n)
    texts = counting_texts(family, args.n)
    return _sequence_text(texts, args.format, {"family": args.family, "n_max": args.n}), EXIT_OK


def _cmd_transform(args: argparse.Namespace) -> Result:
    from .sequences import BigSeq, _exact_texts, _histogram_counts, read_sequence_csv, unlimited_int_digits

    if args.seqfile:
        seq = read_sequence_csv(args.seqfile, args.n if args.n > 0 else None)
    else:
        with unlimited_int_digits():
            seq = BigSeq(int(v) for v in args.values.split(","))
    seq = seq.padded(args.n or len(seq))
    texts = _exact_texts(_histogram_counts, seq.entries, len(seq))
    return _sequence_text(texts, args.format, {"n_max": len(seq)}), EXIT_OK


def _csv_sink(fh: TextIO) -> Callable[[tuple[int, object]], object]:
    """Write the ``n,value`` header to ``fh``, and return a sink that
    writes one row, formatted as :func:`_csv_text` formats it."""
    from .sequences import _CSV_HEADER, _csv_row

    fh.write(_CSV_HEADER)
    return lambda row: fh.write(_csv_row(*row))


def _cmd_density(args: argparse.Namespace) -> Result:
    """``--out`` is a directory: its three files are opened before the
    work, the report first so that it is renamed last, and the trace CSVs
    are written as the estimate makes their rows."""
    from contextlib import ExitStack

    from .density import density_report, estimate_density
    from .sequences import _atomic_file, _write_lines
    from .subgroupoids import parse_family

    out_dir = Path(args.out) if args.out else None
    trace_path = accel_path = None
    sinks = [lambda row: None] * 2
    with ExitStack() as files:
        if out_dir is not None:
            report_file = files.enter_context(_atomic_file(out_dir / "density_report.json"))
            trace_path = str(out_dir / "density_trace.csv")
            accel_path = str(out_dir / "density_accelerated.csv")
            sinks = [
                _csv_sink(files.enter_context(_atomic_file(Path(p)))) for p in (trace_path, accel_path)
            ]
        family_n = parse_family(args.n, args.nmax)
        family_m = parse_family(args.m, args.nmax)
        start = time.perf_counter()
        est = estimate_density(family_n, family_m, args.nmax, args.precision, *sinks)
        runtime = round(time.perf_counter() - start, 3)
        report = density_report(
            est, args.n, args.m, trace_path, accel_path, runtime_seconds=runtime
        )
        report_text = _json_text(report)
        if out_dir is not None:
            _write_lines(report_file, report_text)
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
    return text, EXIT_OK


def _cmd_longitudinal(args: argparse.Namespace) -> Result:
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
        text = _json_text(payload)
    return text, EXIT_OK


def _cmd_motzkin(args: argparse.Namespace) -> Result:
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
            text = _json_text(payload) if args.format == "json" else str(payload["count"])
    return text, EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> Result:
    from .verify import verify_all

    reports = verify_all(args.scope)
    ok = all(r.passed for r in reports)
    if args.format == "json":
        text = _json_text(
            {
                "scope": args.scope,
                "passed": ok,
                "checks": [r.as_dict() for r in reports],
            }
        )
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name}: {r.details}")
        lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
        text = "\n".join(lines)
    return text, EXIT_OK if ok else EXIT_VERIFY_FAILED


# Each command's help and the function that runs it.
COMMANDS = {
    "enumerate": ("list all terms of a given length", _cmd_enumerate),
    "count": ("counting sequence of a subgroupoid", _cmd_count),
    "transform": ("apply the counting transform to a raw sequence", _cmd_transform),
    "density": ("estimate the density of one family in another", _cmd_density),
    "longitudinal": ("asymptotes and semigroup data of a longitudinal family", _cmd_longitudinal),
    "motzkin": ("count or list constrained Motzkin paths", _cmd_motzkin),
    "verify": ("run the self-verification suite", _cmd_verify),
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """The arguments of ``command``, its --format and --out last."""
    formats, default, out_help = ("plain", "json"), "plain", "output file (default stdout)"
    if command == "enumerate":
        p.add_argument("--n", type=int, required=True, help="term length (>= 1)")
        formats = ("plain", "csv", "json")
    elif command == "count":
        p.add_argument("--family", required=True, help="family spec, e.g. finite:[(1+1)] or full")
        p.add_argument("--n", type=int, required=True, help="horizon n_max (>= 1)")
        formats, default = ("plain", "csv", "json"), "csv"
    elif command == "transform":
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--seqfile", help="CSV file with header n,value")
        group.add_argument("--values", help="comma-separated entries, e.g. 0,1,1")
        n_help = "zero-pad/truncate input to this horizon; --seqfile rows past it are not read"
        p.add_argument("--n", type=int, default=0, help=n_help)
        formats, default = ("plain", "csv", "json"), "csv"
    elif command == "density":
        p.add_argument("--n", required=True, help="numerator family spec")
        p.add_argument("--m", required=True, help="denominator family spec (e.g. full)")
        p.add_argument("--nmax", type=int, required=True, help="trace horizon")
        p.add_argument("--precision", type=int, default=8, help="requested significant digits (>= 6)")
        default, out_help = "json", "output directory for report + trace CSVs"
    elif command == "longitudinal":
        p.add_argument("--lengths", required=True, help="comma-separated generator lengths, e.g. 2,3")
        p.add_argument("--nmax", type=int, default=0, help="also emit the counting sequence to n_max")
        default = "json"
    elif command == "motzkin":
        p.add_argument("--length", type=int, required=True)
        p.add_argument("--forbid", default="", help="forbidden bigrams, e.g. FU,FF")
        p.add_argument("--colors", default="", help="step color multiplicities, e.g. F=2")
        p.add_argument("--list", action="store_true", help="list paths instead of counting")
    else:
        p.add_argument("--scope", choices=("fast", "full"), required=True)
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--out", help=out_help)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv``.  When its first word names a command, only
    that command's subparser is built, under a usage that still lists all
    seven; ``--version`` builds none; otherwise (no word, ``-h``, an unknown
    word) all are, so every help text and usage error keeps its bytes."""
    parser = argparse.ArgumentParser(
        prog="freemagma",
        description=(
            "Exact enumeration, counting and density estimation for subgroupoids "
            "of the free magma on one generator."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    first = argv[0] if argv else None
    if first == "--version":
        return parser
    metavar = f"{{{','.join(COMMANDS)}}}" if first in COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for command in [first] if first in COMMANDS else COMMANDS:
        help_text, fn = COMMANDS[command]
        p = sub.add_parser(command, help=help_text)
        _add_arguments(p, command)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        from contextlib import nullcontext

        from .sequences import _atomic_file, _write_lines

        # The output is open before the work starts; density opens its own
        # directory's files.
        to_file = args.out and args.command != "density"
        with _atomic_file(Path(args.out)) if to_file else nullcontext(sys.stdout) as out:
            text, code = args.fn(args)
            _write_lines(out, text)
        return code
    except ExactDivisionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FreeMagmaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
