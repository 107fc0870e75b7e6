"""Output checker for the benchmark's jobs.

Deliberately independent of ``freemagma``: expected values come from
``math.comb`` (Catalan numbers), a Motzkin-path recurrence written here,
a schoolbook convolution for the counting transform, and the closed form
of the shifted-family densities.  Each ``check_*`` function takes a
finished job and returns a list of problems (or raises on unreadable
output); an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal, localcontext
from functools import lru_cache
from pathlib import Path

# Acceptance windows for the shifted-family densities at the n=5000 horizon
# (the same windows as the program's own verify registry), keyed by the
# length k of the shifting term.  The finite family below has density 0 by
# the nullity criterion (rank 3 < 4^(lambda-1) = 4).
DENSITY_WINDOWS = {
    1: (Decimal("0.3530"), Decimal("0.3542")),
    2: (Decimal("0.0663"), Decimal("0.0674")),
    3: (Decimal("0.0154"), Decimal("0.0164")),
}
TOY_DENSITY_TOLERANCE = Decimal("0.02")
NULL_DENSITY_CEILING = Decimal("1e-6")


def exact_density(k: int) -> Decimal:
    """d with d^2 = 1 / (4^k (4^k - 2)): the density of M+a, |a| = k."""
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(1) / Decimal(4**k * (4**k - 2))).sqrt()


@lru_cache(maxsize=None)
def catalan_counts(n_max: int) -> tuple[int, ...]:
    """Number of terms of length n = Catalan(n-1), for n = 1..n_max.

    Built by the ratio recurrence and pinned to ``math.comb`` at every
    500th index and at the end (``comb`` for every index costs seconds).
    """
    cats = [1]
    for m in range(1, n_max):
        cats.append(cats[-1] * 2 * (2 * m - 1) // (m + 1))
    for m in [*range(0, n_max, 500), n_max - 1]:
        if cats[m] != math.comb(2 * m, m) // (m + 1):
            raise ArithmeticError(f"Catalan recurrence disagrees with math.comb at {m}")
    return tuple(cats)


@lru_cache(maxsize=None)
def as_text(values: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(map(str, values))


@lru_cache(maxsize=None)
def transform(values: tuple[int, ...]) -> tuple[int, ...]:
    """Schoolbook b_n = a_n + sum_{i+j=n} b_i b_j (1-indexed)."""
    b: list[int] = []
    for n in range(1, len(values) + 1):
        acc = values[n - 1]
        for i in range(1, n):
            acc += b[i - 1] * b[n - i - 1]
        b.append(acc)
    return tuple(b)


@lru_cache(maxsize=None)
def motzkin_count(length: int, forbid: frozenset[str], colors: tuple[tuple[str, int], ...]) -> int:
    """Weighted Motzkin paths: heights never negative, back to 0 at the end,
    no forbidden step bigram, each step weighted by its colour count."""
    if length == 0:
        return 1
    weight = {"U": 1, "D": 1, "F": 1, **dict(colors)}
    start = [1]
    # by_last[s][h]: weighted prefixes ending at height h whose last step is
    # s; heights above what the remaining steps can undo are dropped.
    by_last: dict[str, list[int]] = {}
    for pos in range(length):
        keep = min(pos + 1, length - pos - 1) + 1
        nxt = {}
        for step in "UDF":
            sources = [start] if pos == 0 else [by_last[p] for p in "UDF" if p + step not in forbid]
            total = [sum(col) for col in zip(*sources)] + [0] * (keep + 1)
            if step == "U":
                total = [0] + total
            elif step == "D":
                total = total[1:]
            nxt[step] = [weight[step] * w for w in total[:keep]]
        by_last = nxt
    return sum(by_last[s][0] for s in "UDF")


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def _compare_values(got: dict[int, str], expected: tuple[int, ...], what: str) -> list[str]:
    if len(got) != len(expected):
        return [f"{what}: {len(got)} values, expected {len(expected)}"]
    for n, want in enumerate(as_text(expected), start=1):
        if got.get(n) != want:
            return [f"{what}: wrong value at n={n}"]
    return []


def _values(text: str, fmt: str) -> dict[int, str]:
    """n -> value text of a sequence printed as csv or as json."""
    if fmt == "json":
        return {int(n): v for n, v in json.loads(text)["values"].items()}
    lines = text.splitlines()
    if not lines or lines[0] != "n,value":
        raise ValueError("missing 'n,value' header")
    return {int(n): v for n, _, v in (line.partition(",") for line in lines[1:])}


@lru_cache(maxsize=None)
def longitudinal_counts(lengths: tuple[int, ...], n_max: int) -> tuple[int, ...]:
    """Catalan count at lengths in the numerical semigroup, else 0."""
    reach = [True] + [False] * n_max
    for n in range(1, n_max + 1):
        reach[n] = any(n >= a and reach[n - a] for a in lengths)
    cats = catalan_counts(n_max)
    return tuple(cats[n - 1] if reach[n] else 0 for n in range(1, n_max + 1))


def _check_count(job) -> list[str]:
    p = job.params
    if p["family"] == "full":
        expected = catalan_counts(p["n"])
    else:
        expected = longitudinal_counts(p["lengths"], p["n"])
    return _compare_values(_values(_read(job.out_file), p["format"]), expected, job.name)


def _check_transform(job) -> list[str]:
    p = job.params
    expected = transform(catalan_counts(p["n"]))
    return _compare_values(_values(_read(job.out_file), "csv"), expected, job.name)


def _check_longitudinal(job) -> list[str]:
    p = job.params
    payload = json.loads(_read(job.out_file))
    problems = []
    if payload.get("lengths") != list(p["lengths"]) or payload.get("gcd") != math.gcd(*p["lengths"]):
        problems.append(f"{job.name}: wrong lengths or gcd")
    counting = {int(n): v for n, v in payload.get("counting", {}).items()}
    return problems + _compare_values(
        counting, longitudinal_counts(p["lengths"], p["n"]), job.name
    )


def _check_motzkin(job) -> list[str]:
    p = job.params
    want = motzkin_count(p["length"], frozenset(p["forbid"]), tuple(sorted(p["colors"].items())))
    got = _read(job.out_file).strip()
    return [] if got == str(want) else [f"{job.name}: count {got[:20]}... != expected"]


def _check_density(job) -> list[str]:
    p = job.params
    report = json.loads(job.stdout_file.read_text())
    problems = []
    for name in ("density_report.json", "density_trace.csv", "density_accelerated.csv"):
        if not (job.out_file / name).is_file():
            problems.append(f"{job.name}: missing {name}")
    if report.get("status") == "oscillating":
        return problems + [f"{job.name}: reported oscillating"]
    value = Decimal(report["value"])
    k = p["shift"]
    if k is None:
        ok = 0 <= value <= NULL_DENSITY_CEILING
    elif p["toy"]:
        ok = abs(value - exact_density(k)) <= TOY_DENSITY_TOLERANCE
    else:
        lo, hi = DENSITY_WINDOWS[k]
        ok = lo <= value <= hi
    if not ok:
        problems.append(f"{job.name}: density {value} outside its window")
    return problems


def density_error(job) -> Decimal | None:
    """|estimate - d| for a shifted-family density job, else None."""
    if job.params.get("shift") is None:
        return None
    value = Decimal(json.loads(job.stdout_file.read_text())["value"])
    return abs(value - exact_density(job.params["shift"]))


def _check_enumerate(job) -> list[str]:
    n = job.params["n"]
    text = _read(job.out_file)
    lines = text.splitlines()
    if len(lines) != catalan_counts(n)[-1]:
        return [f"{job.name}: {len(lines)} lines, expected {catalan_counts(n)[-1]}"]
    # A fully parenthesised term reduces to "1" by repeatedly collapsing
    # innermost sums "(1+1)"; a term of n leaves has 4n - 3 characters.
    reduced = text
    for _ in range(n):
        reduced = reduced.replace("(1+1)", "1")
    if reduced.split() != ["1"] * len(lines) or any(len(t) != 4 * n - 3 for t in lines):
        return [f"{job.name}: a line is not a well-formed term of length {n}"]
    # Canonical order: preorder code with internal node '1' and leaf '0'.
    codes = [t.translate(_CODE) for t in lines]
    if any(a >= b for a, b in zip(codes, codes[1:])):
        return [f"{job.name}: terms not distinct or not in canonical order"]
    return []


_CODE = str.maketrans({"(": "1", "1": "0", "+": None, ")": None})


def _check_oracle(job) -> list[str]:
    result = json.loads(job.stdout_file.read_text())
    if result.get("sets") != job.params["sets"] or result.get("agree") != result.get("sets"):
        return [f"{job.name}: oracle disagrees: {result}"]
    return []


def _check_verify(job) -> list[str]:
    lines = _read(job.out_file).splitlines()
    total = len(lines) - 1
    if total < 1 or lines[-1] != f"OK: {total}/{total} checks passed":
        return [f"{job.name}: verify did not pass: {lines[-1:]}"]
    if not all(line.startswith("PASS ") for line in lines[:-1]):
        return [f"{job.name}: a verify check failed"]
    return []


def _check_version(job) -> list[str]:
    return [] if job.stdout_file.read_text().startswith("freemagma ") else [f"{job.name}: no version"]


CHECKERS = {
    "count": _check_count,
    "transform": _check_transform,
    "longitudinal": _check_longitudinal,
    "motzkin": _check_motzkin,
    "density": _check_density,
    "enumerate": _check_enumerate,
    "oracle": _check_oracle,
    "verify": _check_verify,
    "version": _check_version,
}


def _digest(job, returncode: int) -> str:
    h = hashlib.sha256(f"{job.name}\0{job.command}\0{returncode}\0".encode())
    paths = [job.stdout_file]
    if job.out_file is not None:
        paths += sorted(job.out_file.iterdir()) if job.out_file.is_dir() else [job.out_file]
    for path in paths:
        h.update(path.name.encode() + b"\0")
        if path.is_file():
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


class Checker:
    """Checks job outputs, re-using the verdict for byte-identical outputs
    so that repeated passes do not pay for the full check again."""

    def __init__(self) -> None:
        self._verdicts: dict[str, list[str]] = {}

    def check(self, job, returncode: int) -> list[str]:
        if returncode != 0:
            lines = _read(job.stderr_file).strip().splitlines()
            return [f"{job.name}: exit code {returncode}: {lines[-1] if lines else ''}"]
        key = _digest(job, returncode)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = CHECKERS[job.kind](job)
            except (OSError, ValueError, KeyError, ArithmeticError) as exc:
                self._verdicts[key] = [f"{job.name}: output unreadable ({type(exc).__name__}: {exc})"]
        return self._verdicts[key]


def corrupt(job) -> None:
    """Damage a job's output in place so that its check must fail: move a
    density estimate by 0.05, otherwise change the last digit of the output."""
    if job.kind == "density":
        report = json.loads(job.stdout_file.read_text())
        report["value"] = str(Decimal(report["value"]) + Decimal("0.05"))
        job.stdout_file.write_text(json.dumps(report))
        return
    path = job.out_file if job.out_file is not None else job.stdout_file
    data = bytearray(path.read_bytes())
    for i in range(len(data) - 1, -1, -1):
        if 48 <= data[i] <= 57:
            data[i] = 48 + (data[i] - 48 + 1) % 10
            break
    path.write_bytes(bytes(data))
