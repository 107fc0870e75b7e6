"""Motzkin paths under step-bigram avoidance and step colorings.

A Motzkin path of length n walks from (0,0) to (n,0) with steps U (up),
D (down) and F (flat), never dipping below height 0.  A path spec can
forbid ordered step bigrams (a step immediately following another) and
assign color multiplicities to steps; a path then counts with weight equal
to the product of its steps' multiplicities.  Bigram constraints apply to
step letters only; colors multiply afterwards.

These counts cross-validate subgroupoid counting sequences: for the
families treated here the number of length-n subgroupoid elements equals
the constrained path count at length n - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import CapacityError, check_memory
from .reporting import CheckReport
from .subgroupoids import GenFamily, counting_sequence, format_family

STEPS = ("U", "D", "F")
_DELTA = {"U": 1, "D": -1, "F": 0}

# The length cap bounds the time of the depth-first listing.  A path of at most
# 40 characters (96 bytes) and its list slot: tracemalloc measures 74-78 bytes.
ENUMERATION_LENGTH_CAP = 20
PATH_BYTES = 120

BigramLike = Union[tuple[str, str], str]


@dataclass(frozen=True)
class PathSpec:
    """Constraint bundle: path length, forbidden step bigrams, and per-step
    color multiplicities (default 1)."""

    length: int
    forbidden_bigrams: frozenset[tuple[str, str]] = frozenset()
    color_multiplicity: tuple[tuple[str, int], ...] = ()

    def __init__(
        self,
        length: int,
        forbidden_bigrams: Iterable[BigramLike] = (),
        color_multiplicity: Mapping[str, int] | Iterable[tuple[str, int]] = (),
    ):
        if length < 0:
            raise ValueError(f"path length must be >= 0, got {length}")
        bigrams = set()
        for bg in forbidden_bigrams:
            pair = tuple(bg) if not isinstance(bg, str) else tuple(bg.strip())
            if len(pair) != 2 or any(s not in STEPS for s in pair):
                raise ValueError(f"bad bigram {bg!r}; expected a pair over U/D/F")
            bigrams.add((pair[0], pair[1]))
        if isinstance(color_multiplicity, Mapping):
            colors = color_multiplicity.items()
        else:
            colors = color_multiplicity
        norm = {}
        for step, mult in colors:
            if step not in STEPS:
                raise ValueError(f"unknown step {step!r}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            norm[step] = int(mult)
        object.__setattr__(self, "length", int(length))
        object.__setattr__(self, "forbidden_bigrams", frozenset(bigrams))
        object.__setattr__(
            self, "color_multiplicity", tuple(sorted(norm.items()))
        )

    def multiplicity(self, step: str) -> int:
        for s, m in self.color_multiplicity:
            if s == step:
                return m
        return 1


def _path_counts(spec: PathSpec) -> list[int]:
    """Weighted numbers of paths satisfying the spec at lengths 0..length.

    Dynamic programming over one row of weighted counts per last step,
    indexed by height; the empty prefix is the row with no last step.  Each
    step adds up the rows of the steps it may follow, shifts the sum by its
    height change, keeps the heights from which the path can still get back
    to 0 by length spec.length, and scales by its color multiplicity.  A
    path of length m <= spec.length that ends at height 0 is never cut by
    that bound (its height after j steps is at most m - j), so the height-0
    entries after m steps count the paths of length m.
    """
    n = spec.length
    rows: dict[str | None, list[int]] = {None: [1]}
    counts = [1]
    for pos in range(n):
        # Heights above n - pos - 1 cannot return to 0; above pos + 1 they
        # are out of reach.
        width = min(pos + 1, n - pos - 1) + 1
        new_rows = {}
        for step in STEPS:
            preds = [row for last, row in rows.items() if (last, step) not in spec.forbidden_bigrams]
            total = list(map(sum, zip(*preds)))
            delta = _DELTA[step]
            row = ([0] + total if delta > 0 else total[1:] if delta < 0 else total)[:width]
            row += [0] * (width - len(row))
            m = spec.multiplicity(step)
            new_rows[step] = [m * w for w in row] if m > 1 else row
        rows = new_rows
        counts.append(sum(row[0] for row in rows.values()))
    return counts


def count_paths(spec: PathSpec) -> int:
    """Weighted number of paths satisfying the spec.  With no constraints
    and unit colors this is the Motzkin number M_length."""
    return _path_counts(spec)[-1]


def enumerate_paths(spec: PathSpec) -> list[str]:
    """Explicit listing of all (colored) paths of the spec.

    Steps with multiplicity m > 1 render with a color suffix digit, e.g.
    ``UF2DF1``; unit-multiplicity steps render bare.  The list length
    equals :func:`count_paths`.  Deterministic order: depth-first over
    steps U, D, F with ascending colors.  Lengths past
    ``ENUMERATION_LENGTH_CAP`` and listings over the memory budget are
    refused before any path is built.
    """
    n = spec.length
    if n > ENUMERATION_LENGTH_CAP:
        raise CapacityError(f"enumeration of length {n} exceeds cap {ENUMERATION_LENGTH_CAP}")
    count = count_paths(spec)
    check_memory(f"listing {count:,} paths", count * PATH_BYTES)
    mult = {s: spec.multiplicity(s) for s in STEPS}
    out: list[str] = []
    track: list[str] = []

    def descend(pos: int, height: int, last: str | None) -> None:
        if pos == n:
            if height == 0:
                out.append("".join(track))
            return
        for step in STEPS:
            if last is not None and (last, step) in spec.forbidden_bigrams:
                continue
            nh = height + _DELTA[step]
            if nh < 0 or nh > n - pos - 1:
                continue
            m = mult[step]
            for color in range(1, m + 1):
                track.append(step if m == 1 else f"{step}{color}")
                descend(pos + 1, nh, step)
                track.pop()

    descend(0, 0, None)
    return out


def crosscheck_subgroupoid(
    spec: PathSpec, family: GenFamily, offset: int, n_max: int
) -> CheckReport:
    """Assert the path counts at lengths n - offset, all from one DP pass,
    equal the counting sequence of the family at 1 <= n <= n_max (negative
    lengths count 0)."""
    seq = counting_sequence(family, n_max)
    top = max(n_max - offset, 0)
    paths = _path_counts(PathSpec(top, spec.forbidden_bigrams, spec.color_multiplicity))
    got = [paths[n - offset] if n >= offset else 0 for n in range(1, n_max + 1)]
    first = next((n for n, (g, e) in enumerate(zip(got, seq), 1) if g != e), None)
    if first is not None:
        return CheckReport(
            name="motzkin-crosscheck",
            passed=False,
            details=(
                f"{format_family(family)}: path count {got[first - 1]} != "
                f"|N|_{first} = {seq[first]} (offset {offset})"
            ),
            first_failure=first,
        )
    return CheckReport(
        name="motzkin-crosscheck",
        passed=True,
        details=f"{format_family(family)} matches path counts for n <= {n_max} "
        f"(offset {offset})",
    )
