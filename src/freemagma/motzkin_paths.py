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

:func:`count_paths` solves a quadratic equation for the generating
function, derived from the spec, in time linear in the length; the height
DP :func:`_path_counts` is the reference it is tested against.
"""

from __future__ import annotations

import operator
from functools import reduce
from math import gcd
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .errors import check_memory
from .reporting import CheckReport, _Record
from .sequences import (
    _poly_add,
    _poly_mul,
    _poly_quotient,
    _poly_sub,
    _primitive_gcd,
    _quadratic_root,
    _series_quotient,
)

if TYPE_CHECKING:
    from .subgroupoids import GenFamily

STEPS = ("U", "D", "F")
_DELTA = {"U": 1, "D": -1, "F": 0}

# A listed path of at most PATH_CHARS characters (96 bytes) and its list slot:
# tracemalloc measures 74-78 bytes.  Each character past PATH_CHARS adds one.
PATH_CHARS = 40
PATH_BYTES = 120
# A completion table entry: its list slot with growth slack and its int
# header (16 + 24 bytes), and 4 bytes per 30 heights.
TABLE_ENTRY_BYTES = 40

BigramLike = Union[tuple[str, str], str]


class PathSpec(_Record):
    """Constraint bundle: path length, forbidden step bigrams, and per-step
    color multiplicities (default 1)."""

    __slots__ = ("length", "forbidden_bigrams", "color_multiplicity")
    length: int
    forbidden_bigrams: frozenset[tuple[str, str]]
    color_multiplicity: tuple[tuple[str, int], ...]

    def __init__(
        self,
        length: int,
        forbidden_bigrams: Iterable[BigramLike] = (),
        color_multiplicity: Mapping[str, int] | Iterable[tuple[str, int]] = (),
    ):
        length = operator.index(length)
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
            mult = operator.index(mult)
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            norm[step] = mult
        super().__init__(length, frozenset(bigrams), tuple(sorted(norm.items())))

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


def _path_equation(spec: PathSpec) -> tuple[list[int], list[int], list[int]]:
    """(alpha, beta, gamma), integer polynomials in x without a common
    factor, with alpha*M^2 + beta*M + gamma = 0 for the generating function
    M = sum_n count_n x^n of the spec's paths (docs/counting.md).

    A nonempty path is a sequence of primitives: an arch U X D around a path
    X, or a flat step F.  The arch series a sits in the diagonal matrix
    A = diag(a, c_F*x) of the two primitive types, and J says which types
    may follow which, so the nonempty paths from a first primitive of type
    i to a last of type j are P[i][j] of A*(I - J*A)^-1 = A*adj/det.  The
    numerators and the determinant are linear in a, so each is a pair
    (c0, c1) of polynomials in x meaning c0 + c1*a.  An arch adds c_U*c_D*x^2
    to UD or to a path X whose first and last steps may follow U and
    precede D, which makes the arch equation quadratic in a; M = 1 + sum P
    is a Moebius function (p + q*a)/(r + s*a) of a, and substituting its
    inverse into the arch equation gives M's equation.
    """

    def allowed(*bigrams: str) -> int:
        return int(all(tuple(bigram) not in spec.forbidden_bigrams for bigram in bigrams))

    def term(k: int, *factors: list[int]) -> list[int]:
        return [k * c for c in reduce(_poly_mul, factors)]

    flat = [0, spec.multiplicity("F")]  # c_F*x
    j_du, j_df, j_fu, j_ff = map(allowed, ("DU", "DF", "FU", "FF"))
    # det(I - J*A) = r + s*a.
    r = _poly_sub([1], term(j_ff, flat))
    s = _poly_sub(term(-j_du, r), term(j_df * j_fu, flat))
    # The entries c0 + c1*a of A*adj, keyed by the first and last step of their paths.
    paths = {
        "UD": ([], r),
        "UF": ([], term(j_df, flat)),
        "FD": ([], term(j_fu, flat)),
        "FF": (flat, term(-j_du, flat)),
    }
    # eps_UD*det + the entries whose paths may follow U and precede D.
    inner = [(r, s) if allowed("UD") else ([], [])]
    inner += [pair for key, pair in paths.items() if allowed("U" + key[0], key[1] + "D")]
    i0, i1 = (_poly_add(*side) for side in zip(*inner))
    weight = [0, 0, spec.multiplicity("U") * spec.multiplicity("D")]
    # The arch equation a*det = weight*inner, as e2*a^2 + e1*a + e0 = 0.
    e0, e1, e2 = term(-1, weight, i0), _poly_sub(r, _poly_mul(weight, i1)), s
    p, q = (_poly_add(*side) for side in zip((r, s), *paths.values()))  # det + every entry
    # e2*a^2 + e1*a + e0 = 0 at a = (p - r*M)/(s*M - q), times (s*M - q)^2.
    coeffs = [
        _poly_add(term(1, e2, r, r), term(-1, e1, r, s), term(1, e0, s, s)),
        _poly_add(term(-2, e2, p, r), term(1, e1, p, s), term(1, e1, r, q), term(-2, e0, s, q)),
        _poly_add(term(1, e2, p, p), term(-1, e1, p, q), term(1, e0, q, q)),
    ]
    common = reduce(_primitive_gcd, coeffs)
    common = [gcd(*(c for poly in coeffs for c in poly)) * c for c in common]
    alpha, beta, gamma = (_poly_quotient(poly, common) for poly in coeffs)
    return alpha, beta, gamma


def _equation_counts(spec: PathSpec) -> list[int]:
    """Weighted path counts of lengths 0..spec.length from the spec's
    equation alpha*M^2 + beta*M + gamma = 0.

    At x = 0 the arch equation is a*(1 - [UD allowed]*a) = 0 and M = 1 + a,
    so alpha(0) = 0 and beta(0) = +-1 for every spec (the removed common
    factor is +-1 at x = 0).  When alpha = 0, M = -gamma/beta is rational.
    Otherwise the discriminant beta^2 - 4*alpha*gamma is a polynomial that
    is 1 at x = 0, and :func:`_quadratic_root` solves for M.
    """
    alpha, beta, gamma = _path_equation(spec)
    if not alpha:
        return _series_quotient([-c for c in gamma], beta, spec.length)
    disc = _poly_sub(_poly_mul(beta, beta), [4 * c for c in _poly_mul(alpha, gamma)])
    return _quadratic_root(alpha, beta, disc, [0], spec.length)


def count_paths(spec: PathSpec) -> int:
    """Weighted number of paths satisfying the spec.  With no constraints
    and unit colors this is the Motzkin number M_length.  Counted from the
    spec's algebraic equation in time linear in the length."""
    return _equation_counts(spec)[-1]


def _completions(spec: PathSpec) -> dict[str, list[int]]:
    """table[last][r] has bit h set when r more steps, after a step ``last``
    at height h, can end at height 0 without dipping below it or taking a
    forbidden bigram.  Heights above min(r, length - r) are neither
    completable nor reachable."""
    n = spec.length
    table = {last: [1] for last in STEPS}
    for r in range(1, n + 1):
        full = (1 << (min(r, n - r) + 1)) - 1
        ends = {step: table[step][-1] for step in STEPS}
        for last, row in table.items():
            ok = 0
            for step in STEPS:
                if (last, step) not in spec.forbidden_bigrams:
                    # A step by delta from h lands on h + delta.
                    delta = _DELTA[step]
                    ok |= ends[step] >> delta if delta >= 0 else ends[step] << -delta
            row.append(ok & full)
    return table


def enumerate_paths(spec: PathSpec) -> list[str]:
    """Explicit listing of all (colored) paths of the spec.

    Steps with multiplicity m > 1 render with a color suffix digit, e.g.
    ``UF2DF1``; unit-multiplicity steps render bare.  The list length
    equals :func:`count_paths`.  Deterministic order: depth-first over
    steps U, D, F with ascending colors.  The search takes only steps after
    which the path can still be completed (:func:`_completions`), so it
    runs in time O(count * length).  A listing whose paths and completion
    table exceed the memory budget is refused before any path is built.
    """
    n = spec.length
    mult = {step: spec.multiplicity(step) for step in STEPS}
    count = count_paths(spec)
    chars = n * max(1 if m == 1 else 1 + len(str(m)) for m in mult.values())
    path_bytes = PATH_BYTES + max(chars - PATH_CHARS, 0)
    table_bytes = 3 * sum(TABLE_ENTRY_BYTES + 4 * (min(r, n - r) // 30 + 1) for r in range(n + 1))
    check_memory(f"listing {count:,} paths", count * path_bytes + table_bytes)
    if n == 0:
        return [""]
    table = _completions(spec)
    pieces = {
        step: [step] if m == 1 else [f"{step}{color}" for color in range(1, m + 1)]
        for step, m in mult.items()
    }
    follow = {
        last: [
            (step, _DELTA[step], pieces[step])
            for step in STEPS
            if (last, step) not in spec.forbidden_bigrams
        ]
        for last in (None, *STEPS)
    }
    out: list[str] = []
    # track[d] is the d-th step of the path under construction; the root's
    # slot track[0] stays empty.  A stack entry is a step and its depth,
    # pushed in reverse so that the listing order pops first.
    track = [""] * (n + 1)
    stack: list[tuple[str, int, str | None, int]] = [("", 0, None, 0)]
    while stack:
        piece, height, last, depth = stack.pop()
        track[depth] = piece
        depth += 1
        if depth == n:
            # The last step comes back to height 0.
            for step, delta, options in follow[last]:
                if height + delta == 0:
                    for option in options:
                        track[n] = option
                        out.append("".join(track))
            continue
        for step, delta, options in reversed(follow[last]):
            nh = height + delta
            if nh >= 0 and table[step][n - depth] >> nh & 1:
                for option in reversed(options):
                    stack.append((option, nh, step, depth))
    return out


def crosscheck_subgroupoid(
    spec: PathSpec, family: GenFamily, offset: int, n_max: int
) -> CheckReport:
    """Assert the path counts at lengths n - offset, all from one DP pass,
    equal the counting sequence of the family at 1 <= n <= n_max (negative
    lengths count 0)."""
    from .subgroupoids import counting_sequence, format_family

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
