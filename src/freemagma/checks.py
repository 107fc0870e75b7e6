"""Code that only :mod:`freemagma.verify` and the tests run: the Motzkin
numbers, the signed transform, the Catalan/Motzkin binomial identities,
the multinomial formula, series verification and the Catalan bounds; the
nullity criterion and the longitudinal and density-algebra checks; and the
height DP of Motzkin paths with the subgroupoid crosscheck that reads it.

Each check raises :class:`Mismatch` at its first disagreement and
otherwise returns its details text, or ``(details, data)``.

No other command imports this module.  The eight of its names that the
benchmark traces under :mod:`~freemagma.sequences`, :mod:`~freemagma.density`
and :mod:`~freemagma.motzkin_paths` also resolve there, by ``__getattr__``.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, log2, prod
from typing import Iterable, Sequence

from .density import longitudinal_asymptote
from .errors import check_memory
from .motzkin_paths import _DELTA, STEPS, PathSpec
from .sequences import (
    BigSeq,
    _exact_div,
    _poly_mul,
    _schoolbook_transform,
    cat_transform,
    catalan_numbers,
)
from .subgroupoids import (
    GenFamily,
    Longitudinal,
    brute_count,
    closure_up_to,
    counting_sequence,
    format_family,
    longitudinal_counting,
    rank_lambda,
    semigroup_info,
)
from .terms import Term, leaf, product, right_comb


class Mismatch(Exception):
    """A check's first disagreement: its details text, the first index at
    which an entry-wise check diverged, when that applies, and its data."""

    def __init__(self, details: str, first_failure: int | None = None, data: dict | None = None):
        super().__init__(details, first_failure, data)
        self.details, self.first_failure, self.data = details, first_failure, data


def catalan_c(n_max: int) -> BigSeq:
    """Counting sequence of the full magma: entry n is C_{n-1}."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return BigSeq(catalan_numbers(n_max))


def cat_transform_signed(a: Sequence[int | Fraction]) -> list[Fraction]:
    """Same recurrence over exact rationals.

    Exists to exercise the scaling law Cat(alpha^n a_n) = alpha^n Cat(a_n)
    and its signed special case for alpha outside the integers.
    """
    return _schoolbook_transform([Fraction(v) for v in a])


def motzkin_numbers(count: int) -> list[int]:
    """[M_0, M_1, ..., M_{count-1}] via the exact recurrence
    (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}."""
    out = [1, 1][: max(count, 0)]
    for n in range(2, count):
        out.append(_exact_div((2 * n + 1) * out[-1] + 3 * (n - 1) * out[-2], n + 2))
    return out


# The second binomial identity is printed in the literature with the Catalan
# index off by two; the offset that actually holds, C_{n+1} = sum_k
# binom(n, k) M_k, is checked entry by entry in catalan_motzkin_identities.
MOTZKIN_TO_CATALAN_OFFSET = 1


def catalan_motzkin_identities(n_max: int) -> str:
    """Entry-wise check of both Catalan/Motzkin binomial identities.

    Identity 1: M_n = sum_{k<=n/2} binom(n,2k) C_k.
    Identity 2: C_{n+1} = sum_{k<=n} binom(n,k) M_k (verified offset).
    """
    cats = catalan_numbers(n_max + 2)
    mots = motzkin_numbers(n_max + 1)
    for n in range(n_max + 1):
        lhs = sum(comb(n, 2 * k) * cats[k] for k in range(n // 2 + 1))
        if lhs != mots[n]:
            raise Mismatch(f"M_n = sum binom(n,2k) C_k fails at n={n}", n)
        rhs = sum(comb(n, k) * mots[k] for k in range(n + 1))
        if rhs != cats[n + MOTZKIN_TO_CATALAN_OFFSET]:
            raise Mismatch(
                f"C_(n+{MOTZKIN_TO_CATALAN_OFFSET}) = sum binom(n,k) M_k fails at n={n}", n
            )
    return (
        f"both identities hold for 0 <= n <= {n_max} "
        f"(Catalan offset +{MOTZKIN_TO_CATALAN_OFFSET})"
    )


def multinomial_count(alphas: Sequence[int], n: int) -> int:
    """Number of length-n elements of the subgroupoid whose minimal
    generators have the given lengths (with multiplicity).

    Sums multinomial(q_1..q_r) * c_{q_1+..+q_r} over all nonnegative
    solutions of alpha_1 q_1 + ... + alpha_r q_r = n with some q_i > 0.
    Generators are grouped by length: h parallel generators of one length
    contribute a factor h^{s} for s leaves assigned to that length, which
    is an exact regrouping of the per-generator sum.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not alphas:
        return 0
    if any(a < 1 for a in alphas):
        raise ValueError("generator lengths must be >= 1")
    mult: dict[int, int] = {}
    for a in alphas:
        mult[a] = mult.get(a, 0) + 1
    lengths = sorted(mult)
    k_cap = n // min(lengths)
    cats = [0] + catalan_numbers(k_cap)  # cats[k] = c_k = C_{k-1}, c_0 = 0

    total = 0
    counts: list[int] = []

    def descend(idx: int, remaining: int) -> None:
        nonlocal total
        if idx == len(lengths):
            if remaining != 0:
                return
            k = sum(counts)
            if k == 0:
                return
            coeff = _exact_div(factorial(k), prod(factorial(s) for s in counts))
            weight = prod(mult[lengths[i]] ** counts[i] for i in range(len(counts)))
            total += coeff * weight * cats[k]
            return
        step = lengths[idx]
        for s in range(remaining // step + 1):
            counts.append(s)
            descend(idx + 1, remaining - s * step)
            counts.pop()

    descend(0, n)
    return total


def series_identity_check(a: BigSeq, order: int = 64) -> str:
    """Verify Psi = Psi^2 + Phi coefficient-wise, where Phi is the ordinary
    generating function of ``a`` (constant term 0) and Psi that of its
    transform.

    The series square is an independent schoolbook product, so this
    cross-checks the transform's internal convolution.
    """
    eff = min(order, len(a))
    phi = [0] + list(a.entries[:eff])
    psi = [0] + list(cat_transform(a.prefix(eff)).entries)
    psi_sq = _poly_mul(psi, psi)[: eff + 1]
    for n in range(eff + 1):
        if psi[n] != psi_sq[n] + phi[n]:
            raise Mismatch(f"Psi != Psi^2 + Phi at order {n}", n)
    return f"Psi = Psi^2 + Phi holds to order {eff}"


# Rational enclosure of pi, 40 significant digits (truncation < true value).
PI_LOWER = Fraction(3141592653589793238462643383279502884197, 10**39)
PI_UPPER = PI_LOWER + Fraction(1, 10**39)


def catalan_bounds_check(n_max: int) -> str:
    """Exact verification of the Catalan bounds.

    Weak form (for 4 <= n <= n_max): 4^n / (n+1)^2 < C_n < 4^n, checked in
    integer arithmetic.  Sharp form (for 1 <= n <= n_max):

        4^n / ((n+1) sqrt(pi n 4n/(4n-1))) < C_n < 4^n / ((n+1) sqrt(pi n (4n+1)/(4n)))

    checked by squaring both sides over exact rationals, with pi replaced
    by a rational enclosure (lower bound proves the left inequality, upper
    bound the right one).
    """
    cats = catalan_numbers(n_max + 1)
    for n in range(4, n_max + 1):
        c = cats[n]
        p4 = 4**n
        if not (p4 < c * (n + 1) ** 2 and c < p4):
            raise Mismatch(f"weak bound fails at n={n}", n)
    for n in range(1, n_max + 1):
        c2 = Fraction(cats[n] ** 2 * (n + 1) ** 2)
        p16 = Fraction(4 ** (2 * n))
        lower_ok = p16 < c2 * PI_LOWER * n * Fraction(4 * n, 4 * n - 1)
        upper_ok = c2 * PI_UPPER * n * Fraction(4 * n + 1, 4 * n) < p16
        if not (lower_ok and upper_ok):
            raise Mismatch(f"sharp bound fails at n={n}", n)
    return f"weak bounds (4..{n_max}) and sharp bounds (1..{n_max}) hold"


class NullDensityVerdict(Enum):
    NULL_BY_THEOREM = "null-by-theorem"
    INCONCLUSIVE = "inconclusive"


def fg_null_density_test(gens: Iterable[Term]) -> NullDensityVerdict:
    """Nullity criterion for finitely generated subgroupoids.

    Null density is certified when rank < 4^(lambda - 1) for the minimal
    generating set; otherwise the test says nothing (it never certifies
    positive density).
    """
    rank, lam = rank_lambda(gens)
    if rank < 4 ** (lam - 1):
        return NullDensityVerdict.NULL_BY_THEOREM
    return NullDensityVerdict.INCONCLUSIVE


def longitudinal_convergence_check(
    lengths: Iterable[int], n_max: int, tolerance: float
) -> tuple[str, dict]:
    """Empirical ratio trace vs. the exact asymptote, per residue class.

    Also checks the supporting limit c_{kp} / (c_p + ... + c_{kp}) ->
    1 - 4^-p at the horizon.  All comparisons are exact rationals against
    the given tolerance; the errors go with the details, pass or fail.
    """
    lset = Longitudinal(lengths).lengths
    asym = longitudinal_asymptote(lset)
    p = asym.p
    info = semigroup_info(lset)
    if n_max <= p * max(info.frobenius, 0):
        raise ValueError(
            f"n_max={n_max} too small: need n_max > {p * max(info.frobenius, 0)}"
        )
    counting = longitudinal_counting(lset, n_max)
    cats = catalan_numbers(n_max)
    tol = Fraction(str(tolerance))
    # Only the last ratio of each residue class is read: keep the last p sums.
    last = deque(zip(range(1, n_max + 1), accumulate(counting), accumulate(cats)), maxlen=p)
    latest = {n % p: Fraction(gl, gm) for n, gl, gm in last}
    worst_err = Fraction(0)
    worst_residue = -1
    for r in range(p):
        err = abs(latest[r] - asym.per_residue[r])
        if err > worst_err:
            worst_err = err
            worst_residue = r
    # Supporting limit, evaluated at the largest multiple of p in range.
    k_top = n_max - (n_max % p)
    tail = Fraction(cats[k_top - 1], sum(cats[k - 1] for k in range(p, k_top + 1, p)))
    aux_err = abs(tail - (1 - Fraction(1, 4**p)))
    details = (
        f"worst residue {worst_residue}: |ratio - asymptote| = {float(worst_err):.2e}, "
        f"aux limit error {float(aux_err):.2e}, tolerance {tolerance}"
    )
    data = {
        "p": p,
        "n_max": n_max,
        "worst_error": float(worst_err),
        "aux_error": float(aux_err),
        "tolerance": tolerance,
    }
    if worst_err > tol or aux_err > tol:
        raise Mismatch(details, None, data)
    return details, data


def density_algebra_checks(
    translation_fixtures: Sequence[tuple[Term, frozenset[Term], int]] | None = None,
    nested_fixtures: Sequence[tuple[frozenset[Term], frozenset[Term], frozenset[Term], int]]
    | None = None,
) -> str:
    """Finite-horizon checks of the density algebra on exact level sizes.

    Translation: |aH|_{len(a) n} = |H|_n entry-wise, and |aH|_m = 0 away
    from multiples of len(a), on closure enumerations.  Multiplicativity:
    for nested N, N', N'' the growth-ratio product (N/N')(N'/N'')
    telescopes exactly to N/N'', and every ratio lies in [0, 1], on the
    counts of :func:`brute_count`, which builds no term and holds a byte
    per term of one family at a time.
    """
    two = leaf() + leaf()
    if translation_fixtures is None:
        translation_fixtures = [(two, frozenset({two, right_comb(3)}), 7)]
    if nested_fixtures is None:
        nested_fixtures = [
            (
                frozenset({two}),
                frozenset({two, right_comb(3)}),
                frozenset({leaf()}),
                10,
            )
        ]

    for a, gens, n_max in translation_fixtures:
        la = a.length
        base = closure_up_to(gens, n_max)
        shifted = closure_up_to(frozenset(product(a, g) for g in gens), la * n_max)
        for m in range(1, la * n_max + 1):
            expected = len(base[m // la]) if m % la == 0 else 0
            if len(shifted[m]) != expected:
                raise Mismatch(f"translation identity fails at length {m}", m)
    for inner, middle, outer, n_max in nested_fixtures:
        counts = [brute_count(g, n_max) for g in (inner, middle, outer)]
        growths = zip(*map(accumulate, counts))
        for n, sums in enumerate(growths, start=1):
            if sums[2] == 0:
                continue
            r_outer = Fraction(sums[0], sums[2])
            if not (0 <= r_outer <= 1):
                raise Mismatch(f"ratio outside [0,1] at n={n}", n)
            if sums[1] == 0:
                continue
            lhs = Fraction(sums[0], sums[1]) * Fraction(sums[1], sums[2])
            if lhs != r_outer:
                raise Mismatch(f"ratio product does not telescope at n={n}", n)
    return (
        f"translation identity and ratio multiplicativity hold on "
        f"{len(translation_fixtures)} + {len(nested_fixtures)} fixtures"
    )


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


def crosscheck_subgroupoid(
    spec: PathSpec, family: GenFamily, offset: int, n_max: int
) -> str:
    """Assert the path counts at lengths n - offset, all from one DP pass,
    equal the counting sequence of the family at 1 <= n <= n_max (negative
    lengths count 0).  Both are priced first, ints at 28 bytes and 4 more
    per 30 bits: the counts, below 4^n for terms, with two slots each, and
    the DP's m+1 counts and at most eight rows of m/2 + 2 entries, below
    (3c)^m for the largest colour multiplicity c, plus 8 KiB.  The
    tracemalloc peak is 0.2 to 0.56 of this price for n = 10 to 1000."""
    top = max(n_max - offset, 0)
    spec = PathSpec(top, spec.forbidden_bigrams, spec.color_multiplicity)
    bits = top * log2(3 * max(spec.multiplicity(step) for step in STEPS))
    price = n_max * (44 + 4 * (2 * n_max // 30 + 1)) + 8192
    price += (top + 1 + 8 * (top // 2 + 2)) * (36 + 4 * int(bits / 30 + 1))
    check_memory(f"the crosscheck of {format_family(family)} to length {n_max:,}", price)
    seq = counting_sequence(family, n_max)
    paths = _path_counts(spec)
    got = [paths[n - offset] if n >= offset else 0 for n in range(1, n_max + 1)]
    first = next((n for n, (g, e) in enumerate(zip(got, seq), 1) if g != e), None)
    if first is not None:
        raise Mismatch(
            f"{format_family(family)}: path count {got[first - 1]} != "
            f"|N|_{first} = {seq[first]} (offset {offset})",
            first,
        )
    return f"{format_family(family)} matches path counts for n <= {n_max} (offset {offset})"
