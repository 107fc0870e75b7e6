"""Growth sequences, density ratio traces and their acceleration.

The density of a nested pair of subgroupoids is the limit of the ratio of
their growth (cumulative counting) sequences.  Ratios are exact big-integer
quotients converted to fixed-precision decimals only at the boundary;
Aitken's delta-squared process then extrapolates the slowly converging
trace.  A growth sequence is constant between multiples of the gcd of the
lengths at which its counts are nonzero, so the trace is accelerated on
each residue class modulo the lcm p of the two periods.  When the class
limits differ, as they do for a longitudinal family whose gcd exceeds 1,
there is no density: the estimate reports the period and the per-residue
values, whose exact closed forms :func:`longitudinal_asymptote` gives.
"""

from __future__ import annotations

import math
from collections import deque
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .reporting import CheckReport
from .sequences import BigSeq, _atomic_write, _csv_text, catalan_numbers
from .subgroupoids import (
    GenFamily,
    Longitudinal,
    closure_up_to,
    counting_sequence,
    format_family,
    longitudinal_counting,
    rank_lambda,
    semigroup_info,
)
from .terms import Term, product

DEFAULT_DECIMAL_DIGITS = 30
LOG10_2 = math.log10(2)


def growth(a: BigSeq) -> BigSeq:
    """Cumulative sums: entry n is a_1 + ... + a_n."""
    return BigSeq(accumulate(a))


class RatioTrace(NamedTuple):
    """Growth-ratio samples (n, value) plus indices skipped for zero
    denominators."""

    samples: tuple[tuple[int, Decimal], ...]
    skipped: tuple[int, ...]

    def values(self) -> list[Decimal]:
        return [v for _, v in self.samples]


def ratio_trace(
    numer: BigSeq, denom: BigSeq, precision: int = DEFAULT_DECIMAL_DIGITS
) -> RatioTrace:
    """Ratios of growth sequences of two counting sequences.

    Each sample is the exact rational |N|_<=n / |M|_<=n rounded half-even
    to ``precision`` significant digits.  Indices where the denominator
    growth is still zero are skipped and flagged.
    """
    samples: list[tuple[int, Decimal]] = []
    skipped: list[int] = []
    for n, gn, gm in zip(range(1, len(numer) + 1), accumulate(numer), accumulate(denom)):
        if gm == 0:
            skipped.append(n)
            continue
        samples.append((n, _rounded_quotient(gn, gm, precision)))
    return RatioTrace(tuple(samples), tuple(skipped))


def _rounded_quotient(num: int, den: int, precision: int) -> Decimal:
    """``Decimal(num) / Decimal(den)`` at ``precision`` digits, half-even,
    from one integer divmod: ``Decimal(int)`` is quadratic in the digit
    count, the divmod is linear when the quotient is short.

    The quotient is scaled to exactly ``precision`` digits and rounded; an
    exact quotient takes the exponent closest to the ideal exponent 0, as
    Decimal division does.
    """
    sign = "-" if (num < 0) != (den < 0) else ""
    if num == 0:
        return Decimal(f"{sign}0")
    num, den = abs(num), abs(den)
    top = 10**precision
    # floor(log10(num/den)), estimated from bit lengths and corrected below.
    magnitude = math.floor((num.bit_length() - den.bit_length()) * LOG10_2)
    while True:
        exp = magnitude - precision + 1
        scaled_num = num * 10**-exp if exp < 0 else num
        scaled_den = den * 10**exp if exp > 0 else den
        q, r = divmod(scaled_num, scaled_den)
        if q >= top:
            magnitude += 1
        elif q < top // 10:
            magnitude -= 1
        else:
            break
    if r:
        twice = 2 * r
        if twice > scaled_den or (twice == scaled_den and q % 2):
            q += 1
            if q == top:
                q, exp = q // 10, exp + 1
    else:
        while exp < 0 and q % 10 == 0:
            q, exp = q // 10, exp + 1
    return Decimal(f"{sign}{q}E{exp}")


def aitken(xs: Sequence[Decimal], precision: int = DEFAULT_DECIMAL_DIGITS) -> list[Decimal | None]:
    """Aitken delta-squared acceleration.

    y_n = (x_n x_{n+2} - x_{n+1}^2) / (x_n + x_{n+2} - 2 x_{n+1}); entries
    whose denominator is below 10^-max(precision - 6, 2) in absolute value
    are emitted as None (skipped) rather than divided.
    """
    eps = Decimal(10) ** -(max(precision - 6, 2))
    out: list[Decimal | None] = []
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.rounding = ROUND_HALF_EVEN
        for i in range(len(xs) - 2):
            x0, x1, x2 = xs[i], xs[i + 1], xs[i + 2]
            den = x0 + x2 - 2 * x1
            if abs(den) < eps:
                out.append(None)
                continue
            out.append((x0 * x2 - x1 * x1) / den)
    return out


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


class LongitudinalAsymptote(NamedTuple):
    """Exact per-residue growth-ratio limits of a longitudinal family."""

    p: int
    per_residue: tuple[Fraction, ...]

    def mean(self) -> Fraction:
        return sum(self.per_residue, Fraction(0)) / len(self.per_residue)


def longitudinal_asymptote(lengths: Iterable[int]) -> LongitudinalAsymptote:
    """Closed-form ratio asymptotes: residue r of p = gcd(lengths) tends to
    3 / (4^(r+1) (1 - 4^-p))."""
    p = math.gcd(*Longitudinal(lengths).lengths)
    scale = 1 - Fraction(1, 4**p)
    residues = tuple(Fraction(3, 4 ** (r + 1)) / scale for r in range(p))
    return LongitudinalAsymptote(p, residues)


def longitudinal_convergence_check(
    lengths: Iterable[int], n_max: int, tolerance: float
) -> CheckReport:
    """Empirical ratio trace vs. the exact asymptote, per residue class.

    Also checks the supporting limit c_{kp} / (c_p + ... + c_{kp}) ->
    1 - 4^-p at the horizon.  All comparisons are exact rationals against
    the given tolerance.
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
    passed = worst_err <= tol and aux_err <= tol
    return CheckReport(
        name=f"longitudinal-convergence-p{p}",
        passed=passed,
        details=(
            f"worst residue {worst_residue}: |ratio - asymptote| = {float(worst_err):.2e}, "
            f"aux limit error {float(aux_err):.2e}, tolerance {tolerance}"
        ),
        data={
            "p": p,
            "n_max": n_max,
            "worst_error": float(worst_err),
            "aux_error": float(aux_err),
            "tolerance": tolerance,
        },
    )


class DensityEstimate(NamedTuple):
    """Result of a density estimation run.

    ``value`` is the accelerated point estimate (None when the trace
    oscillates); ``status`` is one of ``converged``, ``inconclusive``,
    ``oscillating``.  ``per_residue`` carries the estimate of each residue
    class n mod ``oscillation_period`` when the classes tend to distinct
    limits.  ``window_spread`` is the largest spread of a class window and
    ``last_step_delta`` the last step of n_max's class.
    """

    value: Decimal | None
    status: str
    n_max: int
    precision: int
    trace: RatioTrace
    accelerated: tuple[tuple[int, Decimal], ...]
    oscillation_period: int | None = None
    per_residue: tuple[Decimal, ...] | None = None
    last_step_delta: Decimal | None = None
    window_spread: Decimal | None = None


def _period(seq: BigSeq) -> int:
    """The gcd of the lengths at which ``seq`` is nonzero (1 if none): the
    growth sequence is constant between multiples of it."""
    return math.gcd(*(n for n, v in enumerate(seq, 1) if v)) or 1


def _fit_class(
    samples: list[tuple[int, Decimal]], digits: int
) -> tuple[list[tuple[int, Decimal]], Decimal, Decimal | None, Decimal | None]:
    """Aitken's process on the samples of one residue class: the accelerated
    samples, the last accelerated value (the last sample when Aitken skips
    every entry), the spread of the last five accelerated values (None with
    fewer) and the last step between them."""
    accel_raw = aitken([v for _, v in samples], precision=digits)
    accelerated = [(samples[i + 2][0], y) for i, y in enumerate(accel_raw) if y is not None]
    tail = [v for _, v in accelerated[-5:]]
    if not tail:
        return accelerated, samples[-1][1], None, None
    spread = max(tail) - min(tail) if len(tail) == 5 else None
    delta = abs(tail[-1] - tail[-2]) if len(tail) >= 2 else None
    return accelerated, tail[-1], spread, delta


def estimate_density(
    family_n: GenFamily,
    family_m: GenFamily,
    n_max: int,
    precision: int = 8,
) -> DensityEstimate:
    """Estimate the density of <family_n> with respect to <family_m>.

    Builds both counting sequences to ``n_max`` and forms the growth-ratio
    trace.  Its period p is the lcm of the two sequences' :func:`_period`;
    Aitken's process accelerates each class n mod p on its own.  The trace
    is ``oscillating`` when every class has a full window of five
    accelerated values and the class estimates differ by more than
    10^-precision plus the largest class spread.  Otherwise the estimate is
    that of n_max's class, ``converged`` when every class has a full window
    whose spread is within 10^-precision.  Callers are responsible for
    actual nestedness of the two families; ratios outside [0, 1] are not
    checked.  The point estimate is reported even when flagged
    ``inconclusive``.
    """
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    digits = max(DEFAULT_DECIMAL_DIGITS, precision + 10)
    seq_n = counting_sequence(family_n, n_max)
    seq_m = counting_sequence(family_m, n_max)
    trace = ratio_trace(seq_n, seq_m, precision=digits)
    if not trace.samples:
        raise ValueError("denominator growth is identically zero; no trace")
    p = math.lcm(_period(seq_n), _period(seq_m))
    classes: dict[int, list[tuple[int, Decimal]]] = {}
    for sample in trace.samples:
        classes.setdefault(sample[0] % p, []).append(sample)
    fits = {r: _fit_class(classes[r], digits) for r in sorted(classes)}
    accelerated, estimates, spreads, _ = zip(*fits.values())
    full = len(fits) == p and None not in spreads
    spread = max((s for s in spreads if s is not None), default=None)
    tol = Decimal(10) ** -precision
    oscillating = full and max(estimates) - min(estimates) > tol + spread
    _, value, _, delta = fits[trace.samples[-1][0] % p]
    converged = full and spread <= tol
    status = "oscillating" if oscillating else "converged" if converged else "inconclusive"
    return DensityEstimate(
        value=None if oscillating else value,
        status=status,
        n_max=n_max,
        precision=precision,
        trace=trace,
        accelerated=tuple(sorted(s for samples in accelerated for s in samples)),
        oscillation_period=p if oscillating else None,
        per_residue=estimates if oscillating else None,
        last_step_delta=delta,
        window_spread=spread,
    )


def density_report(
    estimate: DensityEstimate,
    family_n: GenFamily | str,
    family_m: GenFamily | str,
    trace_csv_path: str | None = None,
    accelerated_csv_path: str | None = None,
    runtime_seconds: float | None = None,
) -> dict:
    """JSON-ready report of a density run."""
    label_n = family_n if isinstance(family_n, str) else format_family(family_n)
    label_m = family_m if isinstance(family_m, str) else format_family(family_m)
    report: dict = {
        "family_n": label_n,
        "family_m": label_m,
        "n_max": estimate.n_max,
        "precision": estimate.precision,
        "status": estimate.status,
    }
    if estimate.status == "oscillating":
        report["value"] = "undefined-oscillating"
        report["oscillation_period"] = estimate.oscillation_period
        report["per_residue"] = [str(v) for v in estimate.per_residue or ()]
    else:
        report["value"] = str(estimate.value)
        if estimate.window_spread is not None:
            report["window_spread"] = str(estimate.window_spread)
        if estimate.last_step_delta is not None:
            report["last_step_delta"] = str(estimate.last_step_delta)
    report["trace_csv_path"] = trace_csv_path
    report["accelerated_csv_path"] = accelerated_csv_path
    report["runtime_seconds"] = runtime_seconds
    return report


def write_trace_csv(path: str | Path, samples: Iterable[tuple[int, Decimal]]) -> None:
    """Write (n, value) decimal samples as ``n,value`` rows, atomically."""
    _atomic_write(Path(path), _csv_text(samples))


def density_algebra_checks(
    translation_fixtures: Sequence[tuple[Term, frozenset[Term], int]] | None = None,
    nested_fixtures: Sequence[tuple[frozenset[Term], frozenset[Term], frozenset[Term], int]]
    | None = None,
) -> CheckReport:
    """Finite-horizon checks of the density algebra on closure enumerations.

    Translation: |aH|_{len(a) n} = |H|_n entry-wise, and |aH|_m = 0 away
    from multiples of len(a).  Multiplicativity: for nested N, N', N'' the
    growth-ratio product (N/N')(N'/N'') telescopes exactly to N/N'', and
    every ratio lies in [0, 1].
    """
    from .terms import leaf, right_comb

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
                return CheckReport(
                    name="density-algebra",
                    passed=False,
                    details=f"translation identity fails at length {m}",
                    first_failure=m,
                )
    for inner, middle, outer, n_max in nested_fixtures:
        levels = [closure_up_to(g, n_max) for g in (inner, middle, outer)]
        growths = zip(*(accumulate(map(len, lv[1:])) for lv in levels))
        for n, sums in enumerate(growths, start=1):
            if sums[2] == 0:
                continue
            r_outer = Fraction(sums[0], sums[2])
            if not (0 <= r_outer <= 1):
                return CheckReport(
                    name="density-algebra",
                    passed=False,
                    details=f"ratio outside [0,1] at n={n}",
                    first_failure=n,
                )
            if sums[1] == 0:
                continue
            lhs = Fraction(sums[0], sums[1]) * Fraction(sums[1], sums[2])
            if lhs != r_outer:
                return CheckReport(
                    name="density-algebra",
                    passed=False,
                    details=f"ratio product does not telescope at n={n}",
                    first_failure=n,
                )
    return CheckReport(
        name="density-algebra",
        passed=True,
        details=(
            f"translation identity and ratio multiplicativity hold on "
            f"{len(translation_fixtures)} + {len(nested_fixtures)} fixtures"
        ),
    )
