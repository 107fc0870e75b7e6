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
The paper's nullity criterion and the longitudinal-convergence and
density-algebra checks are in :mod:`freemagma.checks`.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .sequences import BigSeq, _atomic_write, _csv_text
from .subgroupoids import GenFamily, Longitudinal, _counts, format_family

DEFAULT_DECIMAL_DIGITS = 30
LOG10_2 = math.log10(2)


def __getattr__(name: str):
    # Verification code lives in freemagma.checks, loaded when its old name is read.
    if name in (
        "NullDensityVerdict", "density_algebra_checks", "fg_null_density_test",
        "longitudinal_convergence_check",
    ):
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    numer: Iterable[int], denom: Iterable[int], precision: int = DEFAULT_DECIMAL_DIGITS
) -> RatioTrace:
    """Ratios of growth sequences of two counting sequences, read in
    lockstep as far as both go; only the running sums are held.

    Each sample is the exact rational |N|_<=n / |M|_<=n rounded half-even
    to ``precision`` significant digits.  Indices where the denominator
    growth is still zero are skipped and flagged.
    """
    ctx = Context(prec=precision, rounding=ROUND_HALF_EVEN)
    samples: list[tuple[int, Decimal]] = []
    skipped: list[int] = []
    for n, (gn, gm) in enumerate(zip(accumulate(numer), accumulate(denom)), 1):
        if gm == 0:
            skipped.append(n)
            continue
        samples.append((n, _rounded_quotient(gn, gm, ctx)))
    return RatioTrace(tuple(samples), tuple(skipped))


def _rounded_quotient(num: int, den: int, ctx: Context) -> Decimal:
    """``ctx.divide(Decimal(num), Decimal(den))`` from one integer divmod:
    ``Decimal(int)`` is quadratic in the digit count, the divmod is linear
    when the quotient is short, and the divisor ``2 10^t`` is read from its
    digits in linear time.

    The scale ``t`` gives ``q = floor(|num| 10^t / |den|)`` at least
    ``ctx.prec + 1`` digits, so every half-way point of rounding to
    ``ctx.prec`` digits is a multiple of ``10^-t`` and no rounding boundary
    lies strictly between ``q 10^-t`` and ``(q+1) 10^-t``.  With a nonzero
    remainder, ``(2q+1) / (2 10^t)`` lies strictly inside that gap, as
    ``|num/den|`` does, so both round alike.  With none, the two quotients
    are equal, and both divisions have the ideal exponent 0, so an exact
    quotient (``0.5``, ``-0``, ``1E+40``) keeps its exponent too.
    """
    t = max(0, ctx.prec + 2 - math.floor((abs(num).bit_length() - abs(den).bit_length()) * LOG10_2))
    q, r = divmod(abs(num) * 10**t, abs(den))
    x = ctx.divide(Decimal(2 * q + (r > 0)), Decimal("2" + "0" * t))
    return x.copy_negate() if (num < 0) != (den < 0) else x


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


class _Counts:
    """A counting sequence read once, as it is made, that notes the gcd of
    the lengths at which its counts are nonzero: the growth sequence is
    constant between multiples of that period (1 while there is none)."""

    __slots__ = ("values", "support_gcd")

    def __init__(self, values: Iterable[int]):
        self.values = values
        self.support_gcd = 0

    def __iter__(self) -> Iterator[int]:
        for n, v in enumerate(self.values, 1):
            if v:
                self.support_gcd = math.gcd(self.support_gcd, n)
            yield v

    @property
    def period(self) -> int:
        return self.support_gcd or 1


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

    Reads both counting sequences to ``n_max`` in lockstep, as they are
    made, and keeps only the growth-ratio trace.  Its period p is the lcm
    of the two sequences' periods (:class:`_Counts`);
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
    seq_n, seq_m = _Counts(_counts(family_n, n_max, 1)), _Counts(_counts(family_m, n_max, 1))
    trace = ratio_trace(seq_n, seq_m, precision=digits)
    if not trace.samples:
        raise ValueError("denominator growth is identically zero; no trace")
    p = math.lcm(seq_n.period, seq_m.period)
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
