"""Growth sequences, density ratio traces and their acceleration.

The density of a nested pair of subgroupoids is the limit of the ratio of
their growth (cumulative counting) sequences.  Ratios are exact big-integer
quotients converted to fixed-precision decimals only at the boundary;
Aitken's delta-squared process then extrapolates the slowly converging
trace, each sample and accelerated value handed on as it is made.  A
growth sequence is constant between multiples of its period, the gcd of
the lengths at which its counts are nonzero, which
:func:`freemagma.subgroupoids._period` reads from the family before the
first count.  The trace is accelerated on each residue class modulo the
lcm p of the two periods as its samples come, so no sample is held.  When
the class limits differ, as they do for a longitudinal family whose gcd
exceeds 1, there is no density: the estimate reports the period and the
per-residue values, whose exact closed forms :func:`longitudinal_asymptote`
gives.  The paper's nullity criterion and the other density checks are in
:mod:`freemagma.checks`; the two that the benchmark traces under this
module still resolve here.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from functools import partial
from itertools import accumulate, count
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import figure
from .sequences import BigSeq, _atomic_write, _catalan_series, _csv_text
from .subgroupoids import ExplicitSeq, GenFamily, Longitudinal, _counts, _period, format_family

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_DECIMAL_DIGITS = 30
LOG10_2 = math.log10(2)
Sink = Callable[[tuple[int, Decimal]], object]


def __getattr__(name: str):
    # Only the benchmark's TRACED (bench/child.py) reads these checks here.
    if name in ("density_algebra_checks", "longitudinal_convergence_check"):
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def growth(a: BigSeq) -> BigSeq:
    """Cumulative sums: entry n is a_1 + ... + a_n."""
    return BigSeq(accumulate(a))


class RatioTrace(NamedTuple):
    """Growth-ratio samples (n, value); an n whose denominator growth is
    zero has none."""

    samples: tuple[tuple[int, Decimal], ...]

    def values(self) -> list[Decimal]:
        return [v for _, v in self.samples]


def ratio_trace(
    numer: Iterable[int], denom: Iterable[int], precision: int = DEFAULT_DECIMAL_DIGITS
) -> RatioTrace:
    """Ratios of growth sequences of two counting sequences, read in
    lockstep as far as both go; only the running sums are held.

    Each sample is the exact rational |N|_<=n / |M|_<=n rounded half-even
    to ``precision`` significant digits.  Indices where the denominator
    growth is still zero are skipped.
    """
    return RatioTrace(tuple(_ratio_samples(numer, denom, precision)))


def _ratio_samples(
    numer: Iterable[int], denom: Iterable[int], precision: int
) -> Iterator[tuple[int, Decimal]]:
    """The samples of :func:`ratio_trace` as they are made."""
    ctx = Context(prec=precision, rounding=ROUND_HALF_EVEN)
    for n, (gn, gm) in enumerate(zip(accumulate(numer), accumulate(denom)), 1):
        if gm:
            yield n, _rounded_quotient(gn, gm, ctx)


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


def aitken(xs: Iterable[Decimal], precision: int = DEFAULT_DECIMAL_DIGITS) -> list[Decimal | None]:
    """Aitken delta-squared acceleration.

    y_n = (x_n x_{n+2} - x_{n+1}^2) / (x_n + x_{n+2} - 2 x_{n+1}); entries
    whose denominator is below 10^-max(precision - 6, 2) in absolute value
    are emitted as None (skipped) rather than divided.
    """
    step = _Aitken(precision)
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.rounding = ROUND_HALF_EVEN
        return [step(x) for x in xs][2:]


class _Aitken:
    """The steps of :func:`aitken` on values fed one at a time, under the
    caller's context: it holds the last two values and the last five
    accelerated ones."""

    __slots__ = ("eps", "x0", "x1", "tail")

    def __init__(self, precision: int):
        self.eps = Decimal(10) ** -(max(precision - 6, 2))
        self.x0 = self.x1 = None
        self.tail: deque[Decimal] = deque(maxlen=5)

    def __call__(self, x2: Decimal) -> Decimal | None:
        x0, x1 = self.x0, self.x1
        self.x0, self.x1 = x1, x2
        if x0 is None:
            return None
        den = x0 + x2 - 2 * x1
        if abs(den) < self.eps:
            return None
        self.tail.append((x0 * x2 - x1 * x1) / den)
        return self.tail[-1]

    def summary(self) -> tuple[Decimal, Decimal | None, Decimal | None]:
        """The last accelerated value (the last value when every step was
        skipped), the spread of the last five (None with fewer) and the
        last step between them."""
        tail = self.tail
        if not tail:
            return self.x1, None, None
        spread = max(tail) - min(tail) if len(tail) == 5 else None
        delta = abs(tail[-1] - tail[-2]) if len(tail) >= 2 else None
        return tail[-1], spread, delta


class LongitudinalAsymptote(NamedTuple):
    """Exact per-residue growth-ratio limits of a longitudinal family."""

    p: int
    per_residue: tuple[Fraction, ...]

    def mean(self) -> Fraction:
        return sum(self.per_residue) / len(self.per_residue)


def longitudinal_asymptote(lengths: Iterable[int]) -> LongitudinalAsymptote:
    """Closed-form ratio asymptotes: residue r of p = gcd(lengths) tends to
    3 / (4^(r+1) (1 - 4^-p))."""
    from fractions import Fraction

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


def estimate_density(
    family_n: GenFamily,
    family_m: GenFamily,
    n_max: int,
    precision: int = 8,
    trace_sink: Sink | None = None,
    accelerated_sink: Sink | None = None,
) -> DensityEstimate:
    """Estimate the density of <family_n> with respect to <family_m>, to
    ``precision`` >= 6 significant digits over a horizon ``n_max`` >= 3.

    One pass reads both counting sequences to ``n_max`` in lockstep, as
    they are made, and hands each trace sample and accelerated value to
    ``trace_sink`` and ``accelerated_sink`` in increasing n, under the
    pass's decimal context; a sink left None is a list returned in
    ``trace`` or ``accelerated``.  The trace's period p, the lcm of the two
    families' periods (:func:`freemagma.subgroupoids._period`), is known
    before the first count, so Aitken's process accelerates each class
    n mod p on its own as the samples come, and no sample is held.
    The trace is ``oscillating`` when every class has a full window of five
    accelerated values and the class estimates differ by more than
    10^-precision plus the largest class spread.  Otherwise the estimate is
    that of n_max's class, ``converged`` when every class has a full window
    whose spread is within 10^-precision and whose last value lies within
    10^-precision of the last at n <= n_max // 2, and is reported even when
    ``inconclusive``.  An explicit sequence counts a subgroupoid only when
    no count b_n exceeds C_(n-1), the number of terms of length n: the
    first that does raises ValueError.  Nestedness, and so a ratio above 1
    between two subgroupoids, is not checked.
    """
    if precision < 6:
        raise ValueError(f"precision must be >= 6 significant digits, got {precision}")
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    digits = max(DEFAULT_DECIMAL_DIGITS, precision + 10)
    seq_n = _member_counts(family_n, n_max, "numerator")
    seq_m = _member_counts(family_m, n_max, "denominator")
    p = math.lcm(_period(family_n, n_max) or 1, _period(family_m, n_max) or 1)
    samples: list[tuple[int, Decimal]] = []
    accelerated: list[tuple[int, Decimal]] = []
    emit, emit_accelerated = trace_sink or samples.append, accelerated_sink or accelerated.append
    fits: defaultdict[int, _Aitken] = defaultdict(lambda: _Aitken(digits))
    halves: dict[int, Decimal] = {}  # each class's last accelerated value at n <= n_max // 2
    n = 0
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        for n, x in _ratio_samples(seq_n, seq_m, digits):
            emit((n, x))
            y = fits[n % p](x)
            if y is not None:
                emit_accelerated((n, y))
                if n <= n_max // 2:
                    halves[n % p] = y
        if not n:
            raise ValueError("denominator growth is identically zero; no trace")
    summaries = {r: fits[r].summary() for r in sorted(fits)}
    estimates, spreads, _ = zip(*summaries.values())
    full = len(fits) == p and None not in spreads
    spread = max((s for s in spreads if s is not None), default=None)
    tol = Decimal(10) ** -precision
    oscillating = full and max(estimates) - min(estimates) > tol + spread
    value, _, delta = summaries[n % p]
    # A ratio d + e/n leaves Aitken's values near d + e/(2n): their window
    # agrees long before that bias is small, but the gap to half the
    # horizon tracks it.
    settled = all(r in halves and abs(summaries[r][0] - halves[r]) <= tol for r in summaries)
    converged = full and spread <= tol and settled
    status = "oscillating" if oscillating else "converged" if converged else "inconclusive"
    return DensityEstimate(
        value=None if oscillating else value,
        status=status,
        n_max=n_max,
        precision=precision,
        trace=RatioTrace(tuple(samples)),
        accelerated=tuple(accelerated),
        oscillation_period=p if oscillating else None,
        per_residue=estimates if oscillating else None,
        last_step_delta=delta,
        window_spread=spread,
    )


def _member_counts(family: GenFamily, n_max: int, side: str) -> Iterator[int]:
    """|N|_1..|N|_{n_max} of ``family``; an explicit sequence's are read
    beside C_0, C_1, ... and checked by :func:`_member_count`."""
    counts = _counts(family, n_max, 1)
    if not isinstance(family, ExplicitSeq):
        return counts
    return map(partial(_member_count, side), count(1), counts, _catalan_series(n_max))


def _member_count(side: str, n: int, members: int, terms: int) -> int:
    """``members``, the count at length n of the ``side`` family, or a
    ValueError when it exceeds ``terms``, the number of terms of that length."""
    if members > terms:
        have = "term has" if terms == 1 else "terms have"
        raise ValueError(
            f"the {side} has {figure(members)} members of length {n}, "
            f"but only {figure(terms)} {have} that length"
        )
    return members


def density_report(
    estimate: DensityEstimate,
    family_n: GenFamily | str,
    family_m: GenFamily | str,
    trace_csv_path: str | None = None,
    accelerated_csv_path: str | None = None,
    runtime_seconds: float | None = None,
) -> dict:
    """JSON-ready report of a density run."""
    report: dict = {
        "family_n": family_n if isinstance(family_n, str) else format_family(family_n),
        "family_m": family_m if isinstance(family_m, str) else format_family(family_m),
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
