"""Exact big-integer sequence kernels.

Everything in this module is exact: Catalan and Motzkin numbers, the
quadratic transform that turns a generator-counting sequence into a
subgroupoid-counting sequence, the one solver for power series that are
roots of quadratics, the dense integer polynomials they are built on, the
multinomial counting formula, truncated power-series verification and the
classic Catalan/Motzkin binomial identities.  No floating point, no
rounding; divisions assert exactness.

Sequences are 1-indexed (:class:`BigSeq`), matching the length grading of
the term algebra, so ``catalan_c(n)[k]`` is the number of terms of length
``k``, i.e. the (k-1)-th Catalan number.
"""

from __future__ import annotations

import csv
import os
import sys
import tempfile
from contextlib import contextmanager
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Rounded,
)
from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, lcm, prod
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, Union

from .errors import ExactDivisionError
from .reporting import CheckReport

Rational = Union[int, Fraction]

# Exact decimal arithmetic for counts that are printed: no precision limit,
# and any rounding, invalid operation or division by zero raises.  Python's
# int->str conversion is quadratic in the digit count, str(Decimal) is linear,
# so a recurrence run on Decimal values yields its texts without conversion.
EXACT_DECIMAL = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero],
)


class BigSeq:
    """Immutable 1-indexed sequence of exact integers."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[int]):
        vals = tuple(entries)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"BigSeq entries must be int, got {type(v).__name__}")
        self._entries = vals

    @property
    def entries(self) -> tuple[int, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= len(self._entries):
            raise IndexError(f"index {n} outside 1..{len(self._entries)}")
        return self._entries[n - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BigSeq):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._entries)

    def prefix(self, k: int) -> "BigSeq":
        return BigSeq(self._entries[:k])

    def padded(self, n_max: int) -> "BigSeq":
        """Zero-extend (or truncate) to horizon ``n_max`` >= 0."""
        if n_max < 0:
            raise ValueError(f"horizon must be >= 0, got {n_max}")
        if len(self._entries) >= n_max:
            return BigSeq(self._entries[:n_max])
        return BigSeq(self._entries + (0,) * (n_max - len(self._entries)))

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self._entries[:8])
        more = ", ..." if len(self._entries) > 8 else ""
        return f"BigSeq([{shown}{more}], len={len(self._entries)})"


def _exact_div(num: int, den: int) -> int:
    """num / den for an int or (under EXACT_DECIMAL) integral Decimal ``num``."""
    q, r = divmod(num, den)
    if r:
        # The numerator may be past the int->str digit limit; report its size.
        if isinstance(num, Decimal):
            size = f"{num.adjusted() + 1}-digit decimal"
        else:
            size = f"{num.bit_length()}-bit integer"
        raise ExactDivisionError(f"a {size} is not divisible by {den} (remainder {r})")
    return q


def catalan_numbers(count: int, one: int = 1) -> list[int]:
    """[C_0, C_1, ..., C_{count-1}] via the exact ratio recurrence, started
    from ``one`` (``Decimal(1)`` under EXACT_DECIMAL gives the values in
    base 10)."""
    if count <= 0:
        return []
    out = [one]
    for n in range(count - 1):
        out.append(_exact_div(out[-1] * 2 * (2 * n + 1), n + 2))
    return out


def catalan_c(n_max: int) -> BigSeq:
    """Counting sequence of the full magma: entry n is C_{n-1}."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return BigSeq(catalan_numbers(n_max))


def cat_transform(a: BigSeq) -> BigSeq:
    """Quadratic transform b_1 = a_1, b_n = a_n + sum_{i+j=n, 0<i,j<n} b_i b_j.

    Turns the counting sequence of a minimal generating set into the
    counting sequence of the subgroupoid it generates.  Schoolbook O(n^2)
    convolution (halved by symmetry); exact integers throughout.
    """
    return BigSeq(_schoolbook_transform(a.entries))


def _schoolbook_transform(src: Sequence[Rational]) -> list[Rational]:
    """The recurrence of :func:`cat_transform` over ints or Fractions."""
    n_max = len(src)
    b: list[Rational] = [0] * (n_max + 1)
    if n_max:
        b[1] = src[0]
    for n in range(2, n_max + 1):
        s = 0
        for i in range(1, (n - 1) // 2 + 1):
            s += b[i] * b[n - i]
        s += s
        if n % 2 == 0:
            h = b[n // 2]
            s += h * h
        b[n] = src[n - 1] + s
    return b[1:]


def sqrt_series_counting(p0: Sequence[int], p1: Sequence[int], n_max: int) -> BigSeq:
    """Counting sequence b_1..b_{n_max} with b_n = -q_n/2, where Q = sum q_n x^n
    is the power series with Q(0) = 1 and Q^2 = p0 + p1*S, S = sqrt(1-4x).

    ``p0`` and ``p1`` are integer polynomials (index = power) with p0(0) = 1
    and p1(0) = 0.  When Psi = Psi^2 + Phi, Q = 1 - 2*Psi = sqrt(1 - 4*Phi),
    so a finite family is p0 = 1 - 4*Phi, p1 = 0 and the shifted family M+a
    is p0 = 1 - 2x^|a|, p1 = 2x^|a|.  Q comes from a linear recurrence with
    O(deg) small-by-bigint products and one exact division per step
    (:func:`_sqrt_series`, derivation in docs/counting.md).
    """
    return BigSeq(_quadratic_root([1], [-1], p0, p1, n_max)[1:])


def _quadratic_root(
    alpha: list[int], beta: list[int], p0: Sequence[int], p1: Sequence[int], n_max: int, one: int = 1
) -> list[int]:
    """[M_0, ..., M_{n_max}] of M = (beta(0)*Q - beta)/(2*alpha), the power
    series root of alpha*M^2 + beta*M + gamma = 0 with discriminant
    beta^2 - 4*alpha*gamma = p0 + p1*S, where Q is :func:`_sqrt_series`
    started from ``one``.  ``alpha`` is a nonzero polynomial whose lowest
    terms x^v cancel, so Q runs to n_max + v; beta(0) is +-1.
    """
    v = next(i for i, c in enumerate(alpha) if c)
    # The recurrence is linear, so starting it from beta(0)*one gives beta(0)*Q.
    num = _sqrt_series(p0, p1, n_max + v, beta[0] * one)
    # Zero coefficients are skipped: subtracting 0 still copies a big value.
    for i, c in enumerate(beta[: len(num)]):
        if c:
            num[i] -= c
    return _series_quotient(num, [2 * c for c in alpha], n_max)


def _sqrt_series(p0: Sequence[int], p1: Sequence[int], n_max: int, one: int = 1) -> list[int]:
    """[q_0, ..., q_{n_max}] of the series Q of :func:`sqrt_series_counting`,
    with Q and T started from ``one``; ``Decimal(1)`` under EXACT_DECIMAL
    runs the same steps in base 10.  The polynomials are those of
    docs/counting.md ("Derivation"), for T = S*Q; T is only carried when
    p1 != 0."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    p0, p1 = list(p0) or [0], list(p1) or [0]
    if p0[0] != 1 or p1[0] != 0:
        raise ValueError("the square-root series needs p0(0) = 1 and p1(0) = 0")
    w = [1, -4]
    alpha = _poly_deriv(p0)
    beta = _poly_sub(_poly_mul(_poly_deriv(p1), w), [2 * c for c in p1])
    norm = _poly_sub(_poly_mul(p0, p0), _poly_mul(_poly_mul(p1, p1), w))
    u = _poly_sub(_poly_mul(alpha, p0), _poly_mul(beta, p1))
    v = _poly_sub(_poly_mul(beta, p0), _poly_mul(_poly_mul(alpha, p1), w))
    d = _poly_mul([2 * c for c in norm], w)
    uw = _poly_mul(u, w)
    # Coefficient of the term s steps back is c0 + c1*(n - s); c1 = -D_s
    # moves D's tail to the right-hand side.
    q_from_q = _recurrence_terms(uw, d)
    q_from_t = _recurrence_terms(v, [0])
    t_from_q = _recurrence_terms(_poly_mul(v, w), [0])
    t_from_t = _recurrence_terms(_poly_sub(uw, [4 * c for c in norm]), d)
    with_t = any(p1)
    q = [one] + [0] * n_max
    t = [one] + [0] * n_max if with_t else []
    for n in range(1, n_max + 1):
        acc = _recurrence_step(q_from_q, q, n)
        if with_t:
            acc += _recurrence_step(q_from_t, t, n)
            t[n] = _exact_div(
                _recurrence_step(t_from_q, q, n) + _recurrence_step(t_from_t, t, n), 2 * n
            )
        q[n] = _exact_div(acc, 2 * n)
    return q


def _recurrence_terms(rhs: Sequence[int], lhs: Sequence[int]) -> list[tuple[int, int, int]]:
    """(s, c0, c1) for the nonzero coefficients c0 + c1*(n-s) of the term
    s >= 1 steps back in [x^(n-1)] of rhs*F - lhs*F' (lhs[0] excluded)."""
    top = max(len(rhs), len(lhs) - 1)
    terms = []
    for s in range(1, top + 1):
        c0 = rhs[s - 1] if s - 1 < len(rhs) else 0
        c1 = -lhs[s] if s < len(lhs) else 0
        if c0 or c1:
            terms.append((s, c0, c1))
    return terms


def _recurrence_step(terms: list[tuple[int, int, int]], seq: list[int], n: int) -> int:
    return sum((c0 + c1 * (n - s)) * seq[n - s] for s, c0, c1 in terms if s <= n)


def cat_transform_signed(a: Sequence[Rational]) -> list[Fraction]:
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


def motzkin(n_max: int) -> BigSeq:
    """Shifted Motzkin sequence: entry n is M_{n-1}."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return BigSeq(motzkin_numbers(n_max))


# The second binomial identity is printed in the literature with the Catalan
# index off by two; the offset that actually holds, C_{n+1} = sum_k
# binom(n, k) M_k, is checked entry by entry in catalan_motzkin_identities.
MOTZKIN_TO_CATALAN_OFFSET = 1


def catalan_motzkin_identities(n_max: int) -> CheckReport:
    """Entry-wise check of both Catalan/Motzkin binomial identities.

    Identity 1: M_n = sum_{k<=n/2} binom(n,2k) C_k.
    Identity 2: C_{n+1} = sum_{k<=n} binom(n,k) M_k (verified offset).
    """
    cats = catalan_numbers(n_max + 2)
    mots = motzkin_numbers(n_max + 1)
    for n in range(n_max + 1):
        lhs = sum(comb(n, 2 * k) * cats[k] for k in range(n // 2 + 1))
        if lhs != mots[n]:
            return CheckReport(
                name="catalan-motzkin-identities",
                passed=False,
                details=f"M_n = sum binom(n,2k) C_k fails at n={n}",
                first_failure=n,
            )
        rhs = sum(comb(n, k) * mots[k] for k in range(n + 1))
        if rhs != cats[n + MOTZKIN_TO_CATALAN_OFFSET]:
            return CheckReport(
                name="catalan-motzkin-identities",
                passed=False,
                details=f"C_(n+{MOTZKIN_TO_CATALAN_OFFSET}) = sum binom(n,k) M_k fails at n={n}",
                first_failure=n,
            )
    return CheckReport(
        name="catalan-motzkin-identities",
        passed=True,
        details=f"both identities hold for 0 <= n <= {n_max} "
        f"(Catalan offset +{MOTZKIN_TO_CATALAN_OFFSET})",
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


def series_identity_check(a: BigSeq, order: int = 64) -> CheckReport:
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
            return CheckReport(
                name="series-identity",
                passed=False,
                details=f"Psi != Psi^2 + Phi at order {n}",
                first_failure=n,
            )
    return CheckReport(
        name="series-identity",
        passed=True,
        details=f"Psi = Psi^2 + Phi holds to order {eff}",
    )


# Rational enclosure of pi, 40 significant digits (truncation < true value).
PI_LOWER = Fraction(3141592653589793238462643383279502884197, 10**39)
PI_UPPER = PI_LOWER + Fraction(1, 10**39)


def catalan_bounds_check(n_max: int) -> CheckReport:
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
            return CheckReport(
                name="catalan-bounds",
                passed=False,
                details=f"weak bound fails at n={n}",
                first_failure=n,
            )
    for n in range(1, n_max + 1):
        c2 = Fraction(cats[n] ** 2 * (n + 1) ** 2)
        p16 = Fraction(4 ** (2 * n))
        lower_ok = p16 < c2 * PI_LOWER * n * Fraction(4 * n, 4 * n - 1)
        upper_ok = c2 * PI_UPPER * n * Fraction(4 * n + 1, 4 * n) < p16
        if not (lower_ok and upper_ok):
            return CheckReport(
                name="catalan-bounds",
                passed=False,
                details=f"sharp bound fails at n={n}",
                first_failure=n,
            )
    return CheckReport(
        name="catalan-bounds",
        passed=True,
        details=f"weak bounds (4..{n_max}) and sharp bounds (1..{n_max}) hold",
    )


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift Python's int<->str digit limit (4300 digits by default) for the
    duration of one serialisation call, and restore it afterwards.

    Exact counts pass that limit near n = 7150 for the full magma; every
    conversion of sequence values to or from text runs inside this block.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python releases without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _write_lines(fh: TextIO, text: str | Iterable[str]) -> None:
    """Write ``text`` newline-terminated, without copying it to append one.

    ``text`` is an iterable of nonempty string pieces, each written as it
    comes (the text layer buffers small writes, and a long stream is never
    held whole), or one short string, written as one piece.
    """
    piece = ""
    for piece in (text,) if isinstance(text, str) else text:
        fh.write(piece)
    if piece[-1:] != "\n":
        fh.write("\n")


def _atomic_write(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text`` (as for :func:`_write_lines`) newline-terminated to
    ``path`` through a temp file in the same directory and a rename, so
    readers never see a partial file.  The file gets the mode a plain
    ``open`` would give it, 0666 less the umask, not ``mkstemp``'s 0600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            _write_lines(fh, text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _umask() -> int:
    """The process umask; reading it means setting it, so it is put back."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _csv_text(rows: Iterable[tuple[int, object]]) -> Iterator[str]:
    """The ``n,value`` header and one ``n,value`` line per row, as pieces
    that are formatted only as they are written."""
    return chain(("n,value\n",), (f"{n},{v}\n" for n, v in rows))


def write_sequence_csv(path: str | Path, seq: BigSeq) -> None:
    """Write ``n,value`` rows atomically; values are exact decimal strings."""
    with unlimited_int_digits():
        _atomic_write(Path(path), _csv_text(enumerate(seq, start=1)))


def read_sequence_csv(path: str | Path, n_max: int | None = None) -> BigSeq:
    """Inverse of :func:`write_sequence_csv`; accepts ``n`` or ``index`` as
    the first header field and requires consecutive indices from 1.  With
    ``n_max`` >= 1, reading stops after row n_max: later rows are neither
    parsed nor validated."""
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    with open(path, newline="") as fh, unlimited_int_digits():
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip().lower() not in ("n", "index"):
            raise ValueError(f"{path}: expected header 'n,value'")
        values = []
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: malformed row {row_no}")
            if int(row[0]) != len(values) + 1:
                raise ValueError(f"{path}: non-consecutive index at row {row_no}")
            values.append(int(row[1]))
            if len(values) == n_max:
                break
    return BigSeq(values)


# ---------------------------------------------------------------------------
# Dense integer polynomials: coefficient lists, index = power

def _poly_add(*polys: Sequence[int]) -> list[int]:
    out = [0] * max(map(len, polys), default=0)
    for poly in polys:
        for i, c in enumerate(poly):
            out[i] += c
    return out


def _poly_mul(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    out = [0] * (len(xs) + len(ys) - 1)
    for i, xi in enumerate(xs):
        if xi:
            for j, yj in enumerate(ys):
                if yj:
                    out[i + j] += xi * yj
    return out


def _poly_sub(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    return _poly_add(xs, [-c for c in ys])


def _poly_deriv(xs: Sequence[int]) -> list[int]:
    return [i * xs[i] for i in range(1, len(xs))] or [0]


def _trim(xs: list) -> list:
    """``xs`` without trailing zero coefficients."""
    top = len(xs)
    while top and not xs[top - 1]:
        top -= 1
    return xs[:top]


def _primitive_gcd(xs: list[int], ys: list[int]) -> list[int]:
    """The primitive greatest common divisor of two integer polynomials,
    with a positive leading coefficient: Euclid over the rationals, then
    denominators and content cleared.  [] when both are 0."""
    xs, ys = [Fraction(c) for c in _trim(xs)], [Fraction(c) for c in _trim(ys)]
    while ys:
        while len(xs) >= len(ys):
            f = xs[-1] / ys[-1]
            shift = len(xs) - len(ys)
            for i, c in enumerate(ys):
                xs[shift + i] -= f * c
            xs = _trim(xs)
        xs, ys = ys, xs
    if not xs:
        return []
    scale = lcm(*(c.denominator for c in xs))
    ints = [int(c * scale) for c in xs]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def _poly_quotient(xs: list[int], ys: list[int]) -> list[int]:
    """xs / ys for integer polynomials, ys with a nonzero leading
    coefficient, without trailing zeros: the series quotient to degree
    len(xs) - len(ys), which must multiply back to xs."""
    out = _series_quotient(list(xs), ys, max(len(xs) - len(ys), -1))
    if any(_poly_sub(xs, _poly_mul(out, ys))):
        raise ExactDivisionError(f"polynomial {ys} does not divide {xs}")
    return _trim(out)


def _series_quotient(num: list[int], den: list[int], n_max: int) -> list[int]:
    """Coefficients 0..n_max of the power series num/den, for a series
    ``num`` (zero past its end) divisible by the polynomial ``den`` (nonzero,
    no trailing zeros): den's lowest terms x^v cancel, and each coefficient
    is then one exact division by den's lowest nonzero coefficient.  The
    quotient overwrites ``num``, so that one big-integer sequence is alive."""
    v = next(i for i, c in enumerate(den) if c)
    if any(num[:v]):
        raise ExactDivisionError(f"series {num[:v]}... is not divisible by x^{v}")
    del num[:v], num[n_max + 1 :]
    num += [0] * (n_max + 1 - len(num))
    lead, tail = den[v], [(i, c) for i, c in enumerate(den[v + 1 :], 1) if c]
    for n in range(n_max + 1):
        if tail:
            num[n] -= sum(c * num[n - i] for i, c in tail if i <= n)
        num[n] = _exact_div(num[n], lead)
    return num
