"""Exact big-integer sequence kernels.

Everything in this module is exact: Catalan numbers, the quadratic
transform that turns a generator-counting sequence into a
subgroupoid-counting sequence, the one solver for power series that are
roots of quadratics and the dense integer polynomials they are built on.
No floating point, no rounding; divisions assert exactness.  The Motzkin
numbers, the multinomial counting formula, truncated power-series
verification, the Catalan bounds and the Catalan/Motzkin binomial
identities, which only the checks read, are in :mod:`freemagma.checks`;
the five that the benchmark traces under this module still resolve here.

Sequences are 1-indexed (:class:`BigSeq`), matching the length grading of
the term algebra, so entry ``k`` of the whole magma's counting sequence is
the number of terms of length ``k``, i.e. the (k-1)-th Catalan number.
"""

from __future__ import annotations

import contextvars
import os
import stat
import sys
import tempfile
from collections import deque
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
    setcontext,
)
from functools import partial
from itertools import chain, islice, repeat, starmap
from math import log2
from operator import sub
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO, Union

from .errors import ExactDivisionError, check_memory

if TYPE_CHECKING:
    from fractions import Fraction

Rational = Union[int, "Fraction"]
Term = tuple[int, int, int, int]  # (j, s, a, b) of _recurrence_terms

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


def __getattr__(name: str):
    # Only the benchmark's TRACED (bench/child.py) reads these checks here.
    if name in (
        "catalan_bounds_check", "catalan_c", "catalan_motzkin_identities", "motzkin_numbers",
        "series_identity_check",
    ):
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        return BigSeq((self._entries + (0,) * (n_max - len(self._entries)))[:n_max])

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self._entries[:8])
        more = ", ..." if len(self._entries) > 8 else ""
        return f"BigSeq([{shown}{more}], len={len(self._entries)})"


def _exact_div(num: int, den: int) -> int:
    """num / den for an int or (under EXACT_DECIMAL) integral Decimal ``num``."""
    q, r = divmod(num, den)
    if r:
        # The numerator may be past the int->str digit limit; report its size.
        dec = isinstance(num, Decimal)
        size = f"{num.adjusted() + 1}-digit decimal" if dec else f"{num.bit_length()}-bit integer"
        raise ExactDivisionError(f"a {size} is not divisible by {den} (remainder {r})")
    return q


def catalan_numbers(count: int) -> list[int]:
    """[C_0, C_1, ..., C_{count-1}]: the values of :func:`_catalan_series`,
    priced first as a counting sequence of ``count`` entries is priced, at
    16 KiB and the rate of C_n < 4^n."""
    check_memory(f"the first {count:,} Catalan numbers", _ints_bytes(count, 2) + 16384)
    return list(_catalan_series(count))


def _catalan_series(count: int, one: int = 1) -> Iterator[int]:
    """C_0, C_1, ..., C_{count-1} via the exact ratio recurrence, started
    from ``one`` (``Decimal(1)`` under EXACT_DECIMAL gives the values in
    base 10), holding one value."""
    if count <= 0:
        return
    c = one
    yield c
    for n in range(count - 1):
        c = _exact_div(c * (4 * n + 2), n + 2)
        yield c


def cat_transform(a: BigSeq) -> BigSeq:
    """Quadratic transform b_1 = a_1, b_n = a_n + sum_{i+j=n, 0<i,j<n} b_i b_j.

    Turns the counting sequence of a minimal generating set into the
    counting sequence of the subgroupoid it generates.  Schoolbook O(n^2)
    convolution (halved by symmetry); exact integers throughout.  It holds
    every value, so it is priced before the first product at the rate of
    :func:`_transform_rate`.
    """
    price = _ints_bytes(len(a), _transform_rate(a))
    check_memory(f"the schoolbook transform to length {len(a):,}", price)
    return BigSeq(_schoolbook_transform(a.entries))


def _transform_rate(a: Iterable[int]) -> float:
    """Bits per length of the transform of ``a``: |b_n| <= (5A)^n, A = max(1, max_i |a_i|^(1/i)),
    as its coefficients are >= 0, Cat(A^n a_n) = A^n Cat(a_n) and Cat(1, 1, ...) <= 5^n."""
    return max((log2(abs(v)) / i for i, v in enumerate(a, 1) if v), default=0) + log2(5)


def _ints_bytes(n: int, rate: float) -> int:
    """A bound on n ints, entry k of at most rate*k + 1 bits, held in a list
    and a tuple: an int of B bits takes 28 bytes and 4 more per 30 bits,
    and a slot in each (44 bytes with the header's rounding)."""
    return 44 * n + int(4 * (rate * n * (n + 1) / 2 + n) / 30)


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


def _quadratic_root(
    alpha: list[int], beta: list[int], p0: Sequence[int], p1: Sequence[int], n_max: int, one: int = 1
) -> Iterator[int]:
    """M_0, ..., M_{n_max} of M = (beta(0)*Q - beta)/(2*alpha), the power
    series root of alpha*M^2 + beta*M + gamma = 0 with discriminant
    beta^2 - 4*alpha*gamma = p0 + p1*S, where Q is :func:`_sqrt_series`
    started from ``one``.  ``alpha`` is a nonzero polynomial whose lowest
    terms x^v cancel, so Q runs to n_max + v; beta(0) is +-1.  The input is
    checked at once, and the values are made as they are read.
    """
    v = next(i for i, c in enumerate(alpha) if c)
    # The recurrence is linear, so starting it from beta(0)*one gives beta(0)*Q.
    q = _sqrt_series(p0, p1, n_max + v, beta[0] * one)
    num = chain(map(sub, islice(q, len(beta)), beta), q)
    return _series_quotient(num, [2 * c for c in alpha], n_max)


# Past n_max / _DENSE_SHARE nonzero entries a histogram takes the schoolbook;
# the timings that set it are in docs/counting.md, "The square-root form".
_DENSE_SHARE = 5


def _histogram_counts(hist: Sequence[int], n_max: int, one: int) -> Iterator[int]:
    """b_1..b_{n_max} of :func:`cat_transform` of ``hist`` (read to n_max),
    made from ``one`` as they are read: the Catalan series for the leaf
    alone, else the schoolbook or :func:`_quadratic_root`, priced at once."""
    hist = _trim(list(hist[:n_max]))
    if hist == [1]:
        return _catalan_series(n_max, one)
    if _DENSE_SHARE * (len(hist) - hist.count(0)) > n_max:
        # ``one * v`` is a Decimal made without text.
        return (one * v for v in cat_transform(BigSeq(hist).padded(n_max)))
    # It holds len(hist) values of Q = 1 - 2*Psi of rate*n_max + 2 bits or less, at
    # 4 bytes per 30 bits (a Decimal takes less) and 112 for a header and a slot.
    size = len(hist) * (112 + int(4 * (_transform_rate(hist) * n_max + 2) / 30))
    check_memory(f"the recurrence window of {len(hist):,} counts to length {n_max:,}", size)
    return islice(_quadratic_root([1], [-1], [1] + [-4 * c for c in hist], [0], n_max, one), 1, None)


def _exact_texts(counts: Callable[..., Iterator[Decimal]], *args) -> Iterator[str]:
    """The texts of ``counts(*args, Decimal(1))``, called at once; each value
    is made under EXACT_DECIMAL in a context entered for that step, not the
    reader's, and its ``str`` is linear in its digits."""
    exact = contextvars.Context()
    exact.run(setcontext, EXACT_DECIMAL.copy())
    values = exact.run(counts, *args, Decimal(1))
    return map(str, iter(partial(exact.run, next, values, None), None))


def _sqrt_series(p0: Sequence[int], p1: Sequence[int], n_max: int, one: int = 1) -> Iterator[int]:
    """q_0, ..., q_{n_max} of the power series Q with Q(0) = 1 and
    Q^2 = p0 + p1*S, S = sqrt(1-4x), for integer polynomials ``p0`` and
    ``p1`` (index = power) with p0(0) = 1 and p1(0) = 0, with Q and T
    started from ``one``; ``Decimal(1)`` under EXACT_DECIMAL runs the same
    steps in base 10.  When p1 = 0, Q^2 = p0 gives 2*p0*Q' = p0'*Q, a window
    of deg p0; else T = S*Q is carried with the polynomials of
    docs/counting.md ("Derivation") and a window of deg D.  The input is
    checked at once, and the values are made as they are read."""
    p0, p1 = list(p0) or [0], list(p1) or [0]
    if p0[0] != 1 or p1[0] != 0:
        raise ValueError("the square-root series needs p0(0) = 1 and p1(0) = 0")
    if not any(p1):
        return _sqrt_steps(n_max, one, _recurrence_terms(_poly_deriv(p0), [2 * c for c in p0], 0))
    w = [1, -4]
    alpha = _poly_deriv(p0)
    beta = _poly_sub(_poly_mul(_poly_deriv(p1), w), [2 * c for c in p1])
    norm = _poly_sub(_poly_mul(p0, p0), _poly_mul(_poly_mul(p1, p1), w))
    u = _poly_sub(_poly_mul(alpha, p0), _poly_mul(beta, p1))
    v = _poly_sub(_poly_mul(beta, p0), _poly_mul(_poly_mul(alpha, p1), w))
    d = _poly_mul([2 * c for c in norm], w)
    uw = _poly_mul(u, w)
    q_row = _recurrence_terms(uw, d, 0) + _recurrence_terms(v, [0], 1)
    t_row = _recurrence_terms(_poly_mul(v, w), [0], 0)
    t_row += _recurrence_terms(_poly_sub(uw, [4 * c for c in norm]), d, 1)
    return _sqrt_steps(n_max, one, q_row, t_row)


def _sqrt_steps(n_max: int, one: int, q_row: list[Term], t_row: Sequence[Term] = ()) -> Iterator[int]:
    """The steps of :func:`_sqrt_series` from the rows of q_n and, when T is
    carried, t_n, made in the type of ``one``.  Each window reaches the
    furthest term; a step that none reaches is +0."""
    zero = one - one
    q_row, t_row = ([(j, s, zero + a, zero + b) for j, s, a, b in row] for row in (q_row, t_row))
    depth = max((s for _, s, _, _ in q_row + t_row), default=1)
    windows = q, t = deque([one], maxlen=depth), deque([one], maxlen=depth)
    yield one
    for n in range(1, n_max + 1):
        # Both rows read step n - 1, so t_n is appended after q_n is made.
        t_n = _exact_div(_recurrence_step(t_row, windows, n), 2 * n) if t_row else zero
        q.append(_exact_div(_recurrence_step(q_row, windows, n) or zero, 2 * n))
        t.append(t_n)
        yield q[-1]


def _recurrence_terms(rhs: Sequence[int], lhs: Sequence[int], j: int) -> list[Term]:
    """(j, s, c0 - c1*s, c1) for the nonzero coefficients c0 + c1*(n-s) of
    the term s >= 1 steps back in window j in [x^(n-1)] of rhs*F - lhs*F'
    (lhs[0] excluded): the value s back times a + b*n."""
    top = max(len(rhs), len(lhs) - 1)
    terms = []
    for s in range(1, top + 1):
        c0 = rhs[s - 1] if s - 1 < len(rhs) else 0
        c1 = -lhs[s] if s < len(lhs) else 0
        if c0 or c1:
            terms.append((j, s, c0 - c1 * s, c1))
    return terms


def _recurrence_step(row: list[Term], windows: Sequence[deque], n: int) -> int:
    """The sum of the terms of ``row`` at step n, from ``windows`` that end
    with the values of step n - 1."""
    return sum((a + b * n) * windows[j][-s] for j, s, a, b in row if s <= n)


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


def _in_place(path: Path) -> bool:
    """Whether ``path`` is an existing file that is not a regular one, such
    as a FIFO or a device, which a rename would replace."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return False


@contextmanager
def _atomic_file(path: Path) -> Iterator[TextIO]:
    """A text file whose contents appear at ``path`` only when the block
    ends without an error: a temp file in the same directory, then renamed
    over ``path`` (removed on an error), so readers never see a partial
    file.  It gets the mode a plain ``open`` would give it, 0666 less the
    umask, not ``mkstemp``'s 0600.  A FIFO or a device is written in place."""
    if _in_place(path):
        with open(path, "w") as fh:
            yield fh
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            mask = os.umask(0)  # reading the umask means setting it, so it is put back
            os.umask(mask)
            os.fchmod(fh.fileno(), 0o666 & ~mask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str | Iterable[str]) -> None:
    """:func:`_write_lines` through :func:`_atomic_file`."""
    with _atomic_file(path) as fh:
        _write_lines(fh, text)


_CSV_HEADER, _csv_row = "n,value\n", "{},{}\n".format


def _csv_text(rows: Iterable[tuple[int, object]]) -> Iterator[str]:
    """The ``n,value`` header and one :func:`_csv_row` line per row, as
    pieces that are formatted only as they are written."""
    return chain((_CSV_HEADER,), starmap(_csv_row, rows))


def write_sequence_csv(path: str | Path, seq: BigSeq) -> None:
    """Write ``n,value`` rows atomically; values are exact decimal strings."""
    with unlimited_int_digits():
        _atomic_write(Path(path), _csv_text(enumerate(seq, start=1)))


def read_sequence_csv(path: str | Path, n_max: int | None = None) -> BigSeq:
    """Inverse of :func:`write_sequence_csv`; accepts ``n`` or ``index`` as
    the first header field and requires consecutive indices from 1.  With
    ``n_max`` >= 1, reading stops after row n_max: later rows are neither
    parsed nor validated."""
    # Only a run that reads a CSV pays for the csv module (0.11 MB of RSS).
    import csv

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


def _series_quotient(num: Iterable[int], den: Sequence[int], n_max: int) -> Iterator[int]:
    """Coefficients 0..n_max of the power series num/den, for a series
    ``num`` (zero past its end) divisible by the polynomial ``den`` (nonzero,
    no trailing zeros): den's lowest terms x^v cancel, which is checked at
    once, and each coefficient is then one exact division by den's lowest
    nonzero coefficient.  ``num`` is read as the coefficients are, and only
    the last deg den - v coefficients are held."""
    v = next(i for i, c in enumerate(den) if c)
    num = chain(num, repeat(0))
    low = list(islice(num, v))
    if any(low):
        raise ExactDivisionError(f"series {low}... is not divisible by x^{v}")
    if den[v] < 0:  # Decimal(0) // -3 is -0
        num, den = (-x for x in num), [-c for c in den]
    num, tail = islice(num, n_max + 1), [(0, i, -c, 0) for i, c in enumerate(den[v + 1 :], 1) if c]
    if not tail:
        # A constant divisor reads no earlier quotient: one C-level map, which
        # counts a subgroupoid (alpha = 1) about 5% faster than the steps.
        return map(_exact_div, num, repeat(den[v]))
    return _quotient_steps(num, den[v], tail)


def _quotient_steps(num: Iterator[int], lead: int, tail: list[Term]) -> Iterator[int]:
    out: deque = deque(maxlen=tail[-1][1])
    for n, x in enumerate(num):
        out.append(_exact_div(x + _recurrence_step(tail, (out,), n), lead))
        yield out[-1]
