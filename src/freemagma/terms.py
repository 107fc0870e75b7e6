"""Term algebra of the free magma on a single generator.

A term is a finite binary tree: every leaf is the generator ``1`` and every
internal node is an ordered, non-associative sum of its two children.  A
term is its fully parenthesised text, such as ``(1+(1+1))``: a
:class:`Term` keeps that one string and nothing else.  Equality, hashing,
order and output go through it, a term of length L prints 4L-3
characters, and the root children are read back from it on demand.

The canonical encoding is the preorder Lukasiewicz word over ``{'1', '0'}``
(internal node = ``1``, leaf = ``0``).  It can be read off the text:
dropping ``+`` and ``)`` leaves the preorder sequence of ``(`` (internal)
and ``1`` (leaf).  The encoding gives the total order (by length, then
lexicographically) that the enumeration below follows.  For two terms of
the same length that order is the reverse of text order: up to the first
preorder node where the trees differ the texts agree, and there the
internal node prints ``(``, which sorts below ``1``, while it encodes as
``1``, which sorts above ``0``.  Levels are therefore in descending text
order, and no code needs to be kept.

Two builders make term levels.  The listing of one level of the whole
magma (:func:`iter_level_texts`, behind ``enumerate``, :func:`enumerate_terms`
and :func:`iter_terms_up_to`) yields it in descending text order from
C-level string operations rather than one step per text; it lives in
:mod:`freemagma.listing`, which only those callers import.

Closures of generator sets, the shifted family M+a among them, are built
by the closure DP of :func:`freemagma.subgroupoids.family_levels`, which
prices its levels with :func:`_check_levels` and wraps them with
:func:`_wrap_texts`.  The listing cannot serve them: its blocks copy whole
levels behind each head, and a seed ``(a+c)`` with ``c`` outside the
closure falls inside the block of head ``a``.  All operations are pure and
the module keeps no state.
"""

from __future__ import annotations

import gc
from itertools import chain
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import TermParseError, check_length, check_memory, figure
from .sequences import catalan_numbers

V = TypeVar("V")


class Term:
    """An element of the free magma on one generator, kept as its text.
    Use :func:`leaf`, :func:`sum_terms` (or the ``+`` operator) and
    :func:`parse_term` to build instances; the constructor trusts its text."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    @property
    def length(self) -> int:
        return (len(self.text) + 3) // 4

    @property
    def is_leaf(self) -> bool:
        return self.text == "1"

    @property
    def left(self) -> Term | None:
        """The left root child, read from the text in one pass; walking a
        tree through ``left``/``right`` is therefore quadratic in its length."""
        return None if self.is_leaf else Term(self.text[1 : self._left_end()])

    @property
    def right(self) -> Term | None:
        return None if self.is_leaf else Term(self.text[self._left_end() + 1 : -1])

    def _left_end(self) -> int:
        return _fold_text(self.text, 1, None, lambda i, j, a, b: None)[1]

    def __add__(self, other: Term) -> Term:
        if not isinstance(other, Term):
            return NotImplemented
        return sum_terms(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __lt__(self, other: Term) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        # Length, then code order, which for equal lengths is reverse text
        # order (module docstring); the text length grows with the length.
        return (len(self.text), other.text) < (len(other.text), self.text)

    def __repr__(self) -> str:
        return f"Term({self.text})"


def _fold_text(
    text: str, start: int, leaf_value: V, node: Callable[[int, int, V, V], V]
) -> tuple[V, int]:
    """Fold the subterm printed from ``text[start]`` bottom-up in one pass,
    and return its value and the index just past it.  The leaf gets
    ``leaf_value``, and the sum printed as ``text[i:j]``, whose children got
    ``a`` and ``b``, gets ``node(i, j, a, b)``.  A stack holds the positions
    of the open parentheses, another the values of finished subterms."""
    opens: list[int] = []
    values: list[V] = []
    for j in range(start, len(text)):
        ch = text[j]
        if ch == "(":
            opens.append(j)
            continue
        if ch == "1":
            values.append(leaf_value)
        elif ch == ")":
            b = values.pop()
            values[-1] = node(opens.pop(), j + 1, values[-1], b)
        if not opens:
            return values[0], j + 1
    raise ValueError(f"no complete term at {start} in {text!r}")


_LEAF = Term("1")


def leaf() -> Term:
    """The generator ``1``."""
    return _LEAF


def sum_terms(left: Term, right: Term) -> Term:
    """The ordered sum ``left + right`` (non-commutative, non-associative)."""
    return Term(f"({left.text}+{right.text})")


def left_comb(n: int) -> Term:
    """The left comb of length ``n``: ``(..((1+1)+1)..)+1``."""
    if n < 1:
        raise ValueError(f"comb length must be >= 1, got {n}")
    return Term("(" * (n - 1) + "1" + "+1)" * (n - 1))


def right_comb(n: int) -> Term:
    """The right comb of length ``n``: ``1+(1+(..(1+1)..))``."""
    if n < 1:
        raise ValueError(f"comb length must be >= 1, got {n}")
    return Term("(1+" * (n - 1) + "1" + ")" * (n - 1))


def product(x: Term, y: Term) -> Term:
    """Substitute a copy of ``x`` for every leaf of ``y``.

    On text this replaces every ``1`` of ``y`` by the text of ``x``.  This
    is the monoid product: associative, with ``1`` as two-sided unit, and
    distributes over sums appearing in the right operand only.
    """
    return Term(y.text.replace("1", x.text))


def format_term(t: Term) -> str:
    """Fully parenthesized additive text, e.g. ``(1+(1+1))``."""
    return t.text


def parse_term(text: str) -> Term:
    """Parse the fully parenthesized additive notation; inverse of
    :func:`format_term`.  Whitespace between tokens is allowed."""
    # One entry per '(' still open: whether its '+' has been read.
    frames: list[bool] = []
    operand = True  # whether '1' or '(' comes next
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if operand:
            if ch == "(":
                frames.append(False)
                continue
            if ch != "1":
                raise TermParseError(text, i, f"expected '1' or '(', found {ch!r}")
            operand = False
        elif not frames:
            raise TermParseError(text, i, "trailing input after complete term")
        elif frames[-1]:
            if ch != ")":
                raise TermParseError(text, i, "expected ')'")
            frames.pop()
        elif ch == "+":
            frames[-1] = operand = True
        else:
            raise TermParseError(text, i, "expected '+'")
    if operand:
        raise TermParseError(text, len(text), "unexpected end of input")
    if frames:
        raise TermParseError(text, len(text), f"expected {')' if frames[-1] else '+'!r}")
    return Term("".join(text.split()))


Level = tuple[Term, ...]


def _wrap_texts(texts: Iterable[str]) -> Level:
    """``texts`` as terms, built with the cyclic garbage collector paused.
    A Term holds one str and so cannot be part of a cycle, but it is
    tracked, and with the collector on, wrapping a million of them spends
    more time in generation scans over the live terms than in the wrapping.
    The caller's collector state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(map(Term, texts))
    finally:
        if enabled:
            gc.enable()


def _check_levels(sizes: Iterable[int]) -> None:
    """Price levels whose k-th size counts terms of length k for the costliest
    caller, the closure DP: a str of 4k-3 characters (46 + 4k bytes, rounded
    to 8) and its list slot, which tracemalloc puts at 0.97-0.99 times the
    peak of the text DP alone; a Term (40) and its tuple slot (8); a 16-byte
    set entry in a table at least 1/4 full, beside the one it replaces
    (64 + 32); and each level's own list, set and their slots, 288 bytes
    when empty.  The whole price is 1.37-1.44 times the closure's peak.
    Each size is read once, as it is made, so no table of them is held."""
    k = total = estimate = 0
    for k, c in enumerate(sizes, 1):
        total += c
        estimate += c * ((46 + 4 * k + 7) // 8 * 8 + 8 + 144) + 288
    check_memory(f"levels 1..{k} ({figure(total)} terms)", estimate)


def _whole_sizes(n_max: int, what: str) -> list[int]:
    """The sizes C_0..C_{n_max-1} of levels 1..n_max of the whole magma,
    to price ``what`` from, which :func:`check_length` bounds first."""
    check_length(what, n_max)
    return catalan_numbers(n_max)


def enumerate_terms(n: int) -> Level:
    """All terms of length exactly ``n``, sorted by canonical encoding: the
    texts of :func:`iter_level_texts` as terms, so only level ``n`` (C_{n-1}
    terms, priced with the shorter levels) is wrapped."""
    _check_levels(_whole_sizes(n, f"levels 1..{n}"))
    return _wrap_texts(iter_level_texts(n))


def iter_terms_up_to(n_max: int) -> Iterator[Term]:
    """Terms of length 1..n_max in (length, encoding) order.  All levels are
    priced together when the first term is read, then each is wrapped from
    :func:`iter_level_texts` in turn."""
    _check_levels(_whole_sizes(n_max, f"levels 1..{n_max}"))
    for k in range(1, n_max + 1):
        yield from _wrap_texts(iter_level_texts(k))


def iter_level_texts(n: int) -> Iterator[str]:
    """Texts of all terms of length exactly ``n``, in the order of
    :func:`enumerate_terms`, built without any :class:`Term`: the lines of
    :func:`freemagma.listing._level_blocks`, which checks ``n`` and prices
    the listing at once."""
    from .listing import _level_blocks

    return chain.from_iterable(map(str.splitlines, _level_blocks(n)))
