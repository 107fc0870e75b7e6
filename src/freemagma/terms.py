"""Term algebra of the free magma on a single generator.

A term is a finite binary tree: every leaf is the generator ``1`` and every
internal node is an ordered, non-associative sum of its two children.  A
term is its fully parenthesised text, such as ``(1+(1+1))``: a
:class:`Term` keeps that one string and nothing else.  Equality, hashing,
order and output go through it, a term of length L prints 4L-3
characters, and the root children are read back from it on demand.

The canonical encoding is the preorder Lukasiewicz word over ``{'1', '0'}``
(internal node = ``1``, leaf = ``0``).  It is derived from the text by
translation: dropping ``+`` and ``)`` leaves the preorder sequence of ``(``
(internal) and ``1`` (leaf).  The encoding is prefix-free, so it decodes
unambiguously, and it gives the total order (by length, then
lexicographically) that the enumeration below follows.  For two terms of
the same length that order is the reverse of text order: up to the first
preorder node where the trees differ the texts agree, and there the
internal node prints ``(``, which sorts below ``1``, while it encodes as
``1``, which sorts above ``0``.  Levels are therefore in descending text
order, and no code needs to be kept.

Two builders make term levels.  The listing of one level of the whole
magma (:func:`iter_level_texts`, behind ``enumerate``, :func:`enumerate_terms`
and :func:`whole_levels`) yields it in descending text order from C-level
string operations rather than one step per text.  The text of ``(x+y)``
compares first by that of ``x`` and then by that of ``y``, because texts
are prefix-free.  Level m is kept *marked*: one line per term ``(x+y)``,
each line led by a newline and reading ``x#y)``, the text without its
first parenthesis and with its root ``+`` written ``#``.  Splitting ``x``
further, level m is

- the sums ``(1+t)``, for ``t`` of length m-1 in order: the marked lines
  ``1#t)``;
- for each term ``a`` of length up to m-2, in descending text order, the
  sums ``((a+b)+y)``: marked level m-|a| with its newlines replaced by
  the *head* ``"\\n(a+"`` and its ``#`` by ``)#``, which gives the marked
  lines ``(a+b)#y)``.

So a level costs one ``str.replace`` per head, done for up to 256 heads
at once by ``map``.  No head is stored: the heads of each length are split
from its texts 256 at a time as they fall due, and one byte per head, the
lengths in descending text order, says which length is next.  Up to length
L that order is the leaf, then for each term x of length j < L in turn the
order up to L-j with j added, which one ``bytes.translate`` does.  Level n
itself is streamed the same way, with heads ``"\\n((a+"`` and roots ``)+``,
in newline-terminated blocks of at most 64 KiB: at n=14 the listing holds
13.1 MiB of marked levels and 0.6 MiB besides.

Closures of generator sets, the shifted family M+a among them, are built
by the closure DP on texts, :func:`_grow_texts`: level k is its seeds and
every sum of members whose lengths add up to k, in no set order, since
each caller keeps a level as a set.  The listing cannot serve them: its
blocks copy whole levels behind each head, and a seed ``(a+c)`` with ``c``
outside the closure falls inside the block of head ``a``.  All operations
are pure and the module keeps no state.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from itertools import accumulate, chain, repeat
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import TermParseError, check_memory
from .sequences import BigSeq, cat_transform, catalan_numbers

_TEXT_TO_CODE = str.maketrans({"(": "1", "1": "0", "+": None, ")": None})
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

    def __mul__(self, other: Term) -> Term:
        if not isinstance(other, Term):
            return NotImplemented
        return product(self, other)

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


def length(t: Term) -> int:
    """Number of generator occurrences (leaves) in ``t``."""
    return t.length


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


def encode(t: Term) -> str:
    """Canonical preorder bitstring of ``t`` (internal = '1', leaf = '0')."""
    return t.text.translate(_TEXT_TO_CODE)


def decode(bits: str) -> Term:
    """Inverse of :func:`encode`; rejects malformed input."""
    # One entry per internal node still open: whether its left child is done.
    frames: list[bool] = []
    out: list[str] = []
    for i, ch in enumerate(bits):
        if out and not frames:
            raise TermParseError(bits, i, "trailing input after complete term")
        if ch == "1":
            frames.append(False)
            out.append("(")
            continue
        if ch != "0":
            raise TermParseError(bits, i, f"invalid character {ch!r}")
        out.append("1")
        # Close every node whose right child this leaf completes.
        while frames and frames[-1]:
            frames.pop()
            out.append(")")
        if frames:
            frames[-1] = True
            out.append("+")
    if frames or not out:
        raise TermParseError(bits, len(bits), "truncated encoding")
    return Term("".join(out))


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
Seeds = Callable[[int], Iterable[str]]


def grow_levels(seeds: Seeds, n_max: int) -> list[Level]:
    """The closure DP as terms: levels 0..n_max of the subgroupoid
    generated by the texts ``seeds(k)``, in no set order (:func:`_grow_texts`,
    which refuses levels over the memory budget before building any)."""
    return [_wrap_texts(level) for level in _grow_texts(seeds, n_max)]


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


def _grow_texts(seeds: Seeds, n_max: int) -> list[list[str]]:
    """The closure DP: text levels 0..n_max, entry 0 empty.

    Level k is the texts ``seeds(k)`` and the sums x+y of members whose
    lengths add up to k (:func:`_sum_texts`).  ``seeds`` must describe a
    minimal generating set: then no seed is such a sum, and a sum splits
    uniquely at its root.  So no text is built twice, and the counting
    transform of the seed counts gives the size of every level, priced
    (:func:`_check_levels`) before level 1.
    """
    seeded = [list(seeds(k)) for k in range(1, n_max + 1)]
    _check_levels(cat_transform(BigSeq(map(len, seeded))))
    levels: list[list[str]] = [[]]
    for k, level in enumerate(seeded, start=1):
        level += _sum_texts(levels, k)
        levels.append(level)
    return levels


def _check_levels(sizes: Sequence[int]) -> None:
    """Price levels of ``sizes[k-1]`` terms of length k for the costliest
    caller, closure_up_to: a str of 4k-3 characters (46 + 4k bytes, rounded
    to 8) and its list slot, which tracemalloc puts at 1.02-1.04 times the
    text-only DP's peak; a Term (40) and its tuple slot (8); a 16-byte set
    entry in a table at least 1/4 full, beside the one it replaces (64 + 32)."""
    estimate = sum(c * ((46 + 4 * k + 7) // 8 * 8 + 8 + 144) for k, c in enumerate(sizes, 1))
    check_memory(f"levels 1..{len(sizes)} ({sum(sizes):,} terms)", estimate)


def _sum_texts(levels: Sequence[Sequence[str]], k: int) -> list[str]:
    """Texts of the sums of length ``k`` from levels 1..k-1."""
    return [f"({x}+{y})" for i in range(1, k) for x in levels[i] for y in levels[k - i]]


def whole_levels(n_max: int) -> list[Level]:
    """Levels 0..n_max of the whole magma, each in encoding order: entry k
    holds the C_{k-1} terms of length k, wrapped from :func:`iter_level_texts`.
    All levels are priced together before level 1 is listed."""
    _check_levels(catalan_numbers(n_max))
    return [()] + [_wrap_texts(iter_level_texts(k)) for k in range(1, n_max + 1)]


def enumerate_terms(n: int) -> Level:
    """All terms of length exactly ``n``, sorted by canonical encoding: the
    texts of :func:`iter_level_texts` as terms, so only level ``n`` (C_{n-1}
    terms, priced with the shorter levels) is wrapped."""
    _check_levels(catalan_numbers(n))
    return _wrap_texts(iter_level_texts(n))


def iter_terms_up_to(n_max: int) -> Iterator[Term]:
    """Terms of length 1..n_max in (length, encoding) order."""
    for level in whole_levels(n_max):
        yield from level


def iter_level_texts(n: int) -> Iterator[str]:
    """Texts of all terms of length exactly ``n``, in the order of
    :func:`enumerate_terms`, built without any :class:`Term`: the lines of
    :func:`_level_blocks`, which checks ``n`` and prices the listing at once."""
    return chain.from_iterable(map(str.splitlines, _level_blocks(n)))


# A level is listed in blocks of at most _BLOCK characters, and the sums
# behind up to _HEADS heads are formatted in one C-level pass.
_BLOCK = 1 << 16
_HEADS = 256


def _level_blocks(n: int) -> Iterator[str]:
    """Level ``n`` of the whole magma in descending text order, one text
    per line, as newline-terminated blocks of at most _BLOCK characters.
    ``n`` is checked and the listing priced before anything is built."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if n == 1:
        return iter(["1\n"])
    _check_listing(n)
    orders = _orders(n - 2)
    marked: list[tuple[str, ...]] = [(), ()]
    for m in range(2, n):
        marked.append(tuple(_level_runs(m, marked, orders[m - 2], "\n(", ")#")))
    return (run[1:] + "\n" for run in _level_runs(n, marked, orders[n - 2], "\n((", ")+"))


def _check_listing(n: int) -> None:
    """Price the listing of level ``n`` by what it holds: the marked levels
    2..n-1 at a byte per character, and 1/128 more for the headers of their
    runs (0.25% measured); the orders at a byte per head; _HEADS heads per
    length of up to 4n characters, each with its str header and list slot;
    and the block bound, 8 blocks of _BLOCK characters for a group's pieces,
    their join and replace, the block and its lines.  Tracemalloc puts the
    n=14 listing at 0.97 of this price, n=15 at 0.99 and n=2 at 0.01."""
    counts = catalan_numbers(n - 1)
    chars = sum(c * (4 * k - 3) for k, c in enumerate(counts[1:], 2))
    heads = sum(accumulate(counts[:-1])) + (n - 2) * _HEADS * (4 * n + 64)
    what = f"the listing of length {n} from levels 2..{n - 1} ({sum(counts[1:]):,} terms)"
    check_memory(what, chars + chars // 128 + heads + 8 * _BLOCK)


def _orders(n_max: int) -> list[bytes]:
    """Entry L: the lengths of the terms of length up to L, a byte each, in
    descending text order.  The leaf comes first, then the sums (x+y) by x
    and then by y: for each x of length j < L in turn, entry L-j with j
    added to each byte."""
    orders = [b"", b"\1"]
    for top in range(2, n_max + 1):
        shifted = [b""] + [
            orders[top - j].translate(bytes(range(j, 256)) + bytes(j)) for j in range(1, top)
        ]
        orders.append(b"\1" + b"".join(map(shifted.__getitem__, orders[top - 1])))
    return orders


def _level_runs(
    m: int, marked: list[tuple[str, ...]], order: bytes, lead: str, root: str
) -> Iterator[str]:
    """Level ``m`` from the marked levels 1..m-1, as runs of at most _BLOCK
    characters, each line led by a newline: marked, for ``lead`` ``"\\n("``
    and ``root`` ``)#``, or as texts, for ``"\\n(("`` and ``)+``.  First the
    sums ``(1+t)`` for ``t`` of length m-1, then for each head ``lead + a +
    "+"`` in turn, with ``a`` of the lengths in ``order``, marked level
    m-|a| with the head in front of each line and its ``#`` written
    ``root``.  The heads of a length are split from its texts _HEADS at a
    time as they fall due.  The sums of up to _HEADS heads are joined into
    one run, and those of a head alone longer than _BLOCK are cut."""
    width = 4 * m - 5 + len(lead)
    first = ")" + lead[:-1] + "1" + root[-1]
    for t in _texts(marked, m - 1, _BLOCK // width):
        yield t.replace("\n", first)[1:] + ")"
    counts = catalan_numbers(m - 1)
    size = [0] + [counts[m - 1 - j] * width for j in range(1, m - 1)]
    joined = [""] + ["".join(marked[m - j]) if size[j] <= _BLOCK else "" for j in range(1, m - 1)]
    sep = "+\0" + lead
    sources = [iter(())] + [
        chain.from_iterable(
            (t.replace("\n", sep) + "+").split("\0")[1:] for t in _texts(marked, j, _HEADS)
        )
        for j in range(1, m - 1)
    ]
    heads = map(next, map(sources.__getitem__, order))
    start = 0
    while start < len(order):
        part = order[start : start + _HEADS]
        ends = bisect_right(list(accumulate(map(size.__getitem__, part))), _BLOCK)
        if ends:
            # map stops at the end of the runs and so takes ``ends`` heads.
            runs = map(joined.__getitem__, part[:ends])
            yield "".join(map(str.replace, runs, repeat("\n"), heads)).replace("#", root)
        else:
            head, ends, k = next(heads), 1, m - part[0]
            for cut in _cuts(marked[k], 4 * k - 3, _BLOCK // width):
                yield cut.replace("\n", head).replace("#", root)
        start += ends


def _texts(marked: list[tuple[str, ...]], k: int, lines: int) -> Iterator[str]:
    """The texts of level ``k``, each led by a newline, in runs of ``lines``
    texts: marked level ``k`` with the root and first parenthesis put back."""
    if k == 1:
        return iter(["\n1"])
    return (c.replace("#", "+").replace("\n", "\n(") for c in _cuts(marked[k], 4 * k - 3, lines))


def _cuts(runs: Iterable[str], width: int, lines: int) -> Iterator[str]:
    """``runs`` of lines of ``width`` characters, cut into pieces of
    ``lines`` lines."""
    step = max(lines, 1) * width
    for run in runs:
        for start in range(0, len(run), step):
            yield run[start : start + step]
