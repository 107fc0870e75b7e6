"""Term algebra of the free magma on a single generator.

A term is a finite binary tree: every leaf is the generator ``1`` and every
internal node is an ordered, non-associative sum of its two children.  Terms
are immutable values that carry one string, their fully parenthesised text
such as ``(1+(1+1))``; equality, hashing and order all go through it.

The canonical encoding is the preorder Lukasiewicz word over ``{'1', '0'}``
(internal node = ``1``, leaf = ``0``).  It is derived from the text by
translation: dropping ``+`` and ``)`` leaves the preorder sequence of ``(``
(internal) and ``1`` (leaf).  The encoding is prefix-free, so it decodes
unambiguously, and it gives the total order (by length, then
lexicographically) that the enumeration below follows.  For two terms of
the same length that order is the reverse of text order: up to the first
preorder node where the trees differ the texts agree, and there the
internal node prints ``(``, which sorts below ``1``, while it encodes as
``1``, which sorts above ``0``.  Levels are therefore sorted by text,
descending, and no code needs to be kept.

Every term-level construction (the whole magma, closures of generator
sets, the shifted family M+a) runs through one level DP,
:func:`grow_levels`.  All operations are pure and the module keeps no
state: each call builds the levels it needs and drops them with its
result, so a caller that needs several lengths of the whole magma takes
them from one :func:`whole_levels` call.

Listing one level of the whole magma needs only its texts, which
:func:`iter_level_texts` streams without building a :class:`Term`.  The
text of ``(x+y)`` compares first by the text of ``x`` and then by that of
``y``, because texts are prefix-free, so a level in descending text order
is every ``x`` of the shorter levels in descending text order, each
followed by every ``y`` of the matching length in descending text order.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapacityError, TermParseError

# Enumeration sizes are Catalan.  Building the Term levels up to length 15
# (enumerate_terms) peaks near 0.7 GB RSS, and length 16 (~9.7M terms)
# above 2 GB.  Streaming the texts of one level (iter_level_texts, the
# enumerate command) keeps only the shorter levels as strings: the command
# peaks at 160 MB for length 15 and 470 MB for length 16.  Callers must opt
# in explicitly to go past 15 either way.
DEFAULT_ENUMERATION_CAP = 15

_TEXT_TO_CODE = str.maketrans({"(": "1", "1": "0", "+": None, ")": None})


class Term:
    """An element of the free magma on one generator. Use :func:`leaf` and
    :func:`sum_terms` (or the ``+`` operator) to build instances."""

    __slots__ = ("left", "right", "length", "text")

    def __init__(self, left: Term | None, right: Term | None):
        if (left is None) != (right is None):
            raise ValueError("internal node needs both children")
        self.left = left
        self.right = right
        if left is None:
            self.length = 1
            self.text = "1"
        else:
            assert right is not None
            self.length = left.length + right.length
            self.text = f"({left.text}+{right.text})"

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __add__(self, other: Term) -> Term:
        if not isinstance(other, Term):
            return NotImplemented
        return sum_terms(self, other)

    def __mul__(self, other: Term) -> Term:
        if not isinstance(other, Term):
            return NotImplemented
        return product(self, other)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __lt__(self, other: Term) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        # Same-length code order is reverse text order (module docstring).
        return (self.length, other.text) < (other.length, self.text)

    def __repr__(self) -> str:
        return f"Term({self.text})"


_LEAF = Term(None, None)


def leaf() -> Term:
    """The generator ``1``."""
    return _LEAF


def sum_terms(left: Term, right: Term) -> Term:
    """The ordered sum ``left + right`` (non-commutative, non-associative)."""
    return Term(left, right)


def length(t: Term) -> int:
    """Number of generator occurrences (leaves) in ``t``."""
    return t.length


def left_comb(n: int) -> Term:
    """The left comb of length ``n``: ``(..((1+1)+1)..)+1``."""
    if n < 1:
        raise ValueError(f"comb length must be >= 1, got {n}")
    t = _LEAF
    for _ in range(n - 1):
        t = sum_terms(t, _LEAF)
    return t


def right_comb(n: int) -> Term:
    """The right comb of length ``n``: ``1+(1+(..(1+1)..))``."""
    if n < 1:
        raise ValueError(f"comb length must be >= 1, got {n}")
    t = _LEAF
    for _ in range(n - 1):
        t = sum_terms(_LEAF, t)
    return t


def product(x: Term, y: Term) -> Term:
    """Substitute a copy of ``x`` for every leaf of ``y``.

    On text this replaces every ``1`` of ``y`` by the text of ``x``; the
    iterative parser keeps recursion depth independent of ``y``.  This is
    the monoid product: associative, with ``1`` as two-sided unit,
    and distributes over sums appearing in the right operand only.
    """
    return parse_term(y.text.replace("1", x.text))


def encode(t: Term) -> str:
    """Canonical preorder bitstring of ``t`` (internal = '1', leaf = '0')."""
    return t.text.translate(_TEXT_TO_CODE)


def decode(bits: str) -> Term:
    """Inverse of :func:`encode`; rejects malformed input."""
    # Frames hold fully decoded left children of internal nodes still
    # waiting for their right child.
    frames: list[list[Term]] = []
    i = 0
    n = len(bits)
    while True:
        if i >= n:
            raise TermParseError(bits, i, "truncated encoding")
        ch = bits[i]
        if ch == "1":
            frames.append([])
            i += 1
            continue
        if ch != "0":
            raise TermParseError(bits, i, f"invalid character {ch!r}")
        i += 1
        cur = _LEAF
        while frames:
            top = frames[-1]
            top.append(cur)
            if len(top) == 1:
                break
            frames.pop()
            cur = sum_terms(top[0], top[1])
        else:
            if i != n:
                raise TermParseError(bits, i, "trailing input after complete term")
            return cur
        # cur consumed as a left child; continue scanning for the right one.


def format_term(t: Term) -> str:
    """Fully parenthesized additive text, e.g. ``(1+(1+1))``."""
    return t.text


def parse_term(text: str) -> Term:
    """Parse the fully parenthesized additive notation; inverse of
    :func:`format_term`."""
    n = len(text)
    i = 0

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    # Frames: [] right after '(', [left] after 'left +'.
    frames: list[list[Term]] = []
    cur: Term | None = None
    while True:
        i = skip_ws(i)
        if i >= n:
            raise TermParseError(text, i, "unexpected end of input")
        ch = text[i]
        if ch == "1":
            cur = _LEAF
            i += 1
        elif ch == "(":
            frames.append([])
            i += 1
            continue
        else:
            raise TermParseError(text, i, f"expected '1' or '(', found {ch!r}")
        # Reduce: attach cur to pending frames until more input is needed.
        while True:
            i = skip_ws(i)
            if not frames:
                if i != n:
                    raise TermParseError(text, i, "trailing input after complete term")
                assert cur is not None
                return cur
            top = frames[-1]
            if not top:
                if i >= n or text[i] != "+":
                    raise TermParseError(text, i, "expected '+'")
                assert cur is not None
                top.append(cur)
                i += 1
                break  # parse the right operand
            if i >= n or text[i] != ")":
                raise TermParseError(text, i, "expected ')'")
            assert cur is not None
            cur = sum_terms(top[0], cur)
            frames.pop()
            i += 1


Level = tuple[Term, ...]


def grow_levels(
    seeds: Callable[[int], Iterable[Term]],
    n_max: int,
    cap: int,
) -> list[Level]:
    """The level DP: slices 0..n_max of the subgroupoid generated by ``seeds``.

    Level k is ``seeds(k)`` together with every sum x+y of members whose
    lengths add up to k, sorted by encoding; entry 0 is the empty level.
    ``seeds`` must describe a minimal generating set: then no seed is such a
    sum, and a sum splits uniquely at its root, so no term is built twice.
    Horizons past ``cap`` are refused before anything is built.
    """
    _check_cap(n_max, cap)
    out: list[Level] = [()]
    for k in range(1, n_max + 1):
        level = [sum_terms(x, y) for i in range(1, k) for x in out[i] for y in out[k - i]]
        level.extend(seeds(k))
        level.sort(key=lambda t: t.text, reverse=True)
        out.append(tuple(level))
    return out


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapacityError(f"length {n} exceeds cap {cap}; pass a larger cap explicitly")


def whole_levels(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Level]:
    """Levels 0..n_max of the whole magma: :func:`grow_levels` seeded with
    the leaf.  Entry k holds the C_{k-1} terms of length k."""
    return grow_levels(lambda k: (_LEAF,) if k == 1 else (), n_max, cap)


def enumerate_terms(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Level:
    """All terms of length exactly ``n``, sorted by canonical encoding.

    The list has Catalan size C_{n-1}; lengths past ``cap`` are refused.
    Each call builds levels 1..n afresh; a caller that needs several
    lengths should take them from one :func:`whole_levels` call.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    return whole_levels(n, cap)[n]


def iter_terms_up_to(n_max: int) -> Iterator[Term]:
    """Terms of length 1..n_max in (length, encoding) order."""
    for level in whole_levels(n_max):
        yield from level


def iter_level_texts(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[str]:
    """Texts of all terms of length exactly ``n``, in the order of
    :func:`enumerate_terms`, built without any :class:`Term`.

    Levels 1..n-1 are held as lists of strings and level ``n`` is streamed
    from them; lengths past ``cap`` are refused before anything is built.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    _check_cap(n, cap)
    levels: list[list[str]] = [[], ["1"]]
    for k in range(2, n):
        levels.append(list(_sum_texts(levels, k)))
    return _sum_texts(levels, n) if n > 1 else iter(levels[1])


def _sum_texts(levels: Sequence[Sequence[str]], k: int) -> Iterator[str]:
    """Texts of level ``k`` in descending order from levels 1..k-1, each in
    descending order (see the module docstring).  A term of length L prints
    4L-3 characters, which gives the length of ``x`` back from its text."""
    return (
        f"({x}+{y})"
        for x in heapq.merge(*levels[1:k], reverse=True)
        for y in levels[k - (len(x) + 3) // 4]
    )
