"""The block listing of one level of the whole magma.

Level n is yielded in descending text order (the encoding order of
:mod:`freemagma.terms`) from C-level string operations rather than one
step per text.  The text of ``(x+y)`` compares first by that of ``x`` and
then by that of ``y``, because texts are prefix-free.  Level m is kept
*marked*: one line per term ``(x+y)``, each line led by a newline and
reading ``x#y)``, the text without its first parenthesis and with its root
``+`` written ``#``.  Splitting ``x`` further, level m is

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
in newline-terminated blocks of at most 64 KiB.  It reads marked level n-1
only under the leaf, in its sums ``(1+t)`` and under its head ``(1+``, so
that level is built afresh for each of the two reads and never held: at
n=14 the listing holds 3.4 MiB of marked levels 2..12 and 0.8 MiB besides.

Only the ``enumerate`` command and :func:`freemagma.terms.iter_level_texts`
(behind :func:`~freemagma.terms.enumerate_terms` and
:func:`~freemagma.terms.whole_levels`) import this module, so a counting
or density run does not compile it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator

from .errors import check_memory
from .sequences import catalan_numbers

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
    marked: list[Iterable[str]] = [(), ()]
    for m in range(2, n - 1):
        marked.append(tuple(_level_runs(m, marked, orders[m - 2], "\n(", ")#")))
    if n > 2:
        marked.append(_Rebuilt(n - 1, marked, orders[n - 3]))
    return (run[1:] + "\n" for run in _level_runs(n, marked, orders[n - 2], "\n((", ")+"))


class _Rebuilt:
    """Marked level ``m``, built afresh by each iteration and never held:
    level n is read from level n-1 twice, in its sums ``(1+t)`` and under
    its head ``(1+``."""

    def __init__(self, m: int, marked: list[Iterable[str]], order: bytes) -> None:
        self.args = m, marked, order, "\n(", ")#"

    def __iter__(self) -> Iterator[str]:
        return _level_runs(*self.args)


def _check_listing(n: int) -> None:
    """Price the listing of level ``n`` by what it holds: the marked levels
    2..n-2 at a byte per character, and 1/128 more for the headers of their
    runs (0.25% measured); the orders at a byte per head; _HEADS heads per
    length of up to 4n characters, each with its str header and list slot;
    and the block bound, 16 blocks of _BLOCK characters: for a group's
    pieces, their join and replace, the block and its lines, once in level
    n and once in level n-1 as it is rebuilt.  Tracemalloc puts the n=15
    listing at 0.95 of this price, n=14 at 0.86, n=13 at 0.68 and n=2 at
    0.003."""
    counts = catalan_numbers(n - 1)
    chars = sum(c * (4 * k - 3) for k, c in enumerate(counts[1:-1], 2))
    heads = sum(accumulate(counts[:-1])) + (n - 2) * _HEADS * (4 * n + 64)
    what = f"the listing of length {n} from levels 2..{n - 2} ({sum(counts[1:-1]):,} terms)"
    check_memory(what, chars + chars // 128 + heads + 16 * _BLOCK)


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
    m: int, marked: list[Iterable[str]], order: bytes, lead: str, root: str
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
    for t in _texts(marked, m - 1, _BLOCK // width, first):
        yield t[1:] + ")"
    counts = catalan_numbers(m - 1)
    size = [0] + [counts[m - 1 - j] * width for j in range(1, m - 1)]
    joined = [""] + ["".join(marked[m - j]) if size[j] <= _BLOCK else "" for j in range(1, m - 1)]
    sep = "+\0" + lead
    sources = [iter(())] + [
        chain.from_iterable(
            (t + "+").split("\0")[1:] for t in _texts(marked, j, _HEADS, sep)
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


def _texts(marked: list[Iterable[str]], k: int, lines: int, lead: str) -> Iterator[str]:
    """The texts of level ``k``, each led by ``lead``, in runs of ``lines``
    texts: marked level ``k`` with the root and first parenthesis put back."""
    if k == 1:
        return iter([lead + "1"])
    cuts = _cuts(marked[k], 4 * k - 3, lines)
    return (c.replace("#", "+").replace("\n", lead + "(") for c in cuts)


def _cuts(runs: Iterable[str], width: int, lines: int) -> Iterator[str]:
    """``runs`` of lines of ``width`` characters, cut into pieces of
    ``lines`` lines."""
    step = max(lines, 1) * width
    for run in runs:
        for start in range(0, len(run), step):
            yield run[start : start + step]
