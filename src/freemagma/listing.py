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
order up to L-j with j added, which one ``bytes.translate`` does.

A level can be built in any *form*, given by a lead and a root: the line
of ``(x+y)`` reads ``lead[:-1] + x + root[1:] + y + ")"``.  The marked
form has lead ``"\\n("`` and root ``)#``, the texts lead ``"\\n(("`` and
root ``)+``, and the block under a head ``h`` is the shorter level in the
form with lead ``h + "("`` and root ``")" + root``.  Level n is streamed
as texts, in newline-terminated blocks of at most 64 KiB.  Only marked
levels 2..n-3 are held.  Levels n-1 and n-2 are read a few times each and
built afresh for every read, straight into the form its reader prints:
level n-1 in the sums ``(1+t)`` and under the head ``(1+``, and level n-2
twice within each of those builds, under the head ``((1+1)+`` and once
marked, for the heads of length n-2.  At n=14 the listing holds 0.9 MiB of
marked levels 2..11 and peaks 0.9 MiB above that.

Only the ``enumerate`` command and :func:`freemagma.terms.iter_level_texts`
(behind :func:`~freemagma.terms.enumerate_terms` and
:func:`~freemagma.terms.iter_terms_up_to`) import this module, so a counting
or density run does not compile it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator

from .errors import check_length, check_memory
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
    check_length(f"the listing of length {n}", n)
    _check_listing(n)
    orders = _orders(n - 2)
    marked: list[Iterable[str]] = [(), ()]
    for m in range(2, n - 2):
        marked.append(tuple(_level_runs(m, marked, orders[m - 2], "\n(", ")#")))
    for m in range(len(marked), n):
        marked.append(_Rebuilt(m, marked, orders[m - 2]))
    return (run[1:] + "\n" for run in _level_runs(n, marked, orders[n - 2], "\n((", ")+"))


class _Rebuilt:
    """Level ``m``, never held: each call builds it afresh in the form of
    its ``lead`` and ``root``, and iteration builds it marked.  The listing
    of level 14 builds level 13 twice and level 12 six times, and rewrites
    none of their lines."""

    def __init__(self, m: int, marked: list[Iterable[str]], order: bytes) -> None:
        self.args = m, marked, order

    def __call__(self, lead: str, root: str) -> Iterator[str]:
        return _level_runs(*self.args, lead, root)

    def __iter__(self) -> Iterator[str]:
        return self("\n(", ")#")


def _check_listing(n: int) -> None:
    """Price the listing of level ``n`` by what it holds: the marked levels
    2..n-3 at a byte per character, and 1/128 more for the headers of their
    runs (0.25% measured); the orders at a byte per head, 1/8 more for the
    growth of a bytearray, and one chunk's list slots and buffer records;
    _HEADS heads per length of up to 4n characters, each with its str
    header and list slot; and the block bound, 8 blocks in each of the
    three nested streams, levels n, n-1 and n-2, for a group's pieces, their
    join, the block and its lines, each of _BLOCK characters or of the whole
    output of level n if that is shorter.  Tracemalloc puts the n=16
    listing at 0.93 of this price, n=15 at 0.81, n=14 at 0.62, n=13 at
    0.45, n=9 at 0.17 and n=2 to 6 at 0.14 to 0.16."""
    counts = catalan_numbers(n)
    chars = sum(c * (4 * k - 3) for k, c in enumerate(counts[1 : n - 3], 2))
    orders = sum(accumulate(counts[: n - 2]))
    heads = (n - 2) * _HEADS * (4 * n + 64)
    blocks = 24 * min(_BLOCK, counts[-1] * (4 * n - 2))
    held = f"levels 2..{n - 3} ({sum(counts[1 : n - 3]):,} terms)" if n > 5 else "level 2 (1 term)"
    what = f"the listing of length {n}" + (f" from {held}" if n > 4 else "")
    check_memory(what, chars + chars // 128 + orders + orders // 8 + 88 * _HEADS + heads + blocks)


def _orders(n_max: int) -> list[bytes]:
    """Entry L: the lengths of the terms of length up to L, a byte each, in
    descending text order.  The leaf comes first, then the sums (x+y) by x
    and then by y: for each x of length j < L in turn, entry L-j with j
    added to each byte.  An entry is joined _HEADS heads at a time onto a
    bytearray, as ``b"".join`` takes an 80-byte buffer record per part."""
    orders: list[bytes] = [b"", b"\1"]
    for top in range(2, n_max + 1):
        shifted = [b""] + [
            orders[top - j].translate(bytes(range(j, 256)) + bytes(j)) for j in range(1, top)
        ]
        order, heads = bytearray(b"\1"), orders[top - 1]
        for start in range(0, len(heads), _HEADS):
            order += b"".join(map(shifted.__getitem__, heads[start : start + _HEADS]))
        orders.append(order)
    return orders


def _level_runs(
    m: int, marked: list[Iterable[str]], order: bytes, lead: str, root: str
) -> Iterator[str]:
    """Level ``m`` in the form of ``lead`` and ``root`` (see the module
    docstring), as runs of at most _BLOCK characters.  First the sums
    ``(1+t)``: level m-1 in the form whose lead is ``first + "(("``, where
    ``first`` closes the line before and opens the line ``(1+``.  Then for
    each head ``lead + a + "+"`` in turn, with ``a`` of the lengths in
    ``order``, level m-|a| in the form of that head.  The heads of a length
    are split from its texts _HEADS at a time as they fall due.  The sums
    of up to _HEADS heads are joined into one run, one ``str.replace`` per
    head, and those of a head alone longer than _BLOCK are read alone."""
    width = 4 * m - 7 + len(lead) + len(root)
    first = ")" + lead[:-1] + "1" + root[1:]
    for t in _read(marked, m - 1, _BLOCK // width, first + "((", ")+"):
        yield t[1:] + ")"
    counts = catalan_numbers(m - 1)
    size = [0] + [counts[m - 1 - j] * width for j in range(1, m - 1)]
    joined = [""] + [
        "".join(_read(marked, m - j, _BLOCK, "\n(", ")" + root)) if size[j] <= _BLOCK else ""
        for j in range(1, m - 1)
    ]
    sep = "+\0" + lead
    sources = [iter(())] + [
        chain.from_iterable(
            (t + "+").split("\0")[1:] for t in _texts(marked, j, _HEADS, sep + "(", "+")
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
            yield "".join(map(str.replace, runs, repeat("\n"), heads))
        else:
            head, ends = next(heads), 1
            yield from _read(marked, m - part[0], _BLOCK // width, head + "(", ")" + root)
        start += ends


def _read(marked: list[Iterable[str]], k: int, lines: int, lead: str, root: str) -> Iterator[str]:
    """Level ``k`` in the form of :func:`_level_runs` for ``lead`` and
    ``root``: built afresh if it is rebuilt, else from its held marked form
    in runs of ``lines`` lines."""
    level = marked[k]
    if isinstance(level, _Rebuilt):
        return level(lead, root)
    return _texts(marked, k, lines, lead[:-1], root[1:])


def _texts(
    marked: list[Iterable[str]], k: int, lines: int, newline: str, sharp: str
) -> Iterator[str]:
    """Marked level ``k`` in runs of ``lines`` lines, with each ``#``
    written ``sharp`` and then each newline written ``newline``; level 1
    is ``newline[:-1] + "1"``, as ``1`` has no first parenthesis."""
    if k == 1:
        return iter([newline[:-1] + "1"])
    cuts = _cuts(marked[k], 4 * k - 3, lines)
    return (c.replace("#", sharp).replace("\n", newline) for c in cuts)


def _cuts(runs: Iterable[str], width: int, lines: int) -> Iterator[str]:
    """``runs`` of lines of ``width`` characters, cut into pieces of
    ``lines`` lines."""
    step = max(lines, 1) * width
    for run in runs:
        for start in range(0, len(run), step):
            yield run[start : start + step]
