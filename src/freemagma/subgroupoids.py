"""Subgroupoids of the free magma, described by generating data.

A subgroupoid is a subset closed under the binary sum.  Because a term
splits uniquely at its root, an element t belongs to the sum-set N+N iff
both root children of t belong to N; that single fact drives the closure,
membership and minimal-generating-set algorithms here.

Four kinds of generating data are supported: an explicit finite set of
terms, the shifted copy M+a of the whole magma, a longitudinal family (all
terms whose length lies in a numerical subsemigroup), and a raw
generator-counting sequence.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import count, islice, repeat, zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import UnsupportedVariantError, check_length, check_memory
from .reporting import _Record
from .sequences import (
    BigSeq,
    _catalan_series,
    _exact_texts,
    _histogram_counts,
    _ints_bytes,
    _poly_add,
    _quadratic_root,
    _transform_rate,
    catalan_numbers,
    read_sequence_csv,
    unlimited_int_digits,
)
from .terms import (
    Term,
    _check_levels,
    _fold_text,
    _whole_sizes,
    _wrap_texts,
    format_term,
    iter_level_texts,
    leaf,
    parse_term,
)


class FiniteSet(_Record):
    """Finitely many generator terms (possibly empty: the empty subgroupoid)."""

    __slots__ = ("terms",)
    terms: frozenset[Term]

    def __init__(self, terms: Iterable[Term]):
        tset = frozenset(terms)
        for t in tset:
            if not isinstance(t, Term):
                raise TypeError(f"generators must be Terms, got {type(t).__name__}")
        super().__init__(tset)


class ShiftedFull(_Record):
    """The generating set M+a = {y+a : y in M}."""

    __slots__ = ("a",)
    a: Term

    def __init__(self, a: Term):
        if not isinstance(a, Term):
            raise TypeError("shift must be a Term")
        super().__init__(a)


class Longitudinal(_Record):
    """All terms whose length lies in the numerical subsemigroup generated
    by ``lengths``."""

    __slots__ = ("lengths",)
    lengths: frozenset[int]

    def __init__(self, lengths: Iterable[int]):
        lset = frozenset(map(operator.index, lengths))
        if not lset:
            raise ValueError("longitudinal family needs at least one length")
        if any(v < 1 for v in lset):
            raise ValueError("longitudinal lengths must be >= 1")
        super().__init__(lset)


class ExplicitSeq(_Record):
    """A user-supplied generator-counting sequence."""

    __slots__ = ("seq",)
    seq: BigSeq

    def __init__(self, seq: BigSeq):
        if any(v < 0 for v in seq):
            raise ValueError("generator counts must be >= 0")
        super().__init__(seq)


GenFamily = Union[FiniteSet, ShiftedFull, Longitudinal, ExplicitSeq]


class NumericalSemigroupInfo(NamedTuple):
    gcd: int
    reduced_generators: frozenset[int]
    frobenius: int


# ---------------------------------------------------------------------------
# Closure and membership

Levels = tuple[frozenset[Term], ...]


def closure_up_to(gens: Iterable[Term], n_max: int) -> Levels:
    """Per-length slices (N)_1 .. (N)_{n_max} of N = <gens>.

    Returns a tuple indexed 0..n_max whose entry k is the set of length-k
    members (entry 0 is empty): :func:`family_levels` of ``FiniteSet(gens)``.
    """
    return family_levels(FiniteSet(gens), n_max)


def _children_in(texts: frozenset[str], text: str) -> bool:
    """Whether both root children of the term printed as ``text`` lie in
    the subgroupoid generated by ``texts`` (False for the leaf).  A subterm
    is a member iff its text is a generator or both its children are
    members; the right child is not read when the left one is no member."""
    if text == "1":
        return False

    def node(i: int, j: int, a: bool, b: bool) -> bool:
        return (a and b) or text[i:j] in texts

    leaf_in = "1" in texts
    left, end = _fold_text(text, 1, leaf_in, node)
    return left and _fold_text(text, end + 1, leaf_in, node)[0]


def contains(gens: Iterable[Term], t: Term) -> bool:
    """Membership t in <gens>; terminates structurally, no horizon needed."""
    texts = frozenset(g.text for g in gens)
    return t.text in texts or _children_in(texts, t.text)


# Flags 0 and 1 as letters that no flag equals, for brute_count.
_MARKS = bytes.maketrans(b"\0\1", b"zo")


def brute_count(gens: Iterable[Term], n_max: int) -> BigSeq:
    """Ground-truth counting oracle: look at every term of each length and
    count the members of <gens>.

    Deliberately independent of the transform-based counting path, and it
    builds no term.  Level k is listed implicitly as the pairs (x, y) with
    |x| + |y| = k, ordered by |x|, then by the rank of x, then by the rank of
    y; the oracle keeps one membership byte per term at that rank.  The sum
    x+y is a member iff both x and y are, so the pairs with left operand x
    are the flags of length k-|x| if x is a member and zeros otherwise, and
    C-level byte operations expand every flag of length i at once.  A
    generator's flag is set at its rank (:func:`_rank`).  A flag is priced
    at 2 bytes, its byte and those of the level being built: tracemalloc
    measures under 2 bytes per flag from length 10 on, 1.27 at length 14.
    A generator's rank and its slots are priced at 56 bytes, and the fixed
    cost at 4 KiB: 1.1 to 2.0 KiB measured up to length 9, where it is
    most of the peak.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    size = [0] + _whole_sizes(n_max, f"brute_count to length {n_max}")
    gens = [g for g in gens if g.length <= n_max]
    estimate = 2 * sum(size) + 56 * len(gens) + 4096
    check_memory(f"brute_count to length {n_max} ({sum(size):,} flags)", estimate)
    ranks: dict[int, list[int]] = {}
    for g in gens:
        ranks.setdefault(g.length, []).append(_rank(g, size))
    member: list[bytearray] = [bytearray()]
    for k in range(1, n_max + 1):
        # Level 1 has no pairs: its one term is the leaf.
        flags = bytearray(1 if k == 1 else 0)
        for i in range(1, k):
            # Each flag of length i, as a letter, becomes the flags of the
            # pairs it starts: those of length k-i, or as many zeros.
            marks = member[i].translate(_MARKS)
            flags += marks.replace(b"o", member[k - i]).replace(b"z", bytes(size[k - i]))
        for r in ranks.get(k, ()):
            flags[r] = 1
        member.append(flags)
    return BigSeq(flags.count(1) for flags in member[1:])


def _rank(t: Term, size: list[int]) -> int:
    """Position of ``t`` in the pair order of :func:`brute_count`, where
    ``size[k]`` is the number of terms of length k; one pass over the text,
    folding (rank, length) pairs."""

    def node(i: int, j: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        k = x[1] + y[1]
        before = sum(size[m] * size[k - m] for m in range(1, x[1]))
        return before + x[0] * size[y[1]] + y[0], k

    return _fold_text(t.text, 0, (0, 1), node)[0][0]


# ---------------------------------------------------------------------------
# Level sets per family and minimal generating sets

def family_levels(family: GenFamily, n_max: int) -> Levels:
    """Per-length slices of the subgroupoid generated by ``family``.

    Only term-enumerable variants are supported (not ExplicitSeq).  Levels
    are bounded in length, then priced from the counts of :func:`_counts`,
    before any is built.  A finite or shifted family is built by the closure
    DP (:func:`_closure_texts`) from its minimal generating set: a term of
    length k is in N iff it is a generator or both root children are in N;
    its levels are wrapped from the longest down.
    """
    if isinstance(family, Longitudinal):
        # The longest multiple of its shortest length is a member, whose
        # level is the whole magma's; the levels whose count is nonzero are
        # priced, then listed.
        check_length(f"levels 1..{n_max}", n_max - n_max % min(family.lengths))
        counts = [0, *_counts(family, n_max, 1)]
        _check_levels(islice(counts, 1, None))
        return tuple(
            frozenset(_wrap_texts(iter_level_texts(k)) if c else ()) for k, c in enumerate(counts)
        )
    if isinstance(family, ShiftedFull):
        # M+a is its own minimal generating set: level k is seeded with y+a
        # for y in level k - |a| of the whole magma, whose listing is priced
        # with the closure.
        a, la = family.a.text, family.a.length
        whole = _whole_sizes(n_max - la, f"levels 1..{n_max}")
        seeds = lambda k: (f"({y}+{a})" for y in iter_level_texts(k - la)) if k > la else ()
    elif isinstance(family, FiniteSet):
        whole = []
        by_len: dict[int, list[str]] = {}
        for g in minimal_generators(family.terms):
            by_len.setdefault(g.length, []).append(g.text)
        # With l the shortest length, level l*m holds the C_(m-1) bracketings
        # of m copies of a shortest generator.
        check_length(f"levels 1..{n_max}", n_max // min(by_len, default=n_max + 1))
        seeds = lambda k: by_len.get(k, ())
    else:
        raise UnsupportedVariantError(
            f"{type(family).__name__} has no term-level representation"
        )
    sizes = _counts(family, n_max, 1)
    _check_levels(s + w for s, w in zip_longest(sizes, whole, fillvalue=0))
    texts = _closure_texts(seeds, n_max)
    # Popped, a text list is freed once its terms are made, before their set.
    levels = [frozenset(_wrap_texts(texts.pop())) for _ in range(n_max + 1)]
    return tuple(reversed(levels))


def _closure_texts(seeds: Callable[[int], Iterable[str]], n_max: int) -> list[list[str]]:
    """The closure DP: text levels 0..n_max, entry 0 empty, in no set order.

    Level k is the texts ``seeds(k)`` and the sums x+y of members whose
    lengths add up to k.  ``seeds`` must give a minimal generating set:
    then no seed is such a sum, and a sum splits uniquely at its root, so
    no text is built twice.  Only the lengths whose level has members are
    split at, in increasing order.  Nothing is priced here.
    """
    levels: list[list[str]] = [[]]
    filled: list[int] = []
    for k in range(1, n_max + 1):
        level = list(seeds(k))
        level += [
            f"({x}+{y})" for i in filled if levels[k - i] for x in levels[i] for y in levels[k - i]
        ]
        if level:
            filled.append(k)
        levels.append(level)
    return levels


def minimal_generators(gens: Iterable[Term]) -> frozenset[Term]:
    """The unique minimal generating set of <gens>; always a subset of gens.

    A generator is redundant iff both its root children are members, which
    one pass over its text decides on subterms alone; no closure
    enumeration is involved.
    """
    genset = frozenset(gens)
    texts = frozenset(g.text for g in genset)
    return frozenset(g for g in genset if not _children_in(texts, g.text))


def minimal_generating_up_to(family: GenFamily, n_max: int) -> Levels:
    """Per-length slices of the minimal generating set G = N \\ (N+N),
    computed up to ``n_max``."""
    levels = family_levels(family, n_max)
    minimal = minimal_generators(t for lvl in levels for t in lvl)
    return tuple(lvl & minimal for lvl in levels)


def rank_lambda(gens: Iterable[Term]) -> tuple[int, int]:
    """(rank, lambda) of <gens>: size of the minimal generating set and the
    minimum generator length."""
    minimal = minimal_generators(gens)
    if not minimal:
        raise ValueError("rank/lambda need a nonempty generating set")
    return len(minimal), min(t.length for t in minimal)


# ---------------------------------------------------------------------------
# Counting sequences

def generator_counting_sequence(family: GenFamily, n_max: int) -> BigSeq:
    """|G|_n for the minimal generating set G described by ``family``."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if isinstance(family, Longitudinal):
        raise UnsupportedVariantError(
            "longitudinal families have no finite generator histogram; "
            "use longitudinal_counting"
        )
    h, k = _generators(family, n_max)
    return BigSeq(_poly_add(h, [0] * k + catalan_numbers(n_max - k) if k else [])).padded(n_max)


def _generators(family: GenFamily, n_max: int) -> tuple[Sequence[int], int]:
    """The certificate (h, k): the lengths of the minimal generators up to
    n_max have the series Phi = h + x^k*C, C = sum C_(m-1)*x^m (no C at
    k = 0), h = |G|_1, |G|_2, ... (a finite set's to its longest generator).
    M+a, generated by y+a for y in M, is h = () and k = |a|."""
    if isinstance(family, ShiftedFull):
        return (), family.a.length
    if isinstance(family, ExplicitSeq):
        return family.seq.entries[:n_max], 0
    lengths = Counter(g.length for g in minimal_generators(family.terms) if g.length <= n_max)
    return [lengths[i] for i in range(1, max(lengths, default=0) + 1)], 0


def counting_sequence(family: GenFamily, n_max: int) -> BigSeq:
    """|N|_n for the subgroupoid N generated by ``family``.  It holds every
    count, so it is priced before the first is made, at 16 KiB and the rate
    of :func:`_transform_rate` for an explicit generator list, or of |N|_n <=
    C_(n-1) < 4^(n-1) for any other family; :func:`counting_texts` streams."""
    rate = _transform_rate(family.seq.entries[:n_max]) if isinstance(family, ExplicitSeq) else 2
    check_memory(f"the counting sequence to length {n_max:,}", _ints_bytes(n_max, rate) + 16384)
    return BigSeq(_counts(family, n_max, 1))


def counting_texts(family: GenFamily, n_max: int) -> Iterator[str]:
    """The decimal texts of :func:`counting_sequence`, made as they are read
    by :func:`_exact_texts`; the family and the horizon are checked at once."""
    return _exact_texts(_counts, family, n_max)


def _counts(family: GenFamily, n_max: int, one: int) -> Iterator[int]:
    """The one place that decides how a family is counted, every count made
    from ``one`` (int or Decimal); the family and the horizon are checked at
    once, and |N|_1..|N|_{n_max} are made as they are read.  A longitudinal
    family is the Catalan count at the lengths admitted by the
    :func:`_apery_table` of its reduced lengths, of a <= n_max entries, none
    when every length exceeds n_max.  Any other reads its certificate
    (:func:`_generators`): h alone at k = 0 (:func:`_histogram_counts`),
    else the root of 1 - 4*Phi (:func:`_quadratic_root`)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if isinstance(family, Longitudinal):
        if min(family.lengths) > n_max:
            return repeat(0, n_max)
        g = math.gcd(*family.lengths)
        least = _apery_table(sorted(v // g for v in family.lengths))
        member = (n % g == 0 and n // g >= least[n // g % len(least)] for n in count(1))
        return (c if m else 0 for c, m in zip(_catalan_series(n_max, one), member))
    h, k = _generators(family, n_max)
    if not k:
        return _histogram_counts(h, n_max, one)
    # C = (1 - S)/2, so 1 - 4*Phi = (1 - 4h - 2x^k) + 2x^k * S.
    p0 = _poly_add([1, *(-4 * c for c in h)], [0] * k + [-2])
    return islice(_quadratic_root([1], [-1], p0, [0] * k + [2], n_max, one), 1, None)


def _period(family: GenFamily, n_max: int) -> int:
    """The gcd of the lengths up to ``n_max`` at which ``family`` has
    members, 0 when it has none: member lengths are sums of generator
    lengths, so it is the gcd of the generator lengths up to ``n_max``
    (of h, and k+1 and k+2 or fewer if k > 0, in the certificate)."""
    if isinstance(family, Longitudinal):
        return math.gcd(*(v for v in family.lengths if v <= n_max))
    h, k = _generators(family, n_max)
    shifted = range(k + 1, min(k + 2, n_max) + 1) if k else ()
    return math.gcd(*(i for i, c in enumerate(h, 1) if c), *shifted)


def longitudinal_counting(lengths: Iterable[int], n_max: int) -> BigSeq:
    """Counting sequence of the longitudinal subgroupoid: the full Catalan
    count at lengths inside the subsemigroup, zero elsewhere."""
    return counting_sequence(Longitudinal(lengths), n_max)


def semigroup_info(lengths: Iterable[int]) -> NumericalSemigroupInfo:
    """gcd, reduced generators and Frobenius number of the numerical
    subsemigroup generated by ``lengths``: ab - a - b at rank 2, else
    max(least) - a over the :func:`_apery_table` of the reduced ones (-1 at a = 1)."""
    aset = sorted(Longitudinal(lengths).lengths)
    g = math.gcd(*aset)
    a, *rest = reduced = [v // g for v in aset]
    frobenius = a * rest[0] - a - rest[0] if len(rest) == 1 else max(_apery_table(reduced)) - a
    return NumericalSemigroupInfo(g, frozenset(reduced), frobenius)


def _apery_table(reduced: list[int]) -> list[float]:
    """The Apery table of the semigroup of the sorted coprime ``reduced`` =
    [a, ...]: least[r] is its least member that is r mod a, so n is a member
    iff n >= least[n % a].  Boecker and Liptak's round robin (Fundamenta
    Informaticae 2007) in O(k*a) time for k generators, priced first: a
    slot, an int of up to a*a_k and a slot of a cycle's slice per residue + 4 KiB."""
    a, *rest = reduced
    width = 28 + 4 * ((a * reduced[-1]).bit_length() // 30 + 1)
    check_memory(f"the Apery table of {a:,} residues", (16 + width) * a + 4096)
    least: list[float] = [0] + [math.inf] * (a - 1)
    for b in rest:
        d = math.gcd(a, b)
        # b walks cycles of a/d residues; one round from a cycle's least settles it.
        for r in range(d):
            n = min(least[r::d])
            if n < math.inf:
                for _ in range(a // d - 1):
                    n += b
                    p = n % a
                    n = least[p] = min(n, least[p])
    return least


# ---------------------------------------------------------------------------
# Text syntax for generating families

def parse_family(text: str, n_max: int | None = None) -> GenFamily:
    """Parse the CLI family syntax.

    ``full`` | ``finite:[(1+1),(1+(1+1))]`` | ``shifted:(1+1)`` |
    ``longitudinal:[2,3]`` | ``seq:[0,1,1]`` | ``seqfile:path.csv``; a
    file's rows past a horizon ``n_max`` >= 1 are not read.
    """
    text = text.strip()
    if text == "full":
        return FiniteSet({leaf()})
    kind, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"family spec needs 'kind:...', got {text!r}")
    kind = kind.strip()
    body = body.strip()
    if kind == "finite":
        items = _split_bracketed(body, text)
        return FiniteSet(parse_term(item) for item in items)
    if kind == "shifted":
        return ShiftedFull(parse_term(body))
    if kind == "longitudinal":
        items = _split_bracketed(body, text)
        if not items:
            raise ValueError(f"longitudinal family needs lengths: {text!r}")
        return Longitudinal(int(item) for item in items)
    if kind == "seq":
        items = _split_bracketed(body, text)
        with unlimited_int_digits():
            return ExplicitSeq(BigSeq(int(item) for item in items))
    if kind == "seqfile":
        if not Path(body).is_file():
            raise ValueError(f"sequence file not found: {body!r}")
        return ExplicitSeq(read_sequence_csv(body, n_max))
    raise ValueError(f"unknown family kind {kind!r} in {text!r}")


def format_family(family: GenFamily) -> str:
    """Canonical text form; inverse of :func:`parse_family` (files become
    inline ``seq:[...]``)."""
    if isinstance(family, FiniteSet):
        inner = ",".join(format_term(t) for t in sorted(family.terms))
        return f"finite:[{inner}]"
    if isinstance(family, ShiftedFull):
        return f"shifted:{format_term(family.a)}"
    if isinstance(family, Longitudinal):
        return f"longitudinal:[{','.join(str(v) for v in sorted(family.lengths))}]"
    if isinstance(family, ExplicitSeq):
        with unlimited_int_digits():
            return f"seq:[{','.join(str(v) for v in family.seq)}]"
    raise TypeError(f"not a GenFamily: {family!r}")


def _split_bracketed(body: str, full_text: str) -> list[str]:
    """Split ``[a,b,c]`` at every comma: no term text or integer holds one,
    and the caller parses each item."""
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected bracketed list in {full_text!r}")
    inner = body[1:-1].strip()
    return [item.strip() for item in inner.split(",")] if inner else []
