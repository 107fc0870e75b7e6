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
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Iterable, Iterator, Union

from .errors import UnsupportedVariantError
from .sequences import (
    EXACT_DECIMAL,
    BigSeq,
    _sqrt_series,
    cat_transform,
    catalan_numbers,
    read_sequence_csv,
    unlimited_int_digits,
)
from .terms import (
    DEFAULT_ENUMERATION_CAP,
    Term,
    _check_cap,
    format_term,
    grow_levels,
    leaf,
    parse_term,
    sum_terms,
    whole_levels,
)


@dataclass(frozen=True)
class FiniteSet:
    """Finitely many generator terms (possibly empty: the empty subgroupoid)."""

    terms: frozenset[Term]

    def __init__(self, terms: Iterable[Term]):
        tset = frozenset(terms)
        for t in tset:
            if not isinstance(t, Term):
                raise TypeError(f"generators must be Terms, got {type(t).__name__}")
        object.__setattr__(self, "terms", tset)


@dataclass(frozen=True)
class ShiftedFull:
    """The generating set M+a = {y+a : y in M}."""

    a: Term

    def __post_init__(self) -> None:
        if not isinstance(self.a, Term):
            raise TypeError("shift must be a Term")


@dataclass(frozen=True)
class Longitudinal:
    """All terms whose length lies in the numerical subsemigroup generated
    by ``lengths``."""

    lengths: frozenset[int]

    def __init__(self, lengths: Iterable[int]):
        lset = frozenset(int(v) for v in lengths)
        if not lset:
            raise ValueError("longitudinal family needs at least one length")
        if any(v < 1 for v in lset):
            raise ValueError("longitudinal lengths must be >= 1")
        object.__setattr__(self, "lengths", lset)


@dataclass(frozen=True)
class ExplicitSeq:
    """A user-supplied generator-counting sequence."""

    seq: BigSeq

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.seq):
            raise ValueError("generator counts must be >= 0")


GenFamily = Union[FiniteSet, ShiftedFull, Longitudinal, ExplicitSeq]


@dataclass(frozen=True)
class NumericalSemigroupInfo:
    gcd: int
    reduced_generators: frozenset[int]
    frobenius: int


# ---------------------------------------------------------------------------
# Closure and membership

Levels = tuple[frozenset[Term], ...]


def closure_up_to(gens: Iterable[Term], n_max: int) -> Levels:
    """Per-length slices (N)_1 .. (N)_{n_max} of N = <gens>.

    Returns a tuple indexed 0..n_max whose entry k is the set of length-k
    members (entry 0 is empty).  The level DP of :func:`grow_levels`, seeded
    with the minimal generating set of ``gens``: a term of length k is in N
    iff it is a generator or both root children are in N.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    by_len: dict[int, list[Term]] = {}
    for g in minimal_generators(gens):
        by_len.setdefault(g.length, []).append(g)
    levels = grow_levels(lambda k: by_len.get(k, ()), n_max, DEFAULT_ENUMERATION_CAP)
    return tuple(map(frozenset, levels))


def _member(genset: frozenset[Term], t: Term, memo: dict[Term, bool]) -> bool:
    """Memoized membership recursion: t is in N iff t is a generator or both
    root children are in N."""
    stack = [t]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if node.is_leaf:
            memo[node] = node in genset
            stack.pop()
            continue
        l, r = node.left, node.right
        assert l is not None and r is not None
        pending = [c for c in (l, r) if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[node] = node in genset or (memo[l] and memo[r])
        stack.pop()
    return memo[t]


def contains(gens: Iterable[Term], t: Term) -> bool:
    """Membership t in <gens>; terminates structurally, no horizon needed."""
    return _member(frozenset(gens), t, {})


def brute_count(gens: Iterable[Term], n_max: int) -> BigSeq:
    """Ground-truth counting oracle: look at every term of each length and
    count the members of <gens>.

    Deliberately independent of the transform-based counting path, and it
    builds no term.  Level k is listed implicitly as the pairs (x, y) with
    |x| + |y| = k, ordered by |x|, then by the rank of x, then by the rank of
    y; the oracle keeps one membership flag per term at that rank.  The sum
    x+y is a member iff both x and y are, and a generator's flag is set at
    its rank (:func:`_rank`).
    """
    _check_cap(n_max, DEFAULT_ENUMERATION_CAP)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    size = [0] + catalan_numbers(n_max)
    ranks: dict[int, list[int]] = {}
    for g in gens:
        if g.length <= n_max:
            ranks.setdefault(g.length, []).append(_rank(g, size))
    member: list[list[bool]] = [[]]
    for k in range(1, n_max + 1):
        # Level 1 has no pairs: its one term is the leaf.
        flags = [a and b for i in range(1, k) for a in member[i] for b in member[k - i]] or [False]
        for r in ranks.get(k, ()):
            flags[r] = True
        member.append(flags)
    return BigSeq(sum(flags) for flags in member[1:])


def _rank(t: Term, size: list[int]) -> int:
    """Position of ``t`` in the pair order of :func:`brute_count`, where
    ``size[k]`` is the number of terms of length k.  Recurses once per
    level of ``t``, so at most ``t.length`` deep."""
    if t.left is None:
        return 0
    x, y = t.left, t.right
    assert y is not None
    k = t.length
    before = sum(size[i] * size[k - i] for i in range(1, x.length))
    return before + _rank(x, size) * size[y.length] + _rank(y, size)


# ---------------------------------------------------------------------------
# Level sets per family and minimal generating sets

def family_levels(family: GenFamily, n_max: int) -> Levels:
    """Per-length slices of the subgroupoid generated by ``family``.

    Only term-enumerable variants are supported (not ExplicitSeq).
    """
    if isinstance(family, FiniteSet):
        return closure_up_to(family.terms, n_max)
    if isinstance(family, ShiftedFull):
        # M+a is its own minimal generating set, so it seeds the level DP.
        # The horizon is checked before the whole magma below it is built.
        _check_cap(n_max, DEFAULT_ENUMERATION_CAP)
        a = family.a
        whole = whole_levels(n_max - a.length)

        def seeds(k: int) -> list[Term]:
            if k <= a.length:
                return []
            return [sum_terms(y, a) for y in whole[k - a.length]]

        return tuple(map(frozenset, grow_levels(seeds, n_max, DEFAULT_ENUMERATION_CAP)))
    if isinstance(family, Longitudinal):
        whole = whole_levels(n_max)
        reachable = _reachable_lengths(family.lengths, n_max)
        empty: frozenset[Term] = frozenset()
        return tuple(
            frozenset(level) if reachable[k] else empty for k, level in enumerate(whole)
        )
    raise UnsupportedVariantError(
        f"{type(family).__name__} has no term-level representation"
    )


def minimal_generators(gens: Iterable[Term]) -> frozenset[Term]:
    """The unique minimal generating set of <gens>; always a subset of gens.

    A generator is redundant iff both its root children are members, which
    the membership recursion decides on subterms alone; no closure
    enumeration (and hence no size cap) is involved.
    """
    genset = frozenset(gens)
    if not genset:
        return frozenset()
    memo: dict[Term, bool] = {}
    return frozenset(
        g
        for g in genset
        if g.is_leaf
        or not (_member(genset, g.left, memo) and _member(genset, g.right, memo))
    )


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
    if isinstance(family, FiniteSet):
        hist = [0] * n_max
        for g in minimal_generators(family.terms):
            if g.length <= n_max:
                hist[g.length - 1] += 1
        return BigSeq(hist)
    if isinstance(family, ShiftedFull):
        la = family.a.length
        entries = [0] * n_max
        if n_max > la:
            cats = catalan_numbers(n_max - la)
            for n in range(la + 1, n_max + 1):
                entries[n - 1] = cats[n - la - 1]
        return BigSeq(entries)
    if isinstance(family, ExplicitSeq):
        return family.seq.padded(n_max)
    raise UnsupportedVariantError(
        "longitudinal families have no finite generator histogram; "
        "use longitudinal_counting"
    )


def counting_sequence(family: GenFamily, n_max: int) -> BigSeq:
    """|N|_n for the subgroupoid N generated by ``family``."""
    return BigSeq(_counts(family, n_max, 1))


def counting_texts(family: GenFamily, n_max: int) -> Iterator[str]:
    """The decimal texts of :func:`counting_sequence`, without converting a
    binary integer to decimal: the recurrences run on ``Decimal`` values
    under EXACT_DECIMAL, whose ``str`` is linear in the digit count.  An
    explicit generator sequence keeps the int schoolbook transform."""
    if isinstance(family, ExplicitSeq):
        with unlimited_int_digits():
            return iter([str(v) for v in counting_sequence(family, n_max)])
    with localcontext(EXACT_DECIMAL):
        values = _counts(family, n_max, Decimal(1))
    return _drain_texts(values)


def _drain_texts(values: list) -> Iterator[str]:
    """The texts of ``values`` in order, each value dropped once printed."""
    values.reverse()
    while values:
        yield str(values.pop())


def _counts(family: GenFamily, n_max: int, one: int) -> list[int]:
    """The one place that decides how a family is counted, with every
    recurrence started from ``one`` (int or Decimal).

    Psi = Psi^2 + Phi gives Q = 1 - 2*Psi = sqrt(1 - 4*Phi), which is
    algebraic for finite and shifted families, so those run the linear-time
    recurrence of :func:`sqrt_series_counting`.  Longitudinal families have
    a closed form; an explicit generator sequence goes through the
    schoolbook :func:`cat_transform`, in ints.
    """
    if isinstance(family, Longitudinal):
        return _longitudinal_counts(family, n_max, one)
    if isinstance(family, ShiftedFull):
        # Phi = x^k * (1 - S)/2, so 1 - 4*Phi = (1 - 2x^k) + 2x^k * S.
        k = family.a.length
        return _sqrt_series([1] + [0] * (k - 1) + [-2], [0] * k + [2], n_max, one)
    hist = generator_counting_sequence(family, n_max)
    if isinstance(family, ExplicitSeq):
        return list(cat_transform(hist))
    if hist[1] == 1:
        # The leaf generates the whole magma.
        return catalan_numbers(n_max, one)
    return _sqrt_series([1] + [-4 * c for c in hist], [0], n_max, one)


def _reachable_lengths(lengths: Iterable[int], n_max: int) -> list[bool]:
    """reachable[n] iff n is a positive combination of the given lengths."""
    reach = [True] + [False] * n_max
    gens = sorted(lengths)
    for n in range(1, n_max + 1):
        reach[n] = any(n >= a and reach[n - a] for a in gens)
    reach[0] = False
    return reach


def longitudinal_counting(lengths: Iterable[int], n_max: int) -> BigSeq:
    """Counting sequence of the longitudinal subgroupoid: the full Catalan
    count at lengths inside the subsemigroup, zero elsewhere."""
    return BigSeq(_longitudinal_counts(Longitudinal(lengths), n_max, 1))


def _longitudinal_counts(family: Longitudinal, n_max: int, one: int) -> list[int]:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    reach = _reachable_lengths(family.lengths, n_max)
    cats = catalan_numbers(n_max, one)
    return [cats[n - 1] if reach[n] else 0 for n in range(1, n_max + 1)]


def semigroup_info(lengths: Iterable[int]) -> NumericalSemigroupInfo:
    """gcd, reduced generators and Frobenius number of the numerical
    subsemigroup generated by ``lengths``.

    The rank-2 case uses the closed formula ab - a - b; otherwise the
    reachability scan runs up to Schur's bound (a_1 - 1)(a_k - 1) - 1 on the
    Frobenius number, which is -1 when 1 is a generator.
    """
    aset = sorted(frozenset(int(v) for v in lengths))
    if not aset:
        raise ValueError("need at least one generator")
    if any(v < 1 for v in aset):
        raise ValueError("generators must be >= 1")
    g = math.gcd(*aset)
    reduced = [v // g for v in aset]
    if len(reduced) == 2:
        a, b = reduced
        return NumericalSemigroupInfo(g, frozenset(reduced), a * b - a - b)
    bound = (reduced[0] - 1) * (reduced[-1] - 1) - 1
    reach = _reachable_lengths(reduced, bound)
    frob = max((n for n in range(1, bound + 1) if not reach[n]), default=-1)
    return NumericalSemigroupInfo(g, frozenset(reduced), frob)


# ---------------------------------------------------------------------------
# Text syntax for generating families

def parse_family(text: str) -> GenFamily:
    """Parse the CLI family syntax.

    ``full`` | ``finite:[(1+1),(1+(1+1))]`` | ``shifted:(1+1)`` |
    ``longitudinal:[2,3]`` | ``seq:[0,1,1]`` | ``seqfile:path.csv``
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
        return ExplicitSeq(read_sequence_csv(body))
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
    """Split ``[a,b,c]`` on top-level commas (parentheses may nest)."""
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected bracketed list in {full_text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return []
    items = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {full_text!r}")
        elif ch == "," and depth == 0:
            items.append(inner[start:i].strip())
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {full_text!r}")
    items.append(inner[start:].strip())
    return items
