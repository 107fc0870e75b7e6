"""Subgroupoid machinery: closure, membership, minimal generating sets,
counting sequences, numerical semigroups, family syntax."""

import copy
import gc
import math
import pickle
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from freemagma import errors, listing, sequences, subgroupoids, terms
from freemagma.reporting import _Record
from freemagma.cli import main
from freemagma.sequences import unlimited_int_digits
from freemagma import (
    BigSeq,
    CapacityError,
    ExplicitSeq,
    FiniteSet,
    Longitudinal,
    ShiftedFull,
    UnsupportedVariantError,
    brute_count,
    cat_transform,
    catalan_c,
    catalan_numbers,
    closure_up_to,
    contains,
    counting_sequence,
    counting_texts,
    enumerate_terms,
    family_levels,
    format_family,
    format_term,
    generator_counting_sequence,
    iter_terms_up_to,
    leaf,
    left_comb,
    longitudinal_counting,
    minimal_generating_up_to,
    minimal_generators,
    parse_family,
    product,
    rank_lambda,
    right_comb,
    semigroup_info,
    sum_terms,
    write_sequence_csv,
)

ONE = leaf()
TWO = ONE + ONE
THREE_PLUS = right_comb(3)
THREE_MINUS = left_comb(3)

# Closure inputs: an independent pair, a set padded with redundant sums
# (2+2 and 2+(2+2) lie in <2>), and a set whose closure is the whole magma.
CLOSURE_INPUTS = [{TWO, THREE_PLUS}, {TWO, TWO + TWO, TWO + (TWO + TWO)}, {ONE, TWO}]


class TestClosure:
    def test_single_generator_two(self):
        levels = closure_up_to({TWO}, 4)
        assert [len(lvl) for lvl in levels] == [0, 0, 1, 0, 1]
        assert levels[4] == {TWO + TWO}

    def test_full_magma_from_leaf(self):
        levels = closure_up_to({ONE}, 3)
        for k in (1, 2, 3):
            assert levels[k] == set(enumerate_terms(k))

    def test_two_length_three_generators(self):
        levels = closure_up_to({THREE_MINUS, THREE_PLUS}, 6)
        assert [len(lvl) for lvl in levels[1:]] == [0, 0, 2, 0, 0, 4]

    def test_idempotent(self):
        for gens in CLOSURE_INPUTS:
            levels = closure_up_to(gens, 6)
            elements = set().union(*levels)
            again = closure_up_to(elements, 6)
            assert again == levels

    @pytest.mark.parametrize("shift", [ONE, TWO, THREE_PLUS], ids=format_term)
    def test_shifted_full_is_closure_of_its_truncation(self, shift):
        truncation = {y + shift for k in range(1, 10 - shift.length) for y in enumerate_terms(k)}
        assert family_levels(ShiftedFull(shift), 9) == closure_up_to(truncation, 9)

    def test_empty_levels_cost_no_splits(self):
        # The DP splits a length only where both parts have members: with
        # every split of every level visited, length 20000 took 10 s.
        start = time.perf_counter()
        levels = closure_up_to([], 20000)
        assert time.perf_counter() - start < 1
        assert len(levels) == 20001 and not any(levels)

    def test_cap(self):
        with pytest.raises(CapacityError, match="over the memory budget of 1024.0 MiB"):
            closure_up_to({ONE}, 16)

    def test_level_sizes_are_the_counting_sequence(self):
        # The closure DP prices its levels from these sizes before it builds them.
        levels = closure_up_to({TWO}, 24)
        sizes = BigSeq(len(level) for level in levels[1:])
        assert sizes == counting_sequence(FiniteSet({TWO}), 24)

    @pytest.mark.parametrize("family", [ShiftedFull(ONE), Longitudinal({2})], ids=repr)
    def test_family_cap_checked_before_building(self, family, monkeypatch):
        def refuse(*args):
            raise AssertionError("levels were built over the budget")

        # A longitudinal family's levels are priced from its counts, which
        # read its semigroup's Apery table (at most 64 residues here).
        monkeypatch.setattr(subgroupoids, "_closure_texts", refuse)
        monkeypatch.setattr(listing, "_level_blocks", refuse)
        with pytest.raises(CapacityError, match="over the memory budget of 1024.0 MiB"):
            family_levels(family, 17)

    def test_closures_run_no_schoolbook_transform(self, monkeypatch):
        # Closure levels are sized by the linear counting path, so a refusal
        # at n=4000 costs no quadratic transform of the seed counts.
        expected = closure_up_to({TWO}, 24), family_levels(ShiftedFull(ONE), 12)

        def refuse(*args):
            raise AssertionError("a closure ran the schoolbook transform")

        monkeypatch.setattr(sequences, "_schoolbook_transform", refuse)
        assert (closure_up_to({TWO}, 24), family_levels(ShiftedFull(ONE), 12)) == expected
        with pytest.raises(CapacityError) as refused:
            closure_up_to([ONE], 4000)
        assert str(refused.value).startswith("levels 1..4000 would hold over 10^33 terms")

    def test_refusal_holds_no_table_of_sizes(self):
        # The level sizes are priced as they are made: refusing length 20000
        # held 51.6 MiB of counts when they were listed first.
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"^levels 1\.\.20000 "):
                closure_up_to([ONE], 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_shifted_priced_before_any_text_level(self, monkeypatch):
        # The whole magma's levels 1..15 and the shifted levels 1..16 are
        # priced together from Catalan numbers before either is built.
        def refuse(*args):
            raise AssertionError("a text level was built before the price was checked")

        monkeypatch.setattr(subgroupoids, "_closure_texts", refuse)
        monkeypatch.setattr(listing, "_level_blocks", refuse)
        with pytest.raises(
            CapacityError,
            match=r"^levels 1\.\.16 \(9,140,906 terms\) would take an estimated 2289\.3 MiB, "
            r"over the memory budget of 1024\.0 MiB$",
        ):
            family_levels(ShiftedFull(ONE), 16)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: closure_up_to({TWO}, 20),
            lambda: family_levels(ShiftedFull(ONE), 12),
            lambda: family_levels(Longitudinal({2}), 11),
            lambda: brute_count({TWO}, 14),
            # Empty levels are priced too, at 288 bytes each.
            lambda: closure_up_to((), 4000),
            lambda: family_levels(Longitudinal({10**9}), 4000),
        ],
        ids=["closure", "shifted", "longitudinal", "brute_count", "empty", "empty-longitudinal"],
    )
    def test_small_budget_refuses_before_building(self, build, monkeypatch):
        def refuse(*args):
            raise AssertionError("levels were built over the budget")

        monkeypatch.setattr(subgroupoids, "_closure_texts", refuse)
        monkeypatch.setattr(listing, "_level_blocks", refuse)
        monkeypatch.setattr(subgroupoids, "_rank", refuse)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
        with pytest.raises(CapacityError, match=r"estimated \d+\.\d MiB, over the memory budget of 1\.0 MiB"):
            build()


    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: closure_up_to([ONE], 600), "levels 1..600 would hold over 10^33 terms"),
            (lambda: brute_count([ONE], 9000), "brute_count to length 9000 would hold over 10^33 terms"),
            (lambda: family_levels(ShiftedFull(ONE), 9000), "levels 1..9000 would hold over 10^33 terms"),
            (lambda: family_levels(Longitudinal({2}), 9000), "levels 1..9000 would hold over 10^33 terms"),
        ],
        ids=["closure", "brute_count", "shifted", "longitudinal"],
    )
    def test_oversized_requests_are_refused_briefly(self, build, message):
        # Their counts pass 4300 digits or a float's range; the message
        # names the request in a few words.
        with pytest.raises(CapacityError) as refused:
            build()
        text = str(refused.value)
        assert text == f"{message}, over the memory budget of 1024.0 MiB" and len(text) < 300

    def test_long_requests_are_refused_from_a_bounded_table(self, monkeypatch):
        # Past LONGEST_PRICED no exact Catalan table is built to price them.
        def bounded(n):
            assert n <= errors.LONGEST_PRICED, f"a Catalan table of length {n}"
            return catalan_numbers(n)

        def uncounted(*args):
            raise AssertionError("a closure was counted before its length was bounded")

        for module in (listing, terms, subgroupoids):
            monkeypatch.setattr(module, "catalan_numbers", bounded)
        monkeypatch.setattr(subgroupoids, "_counts", uncounted)
        for build in (
            lambda: list(listing._level_blocks(100000)),
            lambda: next(iter_terms_up_to(100000)),
            lambda: enumerate_terms(100000),
            lambda: brute_count([ONE], 100000),
            lambda: family_levels(ShiftedFull(ONE), 100000),
            lambda: family_levels(Longitudinal({2}), 100000),
            lambda: closure_up_to([ONE], 100000),
        ):
            with pytest.raises(CapacityError, match="would hold over 10\\^33 terms"):
                build()
        # Length 65 holds level 62 of the whole magma or more: C_61 terms.
        assert catalan_numbers(errors.LONGEST_PRICED - 2)[-1] > 10**33


class TestContains:
    def test_examples(self):
        assert contains({TWO}, TWO + TWO)
        assert not contains({TWO}, THREE_PLUS)
        assert contains({TWO, THREE_PLUS}, TWO + THREE_PLUS)

    def test_leaf_membership(self):
        assert contains({ONE}, ONE)
        assert not contains({TWO}, ONE)

    def test_agrees_with_closure(self):
        for gens in CLOSURE_INPUTS:
            levels = closure_up_to(gens, 7)
            elements = set().union(*levels)
            for k in range(1, 8):
                for t in enumerate_terms(k):
                    assert contains(gens, t) == (t in elements)


class TestMinimalGenerators:
    def test_redundant_sum_removed(self):
        assert minimal_generators({TWO, TWO + TWO}) == {TWO}

    def test_independent_pair_survives(self):
        assert minimal_generators({TWO, THREE_PLUS}) == {TWO, THREE_PLUS}

    def test_leaf(self):
        assert minimal_generators({ONE}) == {ONE}

    def test_invariant_under_generating_set(self):
        small = minimal_generators({TWO})
        big = minimal_generators({TWO, TWO + TWO, TWO + (TWO + TWO)})
        assert small == big == {TWO}

    def test_no_minimal_generator_decomposes(self):
        gens = {TWO, THREE_PLUS, TWO + TWO, THREE_MINUS + TWO}
        minimal = minimal_generators(gens)
        for g in minimal:
            if not g.is_leaf:
                assert not (contains(gens, g.left) and contains(gens, g.right))

    def test_empty(self):
        assert minimal_generators(frozenset()) == frozenset()


class TestRankLambda:
    def test_pair(self):
        assert rank_lambda({TWO, THREE_PLUS}) == (2, 2)

    def test_leaf(self):
        assert rank_lambda({ONE}) == (1, 1)

    def test_sixteen_generator_example(self):
        gens = {THREE_PLUS} | {product(TWO, right_comb(k)) for k in range(2, 17)}
        assert rank_lambda(gens) == (16, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_lambda(frozenset())


class TestGeneratorCountingSequence:
    def test_shifted_full(self):
        seq = generator_counting_sequence(ShiftedFull(ONE), 8)
        assert seq.entries == (0,) + tuple(catalan_numbers(7))

    def test_finite_histogram(self):
        seq = generator_counting_sequence(FiniteSet({TWO, THREE_MINUS, THREE_PLUS}), 6)
        assert seq.entries == (0, 1, 2, 0, 0, 0)

    def test_finite_histogram_drops_redundant(self):
        seq = generator_counting_sequence(FiniteSet({TWO, TWO + TWO}), 6)
        assert seq.entries == (0, 1, 0, 0, 0, 0)

    def test_explicit_passthrough(self):
        seq = generator_counting_sequence(ExplicitSeq(BigSeq([0, 1, 0])), 5)
        assert seq.entries == (0, 1, 0, 0, 0)

    def test_longitudinal_unsupported(self):
        with pytest.raises(UnsupportedVariantError):
            generator_counting_sequence(Longitudinal({2}), 5)


class TestCountingSequence:
    def test_full_magma_is_catalan(self):
        assert counting_sequence(FiniteSet({ONE}), 30) == catalan_c(30)

    def test_shifted_prefix(self):
        seq = counting_sequence(ShiftedFull(ONE), 14)
        assert seq.entries == (0, 1, 1, 3, 7, 21, 62, 197, 637, 2123, 7196, 24807, 86608, 305792)

    def test_empty_family(self):
        assert counting_sequence(FiniteSet(()), 6).entries == (0,) * 6

    def test_matches_transform(self):
        fam = FiniteSet({TWO, THREE_PLUS})
        assert counting_sequence(fam, 12) == cat_transform(
            generator_counting_sequence(fam, 12)
        )

    def test_priced_before_counting(self, capsys, monkeypatch):
        # It holds every count; count streams the same counts and is not refused.
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
        with monkeypatch.context() as patched:
            def refuse(*args):
                raise AssertionError("a count was made before the price was checked")

            patched.setattr(subgroupoids, "_counts", refuse)
            with pytest.raises(
                CapacityError, match=r"^the counting sequence to length 4,000 would take an estimated"
            ):
                counting_sequence(FiniteSet({ONE}), 4000)
        assert main(["count", "--family", "full", "--n", "4000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4001

    # Each builds the whole list of a family's counts: it is priced as
    # counting_sequence prices that family.
    LIST_BUILDERS = [
        ("longitudinal_counting", lambda n: longitudinal_counting({1}, n), Longitudinal({1})),
        ("catalan_numbers", catalan_numbers, FiniteSet({ONE})),
        ("catalan_c", catalan_c, FiniteSet({ONE})),
        (
            "shifted-generators",
            lambda n: generator_counting_sequence(ShiftedFull(ONE), n),
            ShiftedFull(ONE),
        ),
    ]

    @pytest.mark.parametrize("build, family", [b[1:] for b in LIST_BUILDERS], ids=[b[0] for b in LIST_BUILDERS])
    def test_count_lists_are_priced_like_counting_sequence(self, monkeypatch, build, family):
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
        with monkeypatch.context() as patched:
            def refuse(*args):
                raise AssertionError("a count was made before the price was checked")

            patched.setattr(sequences, "_catalan_series", refuse)
            patched.setattr(subgroupoids, "_counts", refuse)
            for refused in (build, lambda n: counting_sequence(family, n)):
                with pytest.raises(CapacityError, match=r"over the memory budget of 1\.0 MiB$"):
                    refused(5000)
        assert len(build(1000)) == len(counting_sequence(family, 1000)) == 1000

    @pytest.mark.parametrize(
        "spec",
        ["full", "shifted:1", "shifted:(1+(1+1))", "finite:[(1+1),((1+1)+1),(1+(1+1))]",
         "longitudinal:[2,3]"],
    )
    def test_price_bounds_the_memory(self, spec, monkeypatch):
        prices = []
        monkeypatch.setattr(subgroupoids, "check_memory", lambda what, price: prices.append(price))
        family = parse_family(spec)
        for n in (1, 50, 2000):
            gc.collect()
            tracemalloc.start()
            try:
                counting_sequence(family, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= prices[0], (spec, n)
            prices.clear()


def _period_families():
    """The whole magma, every set of one or two of the 9 terms of length
    <= 4, the shifts by the 4 terms of length <= 3, longitudinal families
    with gcd 1 and above and with lengths past the horizon, and explicit
    lists with a gap and with no generator."""
    short = list(iter_terms_up_to(4))
    assert len(short) == 9
    sets = [FiniteSet(s) for k in (1, 2) for s in combinations(short, k)]
    shifts = [ShiftedFull(a) for a in short if a.length <= 3]
    lengths = ({2}, {4, 6}, {3, 100}, {2, 101}, {9})
    return [
        FiniteSet({ONE}), *sets, *shifts, *(Longitudinal(v) for v in lengths),
        parse_family("seq:[0,2,0,0,0,3]"), parse_family("seq:[0,0,0]"),
    ]


class TestPeriod:
    def test_gcd_of_the_lengths_with_members(self):
        # The oracle reads the counts: the gcd of the lengths n' <= n at
        # which the family has members, 0 (math.gcd()) when it has none.
        for family in _period_families():
            for n in range(1, 41):
                counts = counting_sequence(family, n)
                expected = math.gcd(*(k for k in range(1, n + 1) if counts[k]))
                assert subgroupoids._period(family, n) == expected, (format_family(family), n)


def _certificate_families():
    """Seeded families of the three algebraic kinds: sets of one to three
    of the 23 terms of length <= 5, nonnegative explicit lists, and the
    shifts by the 4 terms of length <= 3."""
    rng, short = random.Random(2401), list(iter_terms_up_to(5))
    assert len(short) == 23
    sets = [FiniteSet(rng.sample(short, rng.randint(1, 3))) for _ in range(12)]
    lists = [
        ExplicitSeq(BigSeq(rng.choice([0, 0, 1, 2, 3]) for _ in range(rng.randint(1, 8))))
        for _ in range(8)
    ]
    return [*sets, *lists, *(ShiftedFull(a) for a in short if a.length <= 3)]


class TestCertificate:
    """Every algebraic family is counted from one certificate (h, k), and
    its period and its generator counts are read from the same pair."""

    @pytest.mark.parametrize("family", _certificate_families(), ids=format_family)
    def test_counts_period_and_generators_agree(self, family):
        counts = counting_sequence(family, 200)
        assert counts == cat_transform(generator_counting_sequence(family, 200))
        for n in range(1, 61):
            expected = math.gcd(*(k for k in range(1, n + 1) if counts[k]))
            assert subgroupoids._period(family, n) == expected, n
        if not isinstance(family, ExplicitSeq):
            # The closure lists the generators y+a of M+a from its terms,
            # so this pins k = |a|, which the two checks above cannot.
            levels = minimal_generating_up_to(family, 9)
            assert generator_counting_sequence(family, 9) == BigSeq(map(len, levels[1:]))


# Shifts of length 1, 2, 3 and 5, and finite families whose minimal
# generator histograms have gaps and multiplicities: [0,0,2] and [0,1,0,0,3].
RECURRENCE_FAMILIES = [ShiftedFull(a) for a in (ONE, TWO, THREE_PLUS, left_comb(5))] + [
    FiniteSet({THREE_MINUS, THREE_PLUS}),
    FiniteSet({TWO, left_comb(5), right_comb(5), sum_terms(TWO, THREE_PLUS)}),
]


def _explicit_histograms():
    """Fixed-seed lists of 1 to 200 entries in 0..9, with a_1 zero and
    nonzero, at five horizons and two of them at n = 2000, lists just
    below, at and just above the schoolbook's share of nonzero entries at
    n = 300, and [0, 1, 1] and 17 ones at n = 17."""
    rng = random.Random(7477)
    cases = []
    for size in (1, 2, 3, 7, 50, 200):
        for first in (0, rng.randint(1, 9)):
            hist = [first] + [rng.randint(0, 9) for _ in range(size - 1)]
            cases += [(hist, n) for n in (1, 2, 3, 50, 300)]
    cases += [(cases[-1][0], 2000), ([0] * 3 + [rng.randint(0, 2) for _ in range(40)], 2000)]
    crossover = 300 // sequences._DENSE_SHARE
    for nonzero in (crossover - 1, crossover, crossover + 1):
        cases.append(([0, 0] + [rng.randint(1, 9) for _ in range(nonzero)], 300))
    return cases + [([0, 1, 1], 17), ([1] * 17, 17)]


EXPLICIT_HISTOGRAMS = _explicit_histograms()


def _hist_id(value):
    return f"{len(value)}-entries" if isinstance(value, list) else f"n{value}"


def _spy_on_schoolbook(monkeypatch) -> list[int]:
    """The lengths of the cat_transform calls made from now on."""
    calls = []
    real = sequences.cat_transform
    monkeypatch.setattr(sequences, "cat_transform", lambda seq: calls.append(len(seq)) or real(seq))
    return calls


class TestCountingRecurrence:
    """Finite and shifted families run the sqrt-series recurrence; it must
    reproduce the schoolbook transform bit for bit."""

    def test_histograms(self):
        assert generator_counting_sequence(RECURRENCE_FAMILIES[4], 3).entries == (0, 0, 2)
        assert generator_counting_sequence(RECURRENCE_FAMILIES[5], 5).entries == (0, 1, 0, 0, 3)

    @pytest.mark.parametrize("family", RECURRENCE_FAMILIES, ids=format_family)
    def test_matches_schoolbook_to_1000(self, family):
        schoolbook = cat_transform(generator_counting_sequence(family, 1000))
        assert counting_sequence(family, 1000) == schoolbook

    @pytest.mark.parametrize("n_max", range(1, 7))
    @pytest.mark.parametrize("family", RECURRENCE_FAMILIES, ids=format_family)
    def test_small_horizons(self, family, n_max):
        schoolbook = cat_transform(generator_counting_sequence(family, n_max))
        assert counting_sequence(family, n_max) == schoolbook

    def test_finite_and_shifted_families_use_no_schoolbook(self, monkeypatch):
        calls = _spy_on_schoolbook(monkeypatch)
        for family in RECURRENCE_FAMILIES + [FiniteSet({ONE}), FiniteSet(())]:
            counting_sequence(family, 40)
        assert calls == []

    @pytest.mark.parametrize("hist, n_max", EXPLICIT_HISTOGRAMS, ids=_hist_id)
    def test_explicit_histograms(self, hist, n_max, monkeypatch):
        # Counts and texts equal the schoolbook's and its str, and only a
        # histogram with more than n_max / _DENSE_SHARE nonzero entries
        # takes it; the leaf alone is the Catalan series.
        expected = cat_transform(BigSeq(hist).padded(n_max))
        calls = _spy_on_schoolbook(monkeypatch)
        family = ExplicitSeq(BigSeq(hist))
        assert counting_sequence(family, n_max) == expected
        with unlimited_int_digits():
            assert list(counting_texts(family, n_max)) == [str(v) for v in expected]
        leaf_alone = hist[0] == 1 and not any(hist[1:n_max])
        share = sequences._DENSE_SHARE
        dense = share * sum(map(bool, hist[:n_max])) > n_max and not leaf_alone
        assert calls == ([n_max] * 2 if dense else [])

    def test_single_long_generator_is_not_dense(self, monkeypatch):
        # One generator of length 2000 counts C_(k-1) at length 2000k; by
        # degree it would be dense, and the schoolbook would multiply zeros.
        calls = _spy_on_schoolbook(monkeypatch)
        family = ExplicitSeq(BigSeq([0] * 1999 + [1]))
        counts = counting_sequence(family, 5000)
        assert [n for n, v in enumerate(counts, 1) if v] == [2000, 4000]
        assert counts[2000] == counts[4000] == 1
        assert list(counting_texts(family, 5000)) == list(map(str, counts))
        assert calls == []

    def test_explicit_sequence_priced_at_its_transform_rate(self, monkeypatch):
        # |b_n| <= (9 * 5)^n prices [9] to 60,000 at 1259.5 MiB, where
        # the rate 2 of a family's counts would admit it at about 460 MiB.
        def no_counts(*args):
            raise AssertionError("a count was made")

        monkeypatch.setattr(subgroupoids, "_counts", no_counts)
        with pytest.raises(CapacityError, match=r"^the counting sequence to length 60,000 .* 1259\.5 MiB"):
            counting_sequence(ExplicitSeq(BigSeq([9])), 60000)


def _oracle_generator_sets():
    """All single terms, all pairs and the first 15 triples of terms of
    length <= 4: 60 generator sets."""
    pool = list(iter_terms_up_to(4))
    sets = [frozenset({t}) for t in pool]
    sets += [frozenset(c) for c in combinations(pool, 2)]
    sets += [frozenset(c) for c in list(combinations(pool, 3))[:15]]
    return sets


def _int_texts(family, n_max):
    with unlimited_int_digits():
        return [str(v) for v in counting_sequence(family, n_max)]


# Counts generated by the explicit sequence [0, 1, 1] (OEIS A007477).
A007477_PREFIX = (0, 1, 1, 1, 2, 3, 6, 11, 22, 44, 90, 187, 392, 832, 1778, 3831, 8304)

# Shifts of length 1-4, three longitudinal families and zero-heavy finite
# families, whose entries are mostly 0, where a Decimal route could
# print "-0".
TEXT_FAMILIES = (
    [ShiftedFull(a) for a in (ONE, TWO, THREE_PLUS, right_comb(4))]
    + [Longitudinal(ls) for ls in ({1}, {2, 3}, {4, 6})]
    + [
        FiniteSet({TWO}),
        FiniteSet({TWO + TWO}),
        FiniteSet({THREE_MINUS, THREE_PLUS}),
        FiniteSet({left_comb(5), right_comb(7)}),
        FiniteSet(()),
        ExplicitSeq(BigSeq([0, 1, 1, 0, 2])),
    ]
)


class TestCountingTexts:
    """The printed route runs the recurrences in base 10; its texts must be
    the decimal strings of the int route."""

    def test_oracle_sets_to_300(self):
        sets = _oracle_generator_sets()
        assert len(sets) == 60
        for gens in sets:
            family = FiniteSet(gens)
            assert list(counting_texts(family, 300)) == _int_texts(family, 300)

    @pytest.mark.parametrize("family", TEXT_FAMILIES, ids=format_family)
    def test_families_to_300(self, family):
        texts = list(counting_texts(family, 300))
        assert all(type(t) is str for t in texts)
        assert texts == _int_texts(family, 300)
        assert not any(t.startswith("-") for t in texts)

    @pytest.mark.parametrize("n_max", range(1, 6))
    def test_small_horizons(self, n_max):
        for family in TEXT_FAMILIES:
            assert list(counting_texts(family, n_max)) == _int_texts(family, n_max)

    def test_full_past_digit_limit(self):
        # C_7299 has 4389 digits, past Python's default int->str limit.
        texts = list(counting_texts(FiniteSet({ONE}), 7300))
        assert len(texts[-1]) > 4300
        assert texts == _int_texts(FiniteSet({ONE}), 7300)

    def test_explicit_sequence_texts(self):
        texts = list(counting_texts(ExplicitSeq(BigSeq([0, 1, 1])), 17))
        assert texts == [str(v) for v in A007477_PREFIX]

    def test_rejects_bad_horizon(self):
        # Every kind is refused when it is called, before a count is read.
        families = (
            FiniteSet({ONE}),
            FiniteSet({TWO, THREE_PLUS}),
            FiniteSet(()),
            ExplicitSeq(BigSeq([0, 1, 1])),
            ShiftedFull(ONE),
            Longitudinal({2}),
        )
        for family in families:
            for count in (counting_sequence, counting_texts):
                with pytest.raises(ValueError, match="n_max must be >= 1"):
                    count(family, 0)


class TestLongitudinal:
    def test_even_lengths(self):
        seq = longitudinal_counting({2}, 6)
        assert seq.entries == (0, 1, 0, 5, 0, 42)

    def test_unit_length_gives_catalan(self):
        assert longitudinal_counting({1}, 20) == catalan_c(20)

    def test_two_three_fills_beyond_one(self):
        seq = longitudinal_counting({2, 3}, 10)
        cats = catalan_numbers(10)
        assert seq[1] == 0
        for n in range(2, 11):
            assert seq[n] == cats[n - 1]

    def test_levels_full_or_empty(self):
        levels = family_levels(Longitudinal({2, 5}), 8)
        for k in range(1, 9):
            assert len(levels[k]) in (0, len(enumerate_terms(k)))

    def test_membership_matches_flag_scan(self):
        # The flag scan that the Apery table replaced, kept as an oracle:
        # a length is reachable iff it is one of the lengths added to a
        # reachable length.
        def reachable(lengths, n_max):
            reach = [True] + [False] * n_max
            for n in range(1, n_max + 1):
                reach[n] = any(n >= a and reach[n - a] for a in lengths)
            return reach[1:]

        for size in (1, 2, 3, 4):
            for lengths in combinations(range(1, 16), size):
                for n_max in (1, 7, 40, 200):
                    seq = counting_sequence(Longitudinal(lengths), n_max)
                    assert [v != 0 for v in seq] == reachable(lengths, n_max), (lengths, n_max)

    @pytest.mark.parametrize("lengths", [{1}, {2}, {2, 3}, {4, 6}, {3, 5, 7}, {13}], ids=str)
    def test_level_sizes_are_the_counting_sequence(self, lengths):
        levels = family_levels(Longitudinal(lengths), 12)
        sizes = BigSeq(len(level) for level in levels[1:])
        assert sizes == counting_sequence(Longitudinal(lengths), 12)

    @pytest.mark.parametrize(
        ("lengths", "n_max", "listed"),
        [({13}, 12, []), ({4, 6}, 13, [4, 6, 8, 10, 12]), ({100}, 65, [])],
        ids=str,
    )
    def test_lists_only_levels_in_the_semigroup(self, lengths, n_max, listed, monkeypatch):
        # No level of {100} reaches length 65, so none is priced or refused.
        listed_lengths = []
        level_blocks = listing._level_blocks

        def spy(n):
            listed_lengths.append(n)
            return level_blocks(n)

        monkeypatch.setattr(listing, "_level_blocks", spy)
        levels = family_levels(Longitudinal(lengths), n_max)
        assert listed_lengths == listed
        assert len(levels) == n_max + 1
        assert [k for k, level in enumerate(levels) if level] == listed

    def test_every_length_beyond_frobenius_bound_attained(self):
        lengths = {4, 6}
        info = semigroup_info(lengths)
        seq = longitudinal_counting(lengths, 20)
        bound = info.gcd * max(info.frobenius, 0)
        for n in range(1, 21):
            if n > bound and n % info.gcd == 0:
                assert seq[n] > 0


class TestSemigroupInfo:
    def test_coprime_pair(self):
        info = semigroup_info({3, 5})
        assert (info.gcd, info.frobenius) == (1, 7)

    def test_gcd_reduction(self):
        info = semigroup_info({4, 6})
        assert info.gcd == 2
        assert info.reduced_generators == {2, 3}
        assert info.frobenius == 1

    def test_unit(self):
        assert semigroup_info({1}).frobenius == -1

    def test_rank_three_no_coprime_pair(self):
        assert semigroup_info({6, 10, 15}).frobenius == 29

    def test_coprime_pairs_match_closed_form(self):
        # {a, b, a+b} generates the same semigroup as {a, b} but has rank 3,
        # so the round robin is checked against ab - a - b.
        for a in range(1, 30):
            for b in range(a + 1, 60):
                if math.gcd(a, b) == 1:
                    assert semigroup_info({a, b}).frobenius == a * b - a - b, (a, b)
                    assert semigroup_info({a, b, a + b}).frobenius == a * b - a - b, (a, b)

    def test_rank_two_answered_at_once(self):
        # Rank 2 builds no Apery table: its size would be the smallest length.
        a, b = 10**9 + 7, 10**9 + 9
        assert semigroup_info({a, b}).frobenius == a * b - a - b

    def test_apery_table_priced_before_building(self, monkeypatch):
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
        assert semigroup_info({3000, 3001, 3002}).frobenius == 4_499_999
        with pytest.raises(errors.CapacityError, match="Apery table of 100,000 residues"):
            semigroup_info({100_000, 100_001, 100_002})

    def test_consecutive_lengths_match_roberts(self):
        # Roberts: a, a+1, ..., a+k has Frobenius number
        # (floor((a-2)/k) + 1) * a - 1.  The Apery table of the smallest
        # length has a entries, so a = 30000 is answered at once.
        for a, k in ((5, 2), (7, 3), (12, 4), (30000, 2)):
            info = semigroup_info(range(a, a + k + 1))
            assert info.frobenius == ((a - 2) // k + 1) * a - 1, (a, k)
        assert semigroup_info({30000, 30001, 30002}).frobenius == 449_999_999

    def test_frobenius_brute_force(self):
        # Representability oracle for {3,5}: 7 is the largest gap.
        def representable(n):
            return any(
                3 * i + 5 * j == n for i in range(n // 3 + 1) for j in range(n // 5 + 1)
            )

        assert not representable(7)
        assert all(representable(n) for n in range(8, 30))

    def test_frobenius_matches_brute_scan(self):
        # Every gap of a coprime set lies below a_1 * a_k, so scanning that
        # far finds the largest one.
        def brute_frobenius(lengths):
            g = math.gcd(*lengths)
            reduced = [v // g for v in lengths]
            limit = min(reduced) * max(reduced)
            reachable = {0}
            for n in range(1, limit):
                if any(n - a in reachable for a in reduced):
                    reachable.add(n)
            gaps = [n for n in range(1, limit) if n not in reachable]
            return max(gaps, default=-1)

        for size in (2, 3, 4):
            for lengths in combinations(range(1, 16), size):
                assert semigroup_info(lengths).frobenius == brute_frobenius(lengths), lengths

    def test_validation(self):
        with pytest.raises(ValueError):
            semigroup_info(set())
        with pytest.raises(ValueError):
            semigroup_info({0, 2})
        with pytest.raises(TypeError):
            semigroup_info([2.5, 3])

    def test_is_a_frozen_record(self):
        info = semigroup_info({4, 6})
        assert info == semigroup_info([6, 4]) and hash(info) == hash(semigroup_info([6, 4]))
        with pytest.raises(AttributeError):
            info.gcd = 1


class TestBruteCount:
    def test_single_two(self):
        assert brute_count({TWO}, 8).entries == (0, 1, 0, 1, 0, 2, 0, 5)

    def test_full(self):
        assert brute_count({ONE}, 5).entries == (1, 1, 2, 5, 14)

    def test_pair(self):
        assert brute_count({TWO, THREE_PLUS}, 8).entries == (0, 1, 1, 1, 2, 3, 6, 11)

    def test_matches_transform_counting(self):
        for gens in ({TWO}, {TWO, THREE_PLUS}, {THREE_MINUS, THREE_PLUS}, {ONE, TWO}):
            assert brute_count(gens, 12) == counting_sequence(FiniteSet(gens), 12)

    @staticmethod
    def term_memo_count(gens, n_max):
        """The membership memo keyed by Term, as the oracle once kept it."""
        genset = frozenset(gens)
        memo = {}
        counts = []
        for k in range(1, n_max + 1):
            cnt = 0
            for t in enumerate_terms(k):
                if t.is_leaf:
                    m = t in genset
                else:
                    m = t in genset or (memo[t.left] and memo[t.right])
                memo[t] = m
                cnt += m
            counts.append(cnt)
        return BigSeq(counts)

    @staticmethod
    def oracle_sets():
        """The 60 sets of the full-scope oracle: every single term, every
        pair and the first 15 triples of the terms of length <= 4."""
        pool = [t for k in range(1, 5) for t in enumerate_terms(k)]
        sets = [{t} for t in pool] + [set(c) for c in combinations(pool, 2)]
        sets += [set(c) for c in list(combinations(pool, 3))[:15]]
        assert len(sets) == 60
        return sets

    def test_matches_term_memo_on_oracle_sets(self):
        for gens in self.oracle_sets():
            assert brute_count(gens, 9) == self.term_memo_count(gens, 9), gens

    @staticmethod
    def bool_list_count(gens, n_max):
        """The oracle's kernel before it kept one byte per flag: a list of
        bools per level, built one pair at a time."""
        size = [0] + catalan_numbers(n_max)
        ranks = {}
        for g in gens:
            if g.length <= n_max:
                ranks.setdefault(g.length, []).append(subgroupoids._rank(g, size))
        member = [[]]
        for k in range(1, n_max + 1):
            flags = [a and b for i in range(1, k) for a in member[i] for b in member[k - i]] or [False]
            for r in ranks.get(k, ()):
                flags[r] = True
            member.append(flags)
        return BigSeq(sum(flags) for flags in member[1:])

    def test_byte_kernel_matches_bool_lists(self):
        for gens in self.oracle_sets():
            assert brute_count(gens, 10) == self.bool_list_count(gens, 10), gens
        long_gens = {left_comb(6), right_comb(7), sum_terms(TWO, THREE_PLUS)}
        for gens, n_max in [(set(), 10), (long_gens, 4), (long_gens, 6), (long_gens, 9)]:
            assert brute_count(gens, n_max) == self.bool_list_count(gens, n_max), gens
        for gens in (set(), {ONE}, {TWO}, {ONE, TWO}):
            assert brute_count(gens, 1) == self.bool_list_count(gens, 1), gens

    def test_rank_is_a_bijection_on_each_level(self):
        size = [0] + catalan_numbers(9)
        for k in range(1, 10):
            ranks = sorted(subgroupoids._rank(t, size) for t in enumerate_terms(k))
            assert ranks == list(range(size[k])), k

    def test_builds_no_term(self, monkeypatch):
        gens = {TWO, THREE_PLUS}
        expected = counting_sequence(FiniteSet(gens), 12)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built a term level")

        monkeypatch.setattr(subgroupoids, "_closure_texts", refuse)
        monkeypatch.setattr(subgroupoids, "iter_level_texts", refuse)
        monkeypatch.setattr(terms, "iter_terms_up_to", refuse)
        monkeypatch.setattr(terms, "enumerate_terms", refuse)
        monkeypatch.setattr(listing, "_level_blocks", refuse)
        monkeypatch.setattr(terms.Term, "__init__", refuse)
        assert brute_count(gens, 12) == expected

    def test_cap_checked_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle ranked its generators over the budget")

        monkeypatch.setattr(subgroupoids, "_rank", refuse)
        with pytest.raises(CapacityError, match="656,043,857 flags"):
            brute_count({TWO}, 19)

    def test_non_minimal_generators(self):
        # One generator is a sum of the others, so it adds no member.
        four = sum_terms(TWO, TWO)
        for gens in ({TWO, four}, {ONE, TWO}):
            assert brute_count(gens, 9) == self.term_memo_count(gens, 9)
        assert brute_count({TWO, four}, 9) == brute_count({TWO}, 9)
        assert brute_count({ONE, TWO}, 9) == catalan_c(9)


class TestMinimalGeneratingUpTo:
    def test_finite_levels(self):
        levels = minimal_generating_up_to(FiniteSet({TWO, TWO + TWO, THREE_PLUS}), 6)
        assert levels[2] == {TWO}
        assert levels[3] == {THREE_PLUS}
        assert levels[4] == frozenset()

    def test_longitudinal_generators(self):
        # Level 4 of the even-length family: terms whose root split is
        # odd+odd cannot be written as a sum of two even members.
        levels = minimal_generating_up_to(Longitudinal({2}), 6)
        assert levels[2] == {TWO}
        lvl4 = levels[4]
        assert all(t.left.length % 2 == 1 for t in lvl4)
        assert len(lvl4) == 4  # five terms of length 4, minus 2+2
        assert sum_terms(TWO, TWO) not in lvl4

    def test_shifted_full_is_minimal(self):
        fam = ShiftedFull(TWO)
        gen_levels = minimal_generating_up_to(fam, 7)
        expected = generator_counting_sequence(fam, 7)
        for k in range(1, 8):
            assert len(gen_levels[k]) == expected[k]

    def test_explicit_unsupported(self):
        with pytest.raises(UnsupportedVariantError):
            minimal_generating_up_to(ExplicitSeq(BigSeq([1])), 4)

    @pytest.mark.parametrize(
        "family",
        [
            Longitudinal({2, 3}),
            Longitudinal({3}),
            ShiftedFull(TWO),
            FiniteSet({TWO, TWO + TWO, THREE_PLUS}),
        ],
    )
    def test_matches_per_level_filter(self, family):
        # G = N \ (N+N): a member is a generator iff it is a leaf or one of
        # its root children lies outside N.
        levels = family_levels(family, 7)
        members = set().union(*levels)
        expected = tuple(
            frozenset(
                t for t in lvl if t.is_leaf or not (t.left in members and t.right in members)
            )
            for lvl in levels
        )
        assert minimal_generating_up_to(family, 7) == expected


GEN_POOL = tuple(t for k in range(1, 5) for t in enumerate_terms(k))
gen_sets_st = st.frozensets(st.sampled_from(GEN_POOL), min_size=1, max_size=3)


class TestRandomizedInvariants:
    @settings(max_examples=40, deadline=None)
    @given(gen_sets_st)
    def test_brute_count_matches_transform(self, gens):
        from freemagma import cat_transform

        hist = generator_counting_sequence(FiniteSet(gens), 9)
        assert brute_count(gens, 9) == cat_transform(hist)
        assert counting_sequence(FiniteSet(gens), 9) == cat_transform(hist)

    @settings(max_examples=40, deadline=None)
    @given(gen_sets_st, st.data())
    def test_minimal_set_stable_under_redundant_sums(self, gens, data):
        pairs = data.draw(
            st.lists(st.tuples(st.sampled_from(sorted(gens)), st.sampled_from(sorted(gens))),
                     max_size=3)
        )
        padded = gens | {sum_terms(x, y) for x, y in pairs}
        assert minimal_generators(padded) == minimal_generators(gens)

    @settings(max_examples=30, deadline=None)
    @given(gen_sets_st)
    def test_contains_agrees_with_brute_levels(self, gens):
        levels = closure_up_to(gens, 6)
        for k in range(1, 7):
            for t in enumerate_terms(k):
                assert contains(gens, t) == (t in levels[k])


class TestFamilySyntax:
    def test_parse_finite(self):
        fam = parse_family("finite:[(1+1),(1+(1+1))]")
        assert fam == FiniteSet({TWO, THREE_PLUS})

    def test_parse_shifted_bare_leaf(self):
        assert parse_family("shifted:1") == ShiftedFull(ONE)
        assert parse_family("shifted:(1+1)") == ShiftedFull(TWO)

    def test_parse_longitudinal_and_seq(self):
        assert parse_family("longitudinal:[2,3]") == Longitudinal({2, 3})
        assert parse_family("seq:[0,1,1]") == ExplicitSeq(BigSeq([0, 1, 1]))

    def test_parse_full_alias(self):
        assert parse_family("full") == FiniteSet({ONE})

    def test_seqfile(self, tmp_path):
        path = tmp_path / "gen.csv"
        write_sequence_csv(path, BigSeq([0, 1, 1]))
        fam = parse_family(f"seqfile:{path}")
        assert fam == ExplicitSeq(BigSeq([0, 1, 1]))

    def test_roundtrip(self):
        for fam in (
            FiniteSet({TWO, THREE_PLUS}),
            ShiftedFull(TWO),
            Longitudinal({2, 3}),
            ExplicitSeq(BigSeq([0, 2, 5])),
        ):
            assert parse_family(format_family(fam)) == fam

    @pytest.mark.parametrize(
        "bad",
        [
            "mystery:[1]",
            "finite:(1+1)",
            "finite:[((1+1)]",
            "longitudinal:[]",
            "longitudinal:[0]",
            "shifted:",
            "justwords",
            "seqfile:/nonexistent/x.csv",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_family(bad)


class TestFamilyValidation:
    def test_finite_accepts_iterables(self):
        assert FiniteSet([TWO, TWO]).terms == frozenset({TWO})

    def test_finite_rejects_non_terms(self):
        with pytest.raises(TypeError):
            FiniteSet([1, 2])

    def test_longitudinal_validation(self):
        with pytest.raises(ValueError):
            Longitudinal(set())
        with pytest.raises(ValueError):
            Longitudinal({0})

    def test_explicit_rejects_negative(self):
        with pytest.raises(ValueError):
            ExplicitSeq(BigSeq([0, -1]))

    def test_longitudinal_rejects_non_integral_lengths(self):
        with pytest.raises(TypeError):
            Longitudinal([2.7, 3])
        assert Longitudinal([2, 3]).lengths == {2, 3}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FiniteSet([TWO, THREE_PLUS]),
            lambda: ShiftedFull(TWO),
            lambda: Longitudinal([2, 3]),
            lambda: ExplicitSeq(BigSeq([0, 1, 1])),
        ],
    )
    def test_families_are_frozen_values(self, make):
        family, same = make(), make()
        assert family == same and hash(family) == hash(same)
        field = type(family).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(family, field, getattr(same, field))
        assert family == same
        assert copy.deepcopy(family) == pickle.loads(pickle.dumps(family)) == family

    def test_family_kinds_and_values_distinguish(self):
        class Shift(_Record):
            __slots__ = ("a",)

        assert ShiftedFull(TWO) != ShiftedFull(ONE)
        assert Shift(TWO) != ShiftedFull(TWO) and Shift(TWO) == Shift(TWO)

    def test_family_repr(self):
        assert repr(FiniteSet([])) == "FiniteSet(terms=frozenset())"
        assert repr(ShiftedFull(ONE)) == f"ShiftedFull(a={ONE!r})"


class TestReadsTextOnly:
    """Membership, minimal generators, closures and counts read each term's
    text in one pass and never walk the derived root children, which would
    make them quadratic in the length of a term."""

    COMB_SET = frozenset({left_comb(3000), TWO})

    @staticmethod
    def answers(gens):
        probes = [t for k in range(1, 6) for t in enumerate_terms(k)] + [left_comb(3000)]
        return (
            [contains(gens, t) for t in probes],
            minimal_generators(gens),
            closure_up_to(gens, 8),
            brute_count(gens, 8),
            counting_sequence(FiniteSet(gens), 8),
        )

    def test_answers_unchanged_without_children(self, monkeypatch):
        sets = _oracle_generator_sets() + [self.COMB_SET]
        expected = [self.answers(gens) for gens in sets]

        def refuse(self):
            raise AssertionError("a root child was read")

        monkeypatch.setattr(terms.Term, "left", property(refuse))
        monkeypatch.setattr(terms.Term, "right", property(refuse))
        for gens, answer in zip(sets, expected):
            assert self.answers(gens) == answer, gens

    def test_comb_set(self):
        comb = left_comb(3000)
        assert minimal_generators(self.COMB_SET) == self.COMB_SET
        assert contains(self.COMB_SET, comb)
        assert contains(self.COMB_SET, comb + TWO)
        assert not contains({TWO}, comb)
        assert not contains(self.COMB_SET, TWO + comb + ONE)
        assert closure_up_to(self.COMB_SET, 8) == closure_up_to({TWO}, 8)
