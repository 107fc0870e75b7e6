"""Term algebra: constructors, encodings, enumeration, algebraic laws."""

import functools
import gc
import heapq
import math
import tracemalloc
from collections import deque
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, strategies as st

from freemagma import (
    CapacityError,
    TermParseError,
    enumerate_terms,
    format_term,
    iter_level_texts,
    iter_terms_up_to,
    leaf,
    left_comb,
    parse_term,
    product,
    right_comb,
    sum_terms,
)
from freemagma import (
    FiniteSet,
    brute_count,
    closure_up_to,
    counting_sequence,
    errors,
    listing,
    subgroupoids,
    terms,
)

ONE = leaf()
TWO = sum_terms(ONE, ONE)
THREE_PLUS = sum_terms(ONE, TWO)
THREE_MINUS = sum_terms(TWO, ONE)


def reference_format(t):
    """Stack-walk printer, kept as the reference for ``format_term``."""
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf:
            parts.append("1")
        else:
            stack.extend((")", item.right, "+", item.left, "("))
    return "".join(parts)


def reference_encode(t):
    """Preorder Lukasiewicz word built from the tree, not from the text."""
    if t.is_leaf:
        return "0"
    return "1" + reference_encode(t.left) + reference_encode(t.right)


def reference_product(x, y):
    """Recursive tree substitution, kept as the reference for ``product``."""
    if y.is_leaf:
        return x
    return sum_terms(reference_product(x, y.left), reference_product(x, y.right))


terms_st = st.recursive(
    st.just(ONE),
    lambda children: st.builds(sum_terms, children, children),
    max_leaves=24,
)


class TestConstructors:
    def test_leaf_length(self):
        assert ONE.length == 1
        assert ONE.is_leaf

    def test_sum_lengths_add(self):
        assert TWO.length == 2
        assert sum_terms(TWO, THREE_PLUS).length == 5

    def test_sum_is_ordered(self):
        assert THREE_PLUS != THREE_MINUS

    def test_operator_sugar(self):
        assert ONE + ONE == TWO
        assert ONE + (ONE + ONE) == THREE_PLUS

    def test_combs(self):
        assert left_comb(1) == ONE == right_comb(1)
        assert left_comb(2) == TWO == right_comb(2)
        assert right_comb(3) == THREE_PLUS
        assert left_comb(3) == THREE_MINUS
        assert left_comb(4) == sum_terms(sum_terms(TWO, ONE), ONE)
        assert left_comb(9).length == 9 == right_comb(9).length

    @pytest.mark.parametrize("n", [0, -3])
    def test_comb_rejects_nonpositive(self, n):
        with pytest.raises(ValueError):
            left_comb(n)
        with pytest.raises(ValueError):
            right_comb(n)


class TestProduct:
    def test_substitution_example(self):
        # 2 * 3_+ substitutes 2 into each leaf of 1+(1+1).
        assert product(TWO, THREE_PLUS) == sum_terms(TWO, sum_terms(TWO, TWO))

    def test_unit_laws(self):
        for t in (ONE, TWO, THREE_MINUS, product(TWO, TWO)):
            assert product(t, ONE) == t
            assert product(ONE, t) == t

    def test_length_multiplicative(self):
        assert product(TWO, THREE_PLUS).length == 6

    def test_matches_tree_substitution(self):
        pool = list(iter_terms_up_to(5))
        for x, y in iproduct(pool, repeat=2):
            got, expected = product(x, y), reference_product(x, y)
            assert got == expected
            assert reference_encode(got) == reference_encode(expected)

    def test_power_associates(self):
        two_cubed = product(TWO, product(TWO, TWO))
        assert two_cubed.length == 8
        assert two_cubed == product(product(TWO, TWO), TWO)

    def test_right_distributivity_fails(self):
        # The product only distributes over sums on the right operand;
        # search small triples for a witness that the mirror law is false.
        pool = list(iter_terms_up_to(3))
        witnesses = [
            (x, y, z)
            for x, y, z in iproduct(pool, repeat=3)
            if product(sum_terms(y, z), x)
            != sum_terms(product(y, x), product(z, x))
        ]
        assert witnesses, "expected a right-distributivity counterexample"

    @given(terms_st, terms_st, terms_st)
    def test_associativity(self, x, y, z):
        assert product(product(x, y), z) == product(x, product(y, z))

    @given(terms_st, terms_st, terms_st)
    def test_left_distributivity(self, x, y, z):
        assert product(x, sum_terms(y, z)) == sum_terms(product(x, y), product(x, z))

    @given(terms_st, terms_st)
    def test_length_multiplicativity(self, x, y):
        assert product(x, y).length == x.length * y.length


def count_leaves(t):
    # Independent oracle for the length field.
    stack, total = [t], 0
    while stack:
        node = stack.pop()
        if node.is_leaf:
            total += 1
        else:
            stack.extend((node.left, node.right))
    return total


class TestLengthIsLeafCount:
    @given(terms_st)
    def test_matches_direct_count(self, t):
        assert t.length == count_leaves(t)

    def test_on_products(self):
        t = product(left_comb(5), right_comb(7))
        assert t.length == count_leaves(t) == 35


class TestEncoding:
    def test_examples(self):
        assert reference_encode(ONE) == "0"
        assert reference_encode(TWO) == "100"
        assert reference_encode(THREE_PLUS) == "10100"
        assert reference_encode(THREE_MINUS) == "11000"

    def test_order_is_length_then_encoding(self):
        small = list(iter_terms_up_to(6))
        for t in small:
            for u in small:
                assert (t < u) == ((t.length, reference_encode(t)) < (u.length, reference_encode(u)))

    def test_injective_on_small_terms(self):
        seen = {}
        for t in iter_terms_up_to(7):
            assert reference_encode(t) not in seen
            seen[reference_encode(t)] = t


class TestTextFormat:
    def test_format_examples(self):
        assert format_term(ONE) == "1"
        assert format_term(TWO) == "(1+1)"
        assert format_term(THREE_PLUS) == "(1+(1+1))"

    def test_matches_reference_printer(self):
        for t in iter_terms_up_to(10):
            assert format_term(t) == reference_format(t)

    def test_parse_examples(self):
        assert parse_term("1") == ONE
        assert parse_term("(1+1)") == TWO
        assert parse_term(" ( 1 + ( 1 + 1 ) ) ") == THREE_PLUS

    @pytest.mark.parametrize(
        "bad",
        ["", "(", "(1+1", "(1+)", "1+1", "(1 1)", "(1+1)x", "((1+1)+1", "2"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(TermParseError):
            parse_term(bad)

    @given(terms_st)
    def test_roundtrip(self, t):
        assert parse_term(format_term(t)) == t


def refuse_to_build(monkeypatch):
    """Make every builder of text levels fail the test that calls it."""

    def refuse(*args):
        raise AssertionError("a text level was built over the budget")

    for builder in ("_orders", "_level_runs", "_texts"):
        monkeypatch.setattr(listing, builder, refuse)


class TestEnumeration:
    @pytest.mark.slow
    def test_counts_match_binomial_catalan(self, monkeypatch):
        # Independent size oracle: C_{n-1} = binom(2n-2, n-1) / n, checked on
        # enumerate_terms(15) and on the marked levels 1..14 that its one
        # listing builds.  Level 15 alone has ~2.7M terms; this is the
        # suite's memory peak.
        real, built = listing._level_runs, {}

        def keep(m, marked, *args):
            built[m] = marked
            return real(m, marked, *args)

        monkeypatch.setattr(listing, "_level_runs", keep)
        top = enumerate_terms(15)
        assert sorted(built) == list(range(2, 16))
        marked = built[15]
        texts = [listing._texts(marked, k, listing._HEADS, "\n(", "+") for k in range(1, 15)]
        lines = [sum(run.count("\n") for run in level) for level in texts]
        sizes = [math.comb(2 * n - 2, n - 1) // n for n in range(1, 16)]
        assert lines + [len(top)] == sizes

    def test_level_three(self):
        assert set(enumerate_terms(3)) == {THREE_MINUS, THREE_PLUS}

    def test_level_four_contains_two_squared(self):
        level = enumerate_terms(4)
        assert len(level) == 5
        assert sum_terms(TWO, TWO) in level
        assert product(TWO, TWO) in level

    def test_level_five_size(self):
        assert len(enumerate_terms(5)) == 14

    def test_sorted_by_encoding(self):
        for n in (4, 6, 8, 10):
            codes = [reference_encode(t) for t in enumerate_terms(n)]
            assert codes == sorted(codes)

    def test_no_duplicates(self):
        level = enumerate_terms(9)
        assert len(set(level)) == len(level)

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            enumerate_terms(17)
        with pytest.raises(ValueError):
            enumerate_terms(0)

    def test_terms_of_length_16_refused_before_building(self, monkeypatch):
        # iter_level_texts(16) fits the budget; the 9.7M terms of level 16 do not.
        refuse_to_build(monkeypatch)
        for build in (enumerate_terms, lambda n: next(iter_terms_up_to(n))):
            with pytest.raises(CapacityError, match=r"levels 1\.\.16 \(13,402,697 terms\)"):
                build(16)


class TestPriceFigures:
    """Counts and sizes in refusal messages, for ints of any size."""

    @pytest.mark.parametrize(
        "count, text",
        [
            (0, "0"),
            (4380764540356791, "4,380,764,540,356,791"),
            (10**18 - 1, "999,999,999,999,999,999"),
            (10**18, "1.00e+18"),
            (9999 * 10**30, "1.00e+34"),
            (3**100000, "1.33e+47712"),
        ],
        ids=["zero", "pinned", "last-with-commas", "first-scientific", "carry", "3^100000"],
    )
    def test_figure(self, count, text):
        assert errors.figure(count) == text

    def test_mib(self):
        assert errors._mib(2289 * 2**20 + 2**20 * 3 // 10) == "2289.3 MiB"
        assert errors._mib(10**17 * 2**20) == "100000000000000000.0 MiB"
        assert errors._mib(10**18 * 2**20) == "1.00e+18 MiB"
        with pytest.raises(CapacityError, match=r"^x would take an estimated 1\.00e\+4300 MiB, "):
            errors.check_memory("x", 10**4300 * 2**20)


class TestLevelTexts:
    def test_matches_term_enumeration(self):
        for n in range(1, 13):
            assert list(iter_level_texts(n)) == [t.text for t in enumerate_terms(n)]

    def test_cap_and_length_checked_before_building(self, monkeypatch):
        # 20 is the smallest length whose listing the budget refuses.
        refuse_to_build(monkeypatch)
        with pytest.raises(CapacityError, match="over the memory budget of 1024.0 MiB"):
            iter_level_texts(20)
        with pytest.raises(ValueError):
            iter_level_texts(0)


def ordered_level_texts(n):
    """Level n of the whole magma in descending text order, one text at a
    time, as the level DP on texts listed it: every ``x`` of the shorter
    levels in descending text order, each followed by every ``y`` of length
    n-|x| in that order, which is the order of the texts ``(x+y)`` because
    texts are prefix-free.  A term of length L prints 4L-3 characters."""
    levels = [[], ["1"]]
    for k in range(2, n + 1):
        levels.append([
            f"({x}+{y})"
            for x in heapq.merge(*levels[1:k], reverse=True)
            for y in levels[k - (len(x) + 3) // 4]
        ])
    return levels[n]


class TestLevelBlocks:
    """The block listing of one level against the level DP on texts that
    listed it one text at a time, kept above as a reference."""

    @pytest.mark.parametrize("n", range(1, 14))
    def test_blocks_join_to_the_level_dp(self, n):
        texts = ordered_level_texts(n)
        assert "".join(listing._level_blocks(n)) == "".join(t + "\n" for t in texts)

    def test_blocks_end_at_line_ends(self):
        for n in range(1, 14):
            assert all(block.endswith("\n") for block in listing._level_blocks(n)), n

    def test_small_blocks_join_to_the_level_dp(self, monkeypatch):
        # At the default block size the cut path and the nested builds of
        # the rebuilt levels (a sum (1+t) read within another, a head over
        # a rebuilt level) start only near n=11; at 512 characters they run
        # where the reference is cheap.
        monkeypatch.setattr(listing, "_BLOCK", 512)
        for n in range(1, 12):
            blocks = list(listing._level_blocks(n))
            assert "".join(blocks) == "".join(t + "\n" for t in ordered_level_texts(n)), n
            assert all(block.endswith("\n") and len(block) <= 512 for block in blocks), n

    def test_long_levels_are_cut(self):
        # Level 14 prints 742,900 texts of 53 characters, and its listing
        # builds level 13 twice and level 12 six times and holds neither.
        blocks = list(listing._level_blocks(14))
        assert all(block.endswith("\n") for block in blocks)
        assert sum(map(len, blocks)) == 742900 * 54
        assert max(map(len, blocks)) <= listing._BLOCK

    def test_short_listings_are_priced_by_their_output(self, monkeypatch):
        # A listing of a few lines is priced by its own output, not by 24
        # blocks of _BLOCK characters (1.5 MiB), and names only the levels
        # it holds.
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
        for n in range(3, 6):
            blocks = list(listing._level_blocks(n))
            assert "".join(blocks) == "".join(t + "\n" for t in ordered_level_texts(n)), n
        named = []
        monkeypatch.setattr(listing, "check_memory", lambda what, estimate: named.append(what))
        for n in range(3, 7):
            listing._check_listing(n)
        assert named == [
            "the listing of length 3",
            "the listing of length 4",
            "the listing of length 5 from level 2 (1 term)",
            "the listing of length 6 from levels 2..3 (3 terms)",
        ]


class TestMemoryPrice:
    """The price checked against the memory budget, against the tracemalloc
    peak of the build it admits: never below it, and for the text listing
    of one level not far above it."""

    @staticmethod
    def price_and_peak(monkeypatch, module, build):
        """The largest price checked by ``build``, and its peak."""
        prices = []
        real = module.check_memory

        def spy(what, estimate):
            prices.append(estimate)
            real(what, estimate)

        monkeypatch.setattr(module, "check_memory", spy)
        gc.collect()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return max(prices), peak

    @pytest.mark.parametrize(
        "module, build",
        [
            pytest.param(terms, lambda: list(iter_terms_up_to(13)), marks=pytest.mark.slow),
            pytest.param(terms, lambda: closure_up_to({ONE}, 13), marks=pytest.mark.slow),
            (subgroupoids, lambda: brute_count({TWO}, 14)),
            *((subgroupoids, lambda n=n: brute_count({TWO}, n)) for n in (1, 7, 8, 9)),
            *((listing, lambda n=n: deque(iter_level_texts(n), maxlen=0)) for n in (2, 9, 13)),
        ],
        ids=["iter_terms_up_to", "closure", "brute_count", "brute_count-1", "brute_count-7",
             "brute_count-8", "brute_count-9", "listing-2", "listing-9", "listing-13"],
    )
    def test_price_covers_peak(self, monkeypatch, module, build):
        price, peak = self.price_and_peak(monkeypatch, module, build)
        assert price >= peak

    @pytest.mark.slow
    def test_text_dp_price_is_close(self, monkeypatch):
        price, peak = self.price_and_peak(
            monkeypatch, listing, lambda: deque(iter_level_texts(14), maxlen=0)
        )
        assert peak <= price <= 2.5 * peak

    @pytest.mark.slow
    def test_listing_peak_ceiling(self, monkeypatch):
        # The listing holds its marked levels and working data of a few
        # blocks; it peaked at 28.4 MiB when it also held the heads and a
        # joined copy of level 13.
        _, peak = self.price_and_peak(
            monkeypatch, listing, lambda: deque(iter_level_texts(14), maxlen=0)
        )
        assert peak <= 18 * 2**20

    @pytest.mark.slow
    def test_listing_holds_no_level_n_minus_1(self, monkeypatch):
        # Marked levels 2..11 take 0.9 MiB at n=14; it peaked at 4.2 MiB
        # when it also held marked level 12, and at 13.8 MiB with level 13.
        _, peak = self.price_and_peak(
            monkeypatch, listing, lambda: deque(iter_level_texts(14), maxlen=0)
        )
        assert peak <= 3 * 2**20

    def test_orders_peak_within_twice_what_they_hold(self):
        # One b"".join over every head of an entry took an 80-byte buffer
        # record per head: a 26.4 MiB peak for 1.37 MiB of orders.
        gc.collect()
        tracemalloc.start()
        try:
            orders = listing._orders(14)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(orders[14]) == sum(math.comb(2 * k - 2, k - 1) // k for k in range(1, 15))
        assert peak <= 2 * held

    def test_only_levels_n_minus_2_and_n_minus_1_are_rebuilt(self, monkeypatch):
        n, built, read, cut = 14, [], [], []
        real_runs, real_texts, real_cuts = listing._level_runs, listing._texts, listing._cuts

        def spy_runs(m, marked, *args):
            built.append((m, marked))
            return real_runs(m, marked, *args)

        def spy_texts(marked, k, lines, newline, sharp):
            if not isinstance(marked[k], tuple):
                read.append((k, newline[:2]))
            return real_texts(marked, k, lines, newline, sharp)

        def spy_cuts(runs, *args):
            if not isinstance(runs, tuple):
                cut.append(runs)
            return real_cuts(runs, *args)

        monkeypatch.setattr(listing, "_level_runs", spy_runs)
        monkeypatch.setattr(listing, "_texts", spy_texts)
        monkeypatch.setattr(listing, "_cuts", spy_cuts)
        deque(listing._level_blocks(n), maxlen=0)
        # Every build reads one list of marked levels: 2..n-3 held.
        marked = built[-1][1]
        assert all(other is marked for _, other in built)
        assert all(isinstance(marked[k], tuple) for k in range(2, n - 2))
        assert not isinstance(marked[n - 2], tuple) and not isinstance(marked[n - 1], tuple)
        # Level n-1 is built for its two reads and level n-2 for six, each
        # straight into its reader's form.  Only the heads of length n-2
        # are split from a rebuilt level read marked, through _texts.
        assert cut == [marked[n - 2]]
        counts = [m for m, _ in built]
        assert (counts.count(n - 1), counts.count(n - 2)) == (2, 6)
        assert read == [(n - 2, "+\0")]


# An oracle for the level DP that shares no code with it: trees are nested
# tuples, () is the leaf and (x, y) the sum x+y, printed and encoded here.
@functools.cache
def tuple_trees(n):
    if n == 1:
        return [()]
    return [(x, y) for i in range(1, n) for x in tuple_trees(i) for y in tuple_trees(n - i)]


def tuple_text(t):
    return "1" if t == () else f"({tuple_text(t[0])}+{tuple_text(t[1])})"


def tuple_code(t):
    return "0" if t == () else "1" + tuple_code(t[0]) + tuple_code(t[1])


def tuple_member(gens, t):
    return t in gens or (t != () and tuple_member(gens, t[0]) and tuple_member(gens, t[1]))


@functools.cache
def tuple_level(n):
    """The texts of length n in code order."""
    return [tuple_text(t) for t in sorted(tuple_trees(n), key=tuple_code)]


class TestLevelDPOracle:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_whole_levels_in_code_order(self, n):
        # Every listing of the whole magma, iter_terms_up_to included: its
        # order fixes the generator sets of the counting oracle.
        expected = tuple_level(n)
        assert list(iter_level_texts(n)) == expected
        assert [t.text for t in enumerate_terms(n)] == expected
        levels = [tuple_level(k) for k in range(1, n + 1)]
        assert [t.text for t in iter_terms_up_to(n)] == [x for level in levels for x in level]

    @pytest.mark.parametrize(
        "gens",
        [
            {((), ())},
            {((), ()), ((), ((), ()))},
            {(((), ()), ()), ((), ((), ())), ((), ()), (((), ()), ((), ()))},
        ],
        ids=["two", "two-three", "with-redundant"],
    )
    def test_closure_matches_tuple_filter(self, gens):
        levels = closure_up_to([parse_term(tuple_text(g)) for g in gens], 9)
        for n in range(1, 10):
            members = sorted((t for t in tuple_trees(n) if tuple_member(gens, t)), key=tuple_code)
            assert levels[n] == {parse_term(tuple_text(t)) for t in members}, n

    def test_seeded_levels_hold_the_members(self, monkeypatch):
        # The closure of {2, 4+, 4-}: all three are minimal generators, so
        # they seed the DP, and each text level holds every member once.
        two = ((), ())
        gens = {two, ((), ((), two)), ((two, ()), ())}
        real, built = subgroupoids._closure_texts, []

        def spy(seeds, n_max):
            texts = real(seeds, n_max)
            built.extend(texts)
            return texts

        monkeypatch.setattr(subgroupoids, "_closure_texts", spy)
        levels = closure_up_to([parse_term(tuple_text(g)) for g in gens], 9)
        for n in range(1, 10):
            members = [tuple_text(t) for t in tuple_trees(n) if tuple_member(gens, t)]
            assert sorted(built[n]) == sorted(members), n
            assert {t.text for t in levels[n]} == set(members), n

    def test_closure_on_the_oracle_sets(self):
        # The 60 generator sets of the counting oracle, all single terms, all
        # pairs and the first 15 triples of terms of length <= 4 in code
        # order, to length 10.  Membership is decided here level by level: a
        # tree is a member iff it is a generator or both its children are.
        pool = [t for n in range(1, 5) for t in sorted(tuple_trees(n), key=tuple_code)]
        sets = [{t} for t in pool] + [set(c) for c in combinations(pool, 2)]
        sets += [set(c) for c in list(combinations(pool, 3))[:15]]
        assert len(sets) == 60
        for gens in sets:
            gen_terms = [parse_term(tuple_text(g)) for g in gens]
            levels = closure_up_to(gen_terms, 10)
            sizes = counting_sequence(FiniteSet(gen_terms), 10)
            members = set()
            for n in range(1, 11):
                level = [
                    t for t in tuple_trees(n)
                    if t in gens or (t != () and t[0] in members and t[1] in members)
                ]
                members.update(level)
                assert len(levels[n]) == sizes[n], (gens, n)
                assert {t.text for t in levels[n]} == set(map(tuple_text, level)), (gens, n)


class TestCollectorPause:
    """Terms are wrapped with the cyclic garbage collector paused, and the
    caller gets back the collector state it had."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored(self, enabled, monkeypatch):
        real, seen = terms.Term, []

        def spy(text):
            seen.append(gc.isenabled())
            return real(text)

        monkeypatch.setattr(terms, "Term", spy)
        (gc.enable if enabled else gc.disable)()
        assert len(list(iter_terms_up_to(6))) == 65
        assert gc.isenabled() is enabled
        assert len(enumerate_terms(6)) == 42
        assert gc.isenabled() is enabled
        assert seen and not any(seen)

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored_on_capacity_error(self, enabled, monkeypatch):
        def refuse(text):
            raise CapacityError("refused while wrapping")

        (gc.enable if enabled else gc.disable)()
        with pytest.raises(CapacityError, match="over the memory budget"):
            next(iter_terms_up_to(16))
        assert gc.isenabled() is enabled
        monkeypatch.setattr(terms, "Term", refuse)
        for build in (lambda n: list(iter_terms_up_to(n)), enumerate_terms):
            with pytest.raises(CapacityError, match="refused while wrapping"):
                build(6)
            assert gc.isenabled() is enabled
