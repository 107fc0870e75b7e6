"""Sequence kernels: Catalan/Motzkin tables, the counting transform,
identities, bounds, CSV round-trips."""

import math
import random
import sys
from decimal import Decimal, DivisionByZero, Inexact, InvalidOperation, Rounded, localcontext
from fractions import Fraction

import pytest

from freemagma import (
    BigSeq,
    cat_transform,
    cat_transform_signed,
    catalan_bounds_check,
    catalan_c,
    catalan_motzkin_identities,
    catalan_numbers,
    motzkin_numbers,
    multinomial_count,
    parse_family,
    read_sequence_csv,
    series_identity_check,
    write_sequence_csv,
)
from freemagma import sequences
from freemagma.errors import CapacityError, ExactDivisionError
from freemagma.checks import PI_LOWER, PI_UPPER
from freemagma.motzkin_paths import _poly_quotient
from freemagma.sequences import (
    EXACT_DECIMAL,
    _exact_div,
    _poly_mul,
    _quadratic_root,
    _series_quotient,
    _sqrt_series,
    unlimited_int_digits,
)

# Frozen reference prefixes (1-indexed counting sequences).
A007477_PREFIX = (0, 1, 1, 1, 2, 3, 6, 11, 22, 44, 90, 187, 392, 832, 1778, 3831, 8304)
A253918_PREFIX = (0, 1, 2, 1, 4, 6, 12, 29, 56, 134, 300, 682, 1624, 3772, 9016)
LEN3_PAIR_PREFIX = (0, 0, 2, 0, 0, 4, 0, 0, 16, 0, 0, 80, 0, 0, 448, 0, 0, 2688, 0, 0, 16896)
SHIFTED_PREFIX = (0, 1, 1, 3, 7, 21, 62, 197, 637, 2123, 7196, 24807, 86608, 305792)
MOTZKIN_PREFIX = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def indicator(n_max, hits):
    return BigSeq(1 if n in hits else 0 for n in range(1, n_max + 1))


class TestBigSeq:
    def test_one_based_indexing(self):
        s = BigSeq([5, 7, 9])
        assert s[1] == 5 and s[3] == 9
        assert len(s) == 3

    @pytest.mark.parametrize("n", [0, 4, -1])
    def test_out_of_range(self, n):
        with pytest.raises(IndexError):
            BigSeq([5, 7, 9])[n]

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            BigSeq([1, 2.5])
        with pytest.raises(TypeError):
            BigSeq([True])

    def test_padded(self):
        s = BigSeq([1, 2])
        assert s.padded(4).entries == (1, 2, 0, 0)
        assert s.padded(1).entries == (1,)
        assert s.padded(0).entries == ()
        with pytest.raises(ValueError):
            s.padded(-1)


class TestCatalan:
    def test_small_values(self):
        assert catalan_c(7).entries == (1, 1, 2, 5, 14, 42, 132)

    def test_against_binomial_closed_form(self):
        cats = catalan_numbers(40)
        for n in range(40):
            assert cats[n] == math.comb(2 * n, n) // (n + 1)

    def test_entry_twenty(self):
        assert catalan_c(20)[20] == 1767263190


class TestCatTransform:
    def test_indicator_gives_catalan(self):
        assert cat_transform(indicator(200, {1})) == catalan_c(200)

    def test_fixture_prefixes(self):
        assert cat_transform(indicator(17, {2, 3})).entries == A007477_PREFIX
        got = cat_transform(BigSeq([0, 1, 2] + [0] * 12))
        assert got.entries == A253918_PREFIX
        got = cat_transform(BigSeq([0, 0, 2] + [0] * 18))
        assert got.entries == LEN3_PAIR_PREFIX

    def test_aerated_catalans(self):
        aerated = cat_transform(indicator(60, {2}))
        cats = catalan_numbers(30)
        for n in range(1, 61):
            if n % 2 == 0:
                assert aerated[n] == cats[n // 2 - 1]
            else:
                assert aerated[n] == 0

    def test_len3_pair_closed_form(self):
        got = cat_transform(BigSeq([0, 0, 2] + [0] * 27))
        cats = catalan_numbers(11)
        for n in range(1, 31):
            expected = 2 ** (n // 3) * cats[n // 3 - 1] if n % 3 == 0 else 0
            assert got[n] == expected

    def test_not_linear(self):
        a = indicator(10, {1})
        doubled = BigSeq(2 * v for v in a)
        lhs = cat_transform(doubled)
        rhs = BigSeq(x + y for x, y in zip(cat_transform(a), cat_transform(a)))
        assert lhs != rhs

    def test_empty_and_zero(self):
        assert cat_transform(BigSeq([])).entries == ()
        assert cat_transform(BigSeq([0] * 12)).entries == (0,) * 12


def shifted_polys(k):
    """(p0, p1) of M+a with |a| = k: 1 - 4*Phi = (1 - 2x^k) + 2x^k*sqrt(1-4x)."""
    return [1] + [0] * (k - 1) + [-2], [0] * k + [2]


# Generator histograms for the schoolbook's price: none, small, growing like
# 4^n and 9^n, one huge entry, and an alternating-sign one.
PRICE_INPUTS = [
    BigSeq([0] * 60),
    BigSeq([1] * 60),
    BigSeq([0, 1, 1] + [0] * 57),
    BigSeq(catalan_numbers(60)),
    BigSeq([9**n for n in range(1, 61)]),
    BigSeq([0, 0, 10**40] + [3] * 57),
]


class TestTransformPrice:
    """cat_transform holds every value, so it is priced from the bound
    |b_n| <= A^n s_n with A = max(1, max_i |a_i|^(1/i)) and s_n <= 5^n."""

    def test_all_ones_transform_below_five_to_the_n(self):
        s = cat_transform(BigSeq([1] * 300))
        assert all(v <= 5**n for n, v in enumerate(s, 1))

    @pytest.mark.parametrize("seq", PRICE_INPUTS)
    def test_bound_holds(self, seq):
        rate = max([0] + [math.log2(v) / i for i, v in enumerate(seq, 1) if v]) + math.log2(5)
        for n, v in enumerate(cat_transform(seq), 1):
            assert v.bit_length() <= n * rate + 1, n

    @pytest.mark.parametrize("seq", PRICE_INPUTS)
    def test_price_covers_the_values(self, seq, monkeypatch):
        prices = []
        monkeypatch.setattr(sequences, "check_memory", lambda what, estimate: prices.append(estimate))
        out = cat_transform(seq)
        assert prices[0] >= sum(sys.getsizeof(v) + 16 for v in out)

    def test_refused_before_the_first_product(self, monkeypatch):
        def no_values(*args):
            raise AssertionError("the schoolbook ran over the budget")

        monkeypatch.setattr(sequences, "_schoolbook_transform", no_values)
        with pytest.raises(CapacityError, match=r"^the schoolbook transform to length 84,000 "):
            cat_transform(BigSeq([0, 1, 1]).padded(84_000))
        # The same histogram at 83,000 fits the budget.
        with pytest.raises(AssertionError, match="ran over the budget"):
            cat_transform(BigSeq([0, 1, 1]).padded(83_000))


class TestSqrtSeriesCounting:
    """The linear-time counting root Psi = (1 - Q)/2, solved by
    _quadratic_root with alpha = 1 and beta = -1 as subgroupoids._counts
    solves it, against the schoolbook transform it replaces; entry 0 is
    Psi(0) = 0."""

    @staticmethod
    def root(p0, p1, n_max):
        return list(_quadratic_root([1], [-1], p0, p1, n_max))

    def test_catalan_to_1000(self):
        assert self.root([1, -4], [0], 1000) == [0, *cat_transform(indicator(1000, {1}))]

    @pytest.mark.parametrize("n_max", range(1, 8))
    @pytest.mark.parametrize("hist", [[0, 0, 2], [0, 1, 0, 0, 3], [1], []])
    def test_finite_small_horizons(self, hist, n_max):
        gens = BigSeq(hist).padded(n_max)
        got = self.root([1] + [-4 * c for c in gens], [0], n_max)
        assert got == [0, *cat_transform(gens)]

    @pytest.mark.parametrize("n_max", range(1, 8))
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_shifted_small_horizons(self, k, n_max):
        gens = BigSeq(([0] * k + catalan_numbers(n_max))[:n_max])
        assert self.root(*shifted_polys(k), n_max) == [0, *cat_transform(gens)]

    def test_sqrt_series_returns_q(self):
        # sqrt(1 - 4x) = 1 - 2x - 2x^2 - 4x^3 - 10x^4 - 28x^5 - ...
        assert list(_sqrt_series([1, -4], [0], 5)) == [1, -2, -2, -4, -10, -28]
        # The shifted family M+(1+1): q_n may be odd where b_n = -q_n/2 is not
        # formed; the counting sequence halves it.
        q = list(_sqrt_series(*shifted_polys(2), 8))
        assert self.root(*shifted_polys(2), 8)[1:] == [-v // 2 for v in q[1:]]

    def test_rejects_bad_input(self):
        # Horizon 0 holds Psi(0) alone; a bad discriminant is refused at once.
        assert self.root([1, -4], [0], 0) == [0]
        with pytest.raises(ValueError):
            _quadratic_root([1], [-1], [2, -4], [0], 5)
        with pytest.raises(ValueError):
            _quadratic_root([1], [-1], [1, -2], [1, 2], 5)


class TestPolynomials:
    def test_poly_quotient_is_exact_or_raises(self):
        assert _poly_quotient([1, 4, 4, 0], [1, 2]) == [1, 2]
        assert _poly_quotient([0, 0], [1, 2]) == []
        with pytest.raises(ExactDivisionError, match="does not divide"):
            _poly_quotient([1, 1], [1, 2])
        with pytest.raises(ExactDivisionError, match="not divisible by x"):
            _poly_quotient([1, 2, 1], [0, 1])

    def test_series_quotient(self):
        # 1/(1 - x - x^2) is the Fibonacci series; x^2 cancels before the division by 2.
        assert list(_series_quotient([1], [1, -1, -1], 6)) == [1, 1, 2, 3, 5, 8, 13]
        assert list(_series_quotient([0, 0, 4, 6], [0, 0, 2], 3)) == [2, 3, 0, 0]


class TestDecimalRoute:
    """The recurrences started from Decimal(1) under EXACT_DECIMAL; their
    texts are compared with the int route in test_subgroupoids."""

    def test_inexact_division_raises(self):
        # Q^2 = 1 + x has q_1 = 1/2: the first step divides 1 by 2.
        with pytest.raises(ExactDivisionError, match="1-bit integer"):
            list(_sqrt_series([1, 1], [0], 3))
        with localcontext(EXACT_DECIMAL), pytest.raises(ExactDivisionError, match="1-digit decimal"):
            list(_sqrt_series([1, 1], [0], 3, Decimal(1)))

    # The generators (1+1), ((1+1)+1), (1+(1+1)): 1 - 4*Phi = 1 - 4x^2 - 8x^3.
    @pytest.mark.parametrize("p0, p1", [([1, 0, -4, -8], [0]), shifted_polys(3)])
    @pytest.mark.parametrize("n_max", [1, 2, 3, 50, 300])
    def test_quadratic_root_same_in_int_and_decimal(self, p0, p1, n_max):
        ints = list(_quadratic_root([1], [-1], p0, p1, n_max))
        with localcontext(EXACT_DECIMAL):
            decimals = list(_quadratic_root([1], [-1], p0, p1, n_max, Decimal(1)))
        assert all(isinstance(v, Decimal) for v in decimals)
        assert list(map(str, decimals)) == list(map(str, ints))
        assert ints[0] == 0

    def test_exact_div_reports_decimal_digits(self):
        with localcontext(EXACT_DECIMAL):
            assert _exact_div(Decimal(10) ** 40, 5) == 2 * Decimal(10) ** 39
            with pytest.raises(ExactDivisionError, match="41-digit decimal .* by 3"):
                _exact_div(Decimal(10) ** 40, 3)

    def test_context_traps_rounding(self):
        with localcontext(EXACT_DECIMAL):
            with pytest.raises(Inexact):
                Decimal("0.5").to_integral_exact()
            with pytest.raises(Rounded):
                Decimal("1.00").to_integral_exact()  # drops two zeros: exact
            with pytest.raises(DivisionByZero):
                Decimal(1) // 0
            with pytest.raises(InvalidOperation):
                Decimal(0) // 0


class TestOneWindowedSum:
    """_recurrence_step is the one windowed sum: _sqrt_series steps one row
    (p1 = 0) or two (T = S*Q carried), and _series_quotient's tail is a row
    too.  Both routes run in int and in Decimal under EXACT_DECIMAL."""

    @staticmethod
    def made(make, one):
        """The values of ``make(one)`` until it ends or raises
        ExactDivisionError, which ends the list."""
        out = []
        with localcontext(EXACT_DECIMAL):
            try:
                out.extend(make(one))
            except ExactDivisionError:
                out.append(ExactDivisionError)
        return out

    def sqrt_texts(self, p0, p1, n_max, one):
        return [str(v) for v in self.made(lambda one: _sqrt_series(p0, p1, n_max, one), one)]

    @pytest.mark.parametrize("case", range(15))
    def test_sqrt_series_is_one_minus_twice_the_transform(self, case):
        n_max, rng = 200, random.Random(case)
        if case < 5:
            p0, p1 = shifted_polys(case + 1)
            gens = BigSeq(([0] * (case + 1) + catalan_numbers(n_max))[:n_max])
        else:
            hist = [rng.choice([0, 0, 1, 2, 5]) for _ in range(rng.randint(1, 12))]
            p0, p1, gens = [1] + [-4 * c for c in hist], [0], BigSeq(hist).padded(n_max)
        want = [str(v) for v in [1, *(-2 * b for b in cat_transform(gens))]]
        assert self.sqrt_texts(p0, p1, n_max, 1) == want
        assert self.sqrt_texts(p0, p1, n_max, Decimal(1)) == want

    def test_non_integral_series_raise_alike(self):
        rng, raised = random.Random(2401), set()
        for _ in range(60):
            p0 = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            p1 = [0] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
            ints = self.sqrt_texts(p0, p1, 50, 1)
            assert self.sqrt_texts(p0, p1, 50, Decimal(1)) == ints, (p0, p1)
            if ints[-1] == str(ExactDivisionError):
                raised.add(any(p1))
        # Both the one-row and the two-row route raised.
        assert raised == {False, True}

    @pytest.mark.parametrize("seed", range(10))
    def test_series_quotient_with_tails(self, seed):
        # den = x^v * (lead + tail) divides num = den * quot exactly.
        rng = random.Random(seed)
        tail = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] + [rng.choice([1, -2, 3])]
        den = [0] * rng.randint(0, 2) + [rng.choice([1, -1, 2, -3])] + tail
        quot = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        num = _poly_mul(den, quot)
        want = (quot + [0] * 20)[:21]
        for one in (1, Decimal(1)):
            got = self.made(lambda one: _series_quotient([one * c for c in num], den, 20), one)
            assert got == want
            assert all(type(v) is type(one) for v in got)
            # Decimal("-0") == 0, so the texts are compared too: no "-0".
            assert list(map(str, got)) == list(map(str, want))


class TestSignedTransform:
    def test_signed_catalans(self):
        got = cat_transform_signed([-1] + [0] * 29)
        cats = catalan_numbers(30)
        assert got == [Fraction((-1) ** n * cats[n - 1]) for n in range(1, 31)]

    @pytest.mark.parametrize("alpha", [Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)])
    def test_scaling_law(self, alpha):
        base = [1, 1, 0, 2, 0, 0, 1] + [0] * 23
        plain = cat_transform_signed(base)
        scaled = cat_transform_signed([alpha ** (k + 1) * base[k] for k in range(30)])
        assert scaled == [alpha ** (k + 1) * plain[k] for k in range(30)]

    def test_zero_sequence(self):
        assert cat_transform_signed([0] * 8) == [Fraction(0)] * 8

    @pytest.mark.parametrize(
        "hist",
        [
            indicator(60, {1}).entries,
            indicator(17, {2, 3}).entries,
            [0, 1, 2] + [0] * 12,
            [0, 0, 2] + [0] * 18,
            [],
        ],
    )
    def test_matches_integer_transform(self, hist):
        assert cat_transform_signed(hist) == [Fraction(v) for v in cat_transform(BigSeq(hist))]


class TestMotzkin:
    def test_prefix(self):
        assert motzkin_numbers(11) == MOTZKIN_PREFIX

    def test_shifted_sequence(self):
        m = BigSeq(motzkin_numbers(12))
        assert m[1] == 1 and m[11] == 2188

    def test_shift_recurrence(self):
        # The shifted sequence satisfies m_{n+1} = m_n + sum_{i+j=n} m_i m_j
        # (its generating function solves mu = x + x mu + x mu^2).
        mots = motzkin_numbers(26)
        m = [0] + mots  # m[i] = M_{i-1}
        for n in range(1, 25):
            conv = sum(m[i] * m[n - i] for i in range(1, n))
            assert m[n + 1] == m[n] + conv

    def test_transform_does_not_shift_motzkin(self):
        # A compact form sometimes quoted, Cat(m_n) = m_{n+1}, is false: the
        # transform convolves its own output, while the Motzkin recurrence
        # convolves the input.  First divergence is at n = 3 (6 vs 4).
        shifted = cat_transform(BigSeq(motzkin_numbers(10)))
        assert shifted[1] == 1 and shifted[2] == 2
        assert shifted[3] == 6
        assert motzkin_numbers(4)[3] == 4

    def test_matches_convolution(self):
        # The O(n^2) convolution M_{n+1} = M_n + sum_k M_k M_{n-1-k}.
        conv = [1]
        for n in range(299):
            conv.append(conv[n] + sum(conv[k] * conv[n - 1 - k] for k in range(n)))
        for count in (0, 1, 2, 3, 300):
            assert motzkin_numbers(count) == conv[:count]

    def test_identities_hold(self):
        details = catalan_motzkin_identities(60)
        assert "Catalan offset +1" in details

    def test_printed_offset_fails_at_small_n(self):
        # The naive reading C_{n-1} = sum binom(n,k) M_k breaks immediately.
        mots = motzkin_numbers(2)
        assert sum(math.comb(1, k) * mots[k] for k in range(2)) == 2 != 1


class TestMultinomialCount:
    def test_fixture_values(self):
        assert multinomial_count([2], 6) == 2
        assert multinomial_count([2, 3], 5) == 2
        assert multinomial_count([3, 3], 6) == 4

    def test_against_per_generator_enumeration(self):
        # Independent oracle: enumerate q-vectors per generator (not grouped
        # by length) and sum multinomial(q) * c_{sum q} directly.
        def naive(alphas, n):
            r = len(alphas)
            cats = [0] + catalan_numbers(n)
            total = 0
            q = [0] * r

            def rec(i, remaining):
                nonlocal total
                if i == r:
                    if remaining == 0 and sum(q) > 0:
                        k = sum(q)
                        coeff = math.factorial(k)
                        for qi in q:
                            coeff //= math.factorial(qi)
                        total += coeff * cats[k]
                    return
                for v in range(remaining // alphas[i] + 1):
                    q[i] = v
                    rec(i + 1, remaining - v * alphas[i])
                    q[i] = 0

            rec(0, n)
            return total

        for alphas in ([2], [2, 3], [3, 3], [2, 2, 3], [4, 5]):
            for n in range(1, 13):
                assert multinomial_count(alphas, n) == naive(alphas, n)

    def test_matches_transform_on_histograms(self):
        for alphas in ([2], [2, 3], [3, 3], [2, 3, 4], [2, 2]):
            hist = [0] * 14
            for a in alphas:
                hist[a - 1] += 1
            seq = cat_transform(BigSeq(hist))
            for n in range(1, 15):
                assert multinomial_count(alphas, n) == seq[n]

    def test_validation(self):
        with pytest.raises(ValueError):
            multinomial_count([0, 2], 4)
        with pytest.raises(ValueError):
            multinomial_count([2], 0)
        assert multinomial_count([], 4) == 0


class TestSeriesIdentity:
    def test_catalan_functional_equation(self):
        series_identity_check(indicator(10, {1}), order=10)

    def test_fixture_families(self):
        series_identity_check(indicator(16, {2, 3}), order=16)
        series_identity_check(BigSeq([0, 1, 2] + [0] * 11), order=14)
        shifted = BigSeq([0] + catalan_numbers(12))
        series_identity_check(shifted, order=13)

    def test_order_truncates_to_input(self):
        details = series_identity_check(indicator(5, {1}), order=50)
        assert "order 5" in details


class TestCatalanBounds:
    def test_enclosure_is_sane(self):
        assert PI_LOWER < PI_UPPER
        assert PI_UPPER - PI_LOWER == Fraction(1, 10**39)
        assert Fraction(314159, 100000) < PI_LOWER < Fraction(314160, 100000)

    def test_bounds_hold_to_300(self):
        catalan_bounds_check(300)

    def test_weak_bound_explicit_n4(self):
        cats = catalan_numbers(5)
        assert 4**4 < cats[4] * 25 and cats[4] < 4**4  # 10.24 < 14 < 256


class TestCsvRoundTrip:
    def test_roundtrip_exact(self, tmp_path):
        seq = BigSeq([0, 1, 10**50, 3])
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, seq)
        assert read_sequence_csv(path) == seq
        assert path.read_text().splitlines()[0] == "n,value"

    def test_roundtrip_past_int_digit_limit(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        seq = BigSeq([1, 7 * 10**6000 + 3])
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, seq)
        assert read_sequence_csv(path) == seq
        assert sys.get_int_max_str_digits() == limit

    def test_digit_limit_restored_after_error(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(RuntimeError), unlimited_int_digits():
            assert len(str(10**6000)) == 6001
            raise RuntimeError
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize(
        "pieces",
        [
            [],
            ["ab", "c\n"],
            ["ab", "cd"],
            ["a\n", "b"],
            ["abcdefg"],
            ["abcdef\n"],
            ["abc\ndef\n\n"],
            "",
            "abc\ndef\n\n",
            "ab",
        ],
    )
    def test_pieces_written_as_they_come(self, tmp_path, monkeypatch, pieces):
        # A list is streamed piece by piece; a string is written as one piece.
        writes = []
        path = tmp_path / "out.txt"
        with open(path, "w") as fh:
            real = fh.write
            monkeypatch.setattr(fh, "write", lambda piece: writes.append(piece) or real(piece))
            sequences._write_lines(fh, pieces if isinstance(pieces, str) else iter(pieces))
        text = "".join(pieces)
        assert path.read_text() == (text if text.endswith("\n") else text + "\n")
        expected = [pieces] if isinstance(pieces, str) else pieces
        assert writes[: len(expected)] == expected

    def test_accepts_index_header(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("index,value\n1,7\n2,9\n")
        assert read_sequence_csv(path).entries == (7, 9)

    def test_horizon_stops_reading(self, tmp_path):
        # Rows past the horizon are neither validated nor converted: each of
        # them would raise.
        path = tmp_path / "seq.csv"
        path.write_text("n,value\n1,7\n\n2,9\n3,oops\nmalformed\n")
        assert read_sequence_csv(path, 2).entries == (7, 9)
        assert read_sequence_csv(path, 1).entries == (7,)
        with pytest.raises(ValueError, match="invalid literal"):
            read_sequence_csv(path, 3)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            read_sequence_csv(path, 0)

    def test_whole_file_validated_without_horizon(self, tmp_path):
        # Without a horizon, for a file or a seqfile: family, a bad late row fails.
        path = tmp_path / "seq.csv"
        path.write_text("n,value\n1,7\n2,9\n4,oops\n")
        with pytest.raises(ValueError, match="non-consecutive index at row 3"):
            read_sequence_csv(path)
        with pytest.raises(ValueError, match="non-consecutive index at row 3"):
            parse_family(f"seqfile:{path}")
        assert read_sequence_csv(path, 2).entries == (7, 9)

    def test_rejects_bad_header_and_gaps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,7\n")
        with pytest.raises(ValueError):
            read_sequence_csv(path)
        path.write_text("n,value\n1,7\n3,9\n")
        with pytest.raises(ValueError):
            read_sequence_csv(path)
