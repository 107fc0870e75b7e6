"""Density pipeline: growth, ratio traces, Aitken, asymptotes, verdicts."""

import gc
import hashlib
import json
import random
import tracemalloc
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freemagma import (
    BigSeq,
    ExplicitSeq,
    FiniteSet,
    Longitudinal,
    NullDensityVerdict,
    ShiftedFull,
    aitken,
    catalan_c,
    counting_sequence,
    density_algebra_checks,
    density_report,
    estimate_density,
    fg_null_density_test,
    growth,
    leaf,
    left_comb,
    longitudinal_asymptote,
    longitudinal_convergence_check,
    product,
    ratio_trace,
    right_comb,
)
from freemagma.checks import Mismatch
from freemagma.cli import main
from freemagma.density import _rounded_quotient, write_trace_csv
from freemagma.subgroupoids import parse_family

ONE = leaf()
TWO = ONE + ONE
THREE_PLUS = right_comb(3)
THREE_MINUS = left_comb(3)

SHIFTED_PREFIX = (0, 1, 1, 3, 7, 21, 62, 197, 637, 2123, 7196, 24807, 86608)


class TestGrowth:
    def test_catalan_growth(self):
        g = growth(catalan_c(5))
        assert g.entries == (1, 2, 4, 9, 23)

    def test_zero(self):
        assert growth(BigSeq([0, 0, 0])).entries == (0, 0, 0)

    def test_aerated_growth(self):
        g = growth(BigSeq([0, 1, 0, 1, 0, 2]))
        assert g[6] == 4


class TestRatioTrace:
    def test_self_ratio_is_one(self):
        cats = catalan_c(20)
        trace = ratio_trace(cats, cats)
        assert all(v == 1 for _, v in trace.samples)
        assert [n for n, _ in trace.samples] == list(range(1, 21))

    def test_shifted_over_full_at_13(self):
        from decimal import localcontext

        numer = BigSeq(SHIFTED_PREFIX)
        denom = catalan_c(13)
        trace = ratio_trace(numer, denom, precision=30)
        n, value = trace.samples[-1]
        assert n == 13
        assert sum(SHIFTED_PREFIX) == 121663
        assert sum(denom.entries) == 290512
        with localcontext() as ctx:
            ctx.prec = 30
            expected = Decimal(121663) / Decimal(290512)
        assert value == expected

    def test_zero_denominator_skipped(self):
        numer = BigSeq([0, 0, 0, 1])
        denom = BigSeq([0, 0, 1, 1])  # growth is zero for n = 1, 2
        trace = ratio_trace(numer, denom)
        assert [n for n, _ in trace.samples] == [3, 4]

    def test_bounded_for_nested_families(self):
        numer = counting_sequence(FiniteSet({TWO, THREE_PLUS}), 40)
        denom = catalan_c(40)
        trace = ratio_trace(numer, denom)
        assert all(0 <= v <= 1 for _, v in trace.samples)


def decimal_quotient(num, den, precision):
    """The reference rounding: Decimal division at ``precision`` digits."""
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.rounding = ROUND_HALF_EVEN
        return Decimal(num) / Decimal(den)


def half_even(precision):
    """The context ratio_trace rounds its samples in."""
    return Context(prec=precision, rounding=ROUND_HALF_EVEN)


def same_decimal(x, y):
    """Equal digits, exponent and sign, so equal printed text."""
    return x.as_tuple() == y.as_tuple() and str(x) == str(y)


class TestRoundedQuotient:
    """The integer-divmod rounding of ratio_trace against Decimal division."""

    @pytest.mark.parametrize("precision", [1, 2, 3, 8, 30])
    def test_small_grid(self, precision):
        for num in range(-40, 41):
            for den in range(-40, 41):
                if den:
                    expected = decimal_quotient(num, den, precision)
                    assert same_decimal(_rounded_quotient(num, den, half_even(precision)), expected)

    @pytest.mark.parametrize("precision", [1, 6, 8, 30])
    def test_random_big_operands(self, precision):
        rng = random.Random(precision)
        for _ in range(500):
            num = rng.randrange(10 ** rng.randrange(1, 120))
            den = rng.randrange(1, 10 ** rng.randrange(1, 120))
            assert same_decimal(
                _rounded_quotient(num, den, half_even(precision)), decimal_quotient(num, den, precision)
            )

    @pytest.mark.parametrize("precision", [1, 6, 8, 30])
    def test_exact_ties_and_carries(self, precision):
        top = 10**precision
        cases = [
            (10**40, 1),  # exact, more digits than the precision
            (10**40, 2**20 * 5**7),
            (3 * 10**12, 8),  # exact with trailing zeros: ideal exponent 0
            (1, 2**30),  # exact, 30 digits after the point
            ((top - 1) * 10 + 5, 10),  # tie on an odd digit, carry to 10^precision
            ((top - 2) * 10 + 5, 10),  # tie on an even digit stays
            ((top - 1) * 100 + 51, 100),  # above half, carry
            (2 * top + 1, 2),
        ]
        for num, den in cases:
            expected = decimal_quotient(num, den, precision)
            assert same_decimal(_rounded_quotient(num, den, half_even(precision)), expected)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 400).flatmap(lambda d: st.integers(1 - 10**d, 10**d - 1)),
        st.integers(1, 400).flatmap(lambda d: st.integers(1 - 10**d, 10**d - 1)).filter(bool),
        st.integers(1, 50),
    )
    def test_signed_big_operands(self, num, den, precision):
        assert same_decimal(
            _rounded_quotient(num, den, half_even(precision)), decimal_quotient(num, den, precision)
        )

    @given(st.integers(-(10**400), -1), st.integers(1, 50))
    def test_zero_over_negative_is_negative_zero(self, den, precision):
        got = _rounded_quotient(0, den, half_even(precision))
        assert same_decimal(got, decimal_quotient(0, den, precision))
        assert str(got) == "-0"

    @settings(deadline=None)
    @given(
        st.integers(1, 10**200),
        st.integers(0, 10**200),
        st.integers(0, 60),
        st.integers(1, 50),
        st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    )
    def test_quotients_needing_no_scale(self, den, rem, extra, precision, signs):
        # |num/den| >= 10^(precision+2), so the scale t is at most 1, and 0
        # from extra = 1 on: q is the integer part, of over precision digits.
        num = den * 10 ** (precision + 2 + extra) + rem % den
        assert same_decimal(
            _rounded_quotient(signs[0] * num, signs[1] * den, half_even(precision)),
            decimal_quotient(signs[0] * num, signs[1] * den, precision),
        )

    def test_trace_of_density_families(self):
        denom = catalan_c(400)
        for family in (ShiftedFull(ONE), ShiftedFull(THREE_PLUS), FiniteSet({TWO, THREE_PLUS})):
            numer = counting_sequence(family, 400)
            expected = [
                decimal_quotient(gn, gm, 30)
                for gn, gm in zip(growth(numer), growth(denom))
            ]
            got = ratio_trace(numer, denom, precision=30).values()
            assert all(same_decimal(x, y) for x, y in zip(got, expected, strict=True))


class TestAitken:
    def test_constant_sequence(self):
        xs = [Decimal("0.4")] * 6
        out = aitken(xs)
        assert all(v is None for v in out)  # zero denominators are skipped

    def test_geometric_convergence_is_exact(self):
        # x_n = L + A q^n is sent exactly to L wherever defined.
        L, A, q = Decimal("0.3"), Decimal(1), Decimal("0.5")
        xs = [L + A * q**n for n in range(1, 12)]
        out = aitken(xs, precision=28)
        assert out, "expected defined entries"
        for v in out:
            assert v is not None
            assert abs(v - L) < Decimal("1e-25")

    def test_too_short(self):
        assert aitken([Decimal(1), Decimal(2)]) == []

    def test_paper_formula_on_known_triple(self):
        xs = [Decimal(1), Decimal(2), Decimal(4)]
        (y,) = aitken(xs)
        assert y == (xs[0] * xs[2] - xs[1] ** 2) / (xs[0] + xs[2] - 2 * xs[1])


class TestNullDensity:
    @pytest.mark.parametrize(
        "gens",
        [
            {TWO},
            {TWO, THREE_PLUS},
            {TWO, THREE_MINUS, THREE_PLUS},
            {THREE_MINUS, THREE_PLUS},
        ],
    )
    def test_small_rank_is_null(self, gens):
        assert fg_null_density_test(gens) is NullDensityVerdict.NULL_BY_THEOREM

    def test_sixteen_generator_example_inconclusive(self):
        gens = {THREE_PLUS} | {product(TWO, right_comb(k)) for k in range(2, 17)}
        assert fg_null_density_test(gens) is NullDensityVerdict.INCONCLUSIVE

    def test_full_magma_inconclusive(self):
        # rank 1 is not < 4^0; the criterion says nothing about <1> = M.
        assert fg_null_density_test({ONE}) is NullDensityVerdict.INCONCLUSIVE

    def test_lambda_four_rank_fifteen_is_null(self):
        gens = {right_comb(k) for k in range(4, 19)}
        assert len(gens) == 15
        assert fg_null_density_test(gens) is NullDensityVerdict.NULL_BY_THEOREM


class TestLongitudinalAsymptote:
    def test_period_two(self):
        asym = longitudinal_asymptote({2})
        assert asym.p == 2
        assert asym.per_residue == (Fraction(4, 5), Fraction(1, 5))

    def test_period_three(self):
        asym = longitudinal_asymptote({3})
        assert asym.per_residue == (Fraction(16, 21), Fraction(4, 21), Fraction(1, 21))

    def test_gcd_reduction(self):
        assert longitudinal_asymptote({4, 6}) == longitudinal_asymptote({2})

    @pytest.mark.parametrize("p", range(1, 17))
    def test_mean_is_exactly_one_over_p(self, p):
        asym = longitudinal_asymptote({p})
        assert asym.mean() == Fraction(1, p)
        assert sum(asym.per_residue) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            longitudinal_asymptote(set())
        with pytest.raises(TypeError):
            longitudinal_asymptote([2.5])

    def test_is_a_frozen_record(self):
        asym = longitudinal_asymptote({2})
        assert hash(asym) == hash(longitudinal_asymptote({4, 6}))
        with pytest.raises(AttributeError):
            asym.p = 3


class TestLongitudinalConvergence:
    def test_period_two_at_300(self):
        longitudinal_convergence_check({2}, 300, 5e-3)

    def test_period_three_at_300(self):
        longitudinal_convergence_check({3}, 300, 5e-3)

    def test_gcd_two_family(self):
        longitudinal_convergence_check({4, 6}, 300, 5e-3)

    def test_tight_tolerance_fails_at_small_horizon(self):
        with pytest.raises(Mismatch):
            longitudinal_convergence_check({2}, 60, 1e-6)

    def test_worst_residue_exists_when_every_error_is_zero(self):
        # {1} has period 1 and its ratio is exactly 1 = its asymptote.
        details, data = longitudinal_convergence_check({1}, 10, 0.1)
        assert details.startswith("worst residue 0: ")
        assert data["worst_error"] == 0.0

    # The report data of the fast-scope and full-scope verify families, as
    # computed when every ratio of the trace was built.
    PINNED_DATA = [
        ({2}, 300, 5e-3, 0.0008062775449096486, 0.0006310681414868092),
        ({3}, 300, 5e-3, 0.001094043315825438, 0.00023757920192867698),
        ({2}, 2000, 2e-3, 0.00012014018497004667, 9.388536079077245e-05),
        ({3}, 2000, 2e-3, 0.00016355447191994756, 3.526287406728264e-05),
        ({4}, 2000, 2e-3, 0.00017952865962375035, 1.1749680936638253e-05),
        ({4, 6}, 2000, 2e-3, 0.00012014018497004667, 9.388536079077245e-05),
    ]

    @pytest.mark.parametrize("lengths, n_max, tol, worst, aux", PINNED_DATA)
    def test_data_pinned(self, lengths, n_max, tol, worst, aux):
        _, data = longitudinal_convergence_check(lengths, n_max, tol)
        p = longitudinal_asymptote(lengths).p
        assert data == {
            "p": p, "n_max": n_max, "worst_error": worst, "aux_error": aux, "tolerance": tol
        }

    def test_horizon_must_clear_frobenius_bound(self):
        # {4,10} reduces to {2,5} with Frobenius 3: need n_max > 6.
        with pytest.raises(ValueError):
            longitudinal_convergence_check({4, 10}, 6, 1e-2)


class TestEstimateDensity:
    def test_shifted_one_trend(self):
        est = estimate_density(ShiftedFull(ONE), FiniteSet({ONE}), 400, precision=6)
        assert est.value is not None
        assert Decimal("0.35") < est.value < Decimal("0.36")
        assert est.status in ("converged", "inconclusive")

    def test_oscillating_family(self):
        est = estimate_density(Longitudinal({2}), FiniteSet({ONE}), 300, precision=6)
        assert est.status == "oscillating"
        assert est.value is None
        assert est.oscillation_period == 2
        assert est.per_residue is not None
        assert abs(est.per_residue[0] - Decimal("0.8")) < Decimal("0.01")
        assert abs(est.per_residue[1] - Decimal("0.2")) < Decimal("0.01")

    @pytest.mark.parametrize("p", [9, 10])
    def test_long_period_oscillates(self, p):
        est = estimate_density(Longitudinal({p}), FiniteSet({ONE}), 100, precision=6)
        assert est.status == "oscillating"
        assert est.oscillation_period == p
        exact = longitudinal_asymptote({p}).per_residue
        assert len(est.per_residue) == p
        for got, want in zip(est.per_residue, exact):
            assert abs(Fraction(got) - want) < Fraction(1, 100)

    @pytest.mark.parametrize(
        "family", [FiniteSet({THREE_MINUS}), ExplicitSeq(BigSeq([0, 0, 2]))], ids=["finite", "seq"]
    )
    def test_period_three_null_family(self, family):
        # Counts live on multiples of 3 only, so the trace has period 3.
        est = estimate_density(family, FiniteSet({ONE}), 300, precision=6)
        assert est.status != "oscillating"
        assert 0 <= est.value < Decimal("1e-20")

    def test_short_window_is_never_converged(self):
        for n_max in range(3, 7):
            est = estimate_density(ShiftedFull(ONE), FiniteSet({ONE}), n_max, precision=8)
            assert est.status == "inconclusive", n_max
            assert est.window_spread is None, n_max

    @pytest.mark.parametrize(
        "family, n_max, status",
        [
            ("shifted:(1+(1+1))", 5000, "inconclusive"),
            ("finite:[(1+1),((1+1)+1),(1+(1+1))]", 2000, "converged"),
        ],
        ids=["shift-3", "finite"],
    )
    def test_converged_needs_the_half_horizon_to_agree(self, capsys, family, n_max, status):
        # Shift 3's last five Aitken values at n=5000 agree to 5.8e-9, but
        # lie 7.3e-6 above the closed form sqrt(1/3968) = 0.0158750159; the
        # value at n=2500 is 7.28e-6 below the last.
        argv = ["density", "--n", family, "--m", "full", "--nmax", str(n_max), "--precision", "8"]
        assert main(argv + ["--format", "plain"]) == 0
        assert f"({status}, n_max={n_max})" in capsys.readouterr().out

    # sha256 of density_accelerated.csv at n=300, precision 8, for the
    # benchmark's four density families, whose traces have period 1.
    ACCELERATED_DIGESTS = {
        ShiftedFull(ONE): "d067a37b0fa83e2820331c735f9ca9a65fdada6b79ebadc13220a5e138fb4cf9",
        ShiftedFull(TWO): "1fee83e027c2c97bfcc9154ba2192fcee4b0498d0ae5f8911bd88155b6fda512",
        ShiftedFull(THREE_PLUS): "de7d6b0ae80acf5734942e3f4c3b095fba361608ba36e099f7da20cb1f55ffec",
        FiniteSet({TWO, THREE_MINUS, THREE_PLUS}):
            "52a633cfd116ec6d5e93d75e009e9ef95e39a854f630d46c95e8198065c77bc1",
    }

    @pytest.mark.parametrize(
        "family", list(ACCELERATED_DIGESTS), ids=["shift1", "shift2", "shift3", "finite"]
    )
    def test_accelerated_digest_pinned(self, family, tmp_path):
        est = estimate_density(family, FiniteSet({ONE}), 300, precision=8)
        path = tmp_path / "density_accelerated.csv"
        write_trace_csv(path, est.accelerated)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.ACCELERATED_DIGESTS[family]

    def test_null_family_trends_to_zero(self):
        est = estimate_density(FiniteSet({TWO}), FiniteSet({ONE}), 80, precision=6)
        last = est.trace.samples[-1][1]
        assert last < Decimal("1e-9")

    def test_estimate_is_a_frozen_record(self):
        est = estimate_density(FiniteSet({TWO}), FiniteSet({ONE}), 40, precision=6)
        for record, field in ((est, "status"), (est.trace, "samples")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_explicit_seq_numerator(self):
        fam = ExplicitSeq(BigSeq([0, 1] + [0] * 98))
        est = estimate_density(fam, FiniteSet({ONE}), 100, precision=6)
        aerated = counting_sequence(fam, 100)
        assert aerated[4] == 1 and aerated[6] == 2  # sanity: transform applied

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_density(FiniteSet({ONE}), FiniteSet({ONE}), 2)
        with pytest.raises(ValueError, match="precision must be >= 6 significant digits, got 5"):
            estimate_density(FiniteSet({ONE}), FiniteSet({ONE}), 50, precision=5)


# Numerator and denominator specs whose CLI run streams the trace: the
# benchmark's four families, periodic and late-settling families, a
# periodic family over another, and a numerator that is zero at the first
# samples over a denominator that skips samples.
STREAMED_CASES = [
    ("shifted:1", "full"),
    ("shifted:(1+1)", "full"),
    ("shifted:(1+(1+1))", "full"),
    ("finite:[(1+1),((1+1)+1),(1+(1+1))]", "full"),
    ("longitudinal:[2]", "full"),
    ("longitudinal:[4,6]", "full"),
    ("longitudinal:[9]", "full"),
    ("seq:[0,0,2]", "full"),
    ("finite:[(1+1),(1+((1+1)+1))]", "full"),
    ("finite:[((((1+1)+1)+1)+1)]", "longitudinal:[2]"),
    ("finite:[(1+1)]", "full"),
    ("longitudinal:[4,6]", "finite:[(1+1)]"),
]


def _discard(row):
    pass


class TestStreamedEstimate:
    @pytest.mark.parametrize("n_max", [3, 4, 7, 300])
    @pytest.mark.parametrize("numer, denom", STREAMED_CASES)
    def test_cli_writes_what_the_library_holds(self, capsys, tmp_path, numer, denom, n_max):
        out = tmp_path / "cli"
        argv = ["density", "--n", numer, "--m", denom, "--nmax", str(n_max), "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        family_n, family_m = parse_family(numer), parse_family(denom)
        est = estimate_density(family_n, family_m, n_max, precision=8)
        for name, rows in (("trace", est.trace.samples), ("accelerated", est.accelerated)):
            write_trace_csv(tmp_path / f"{name}.csv", rows)
            written = (out / f"density_{name}.csv").read_bytes()
            assert written == (tmp_path / f"{name}.csv").read_bytes(), name
        report = json.loads((out / "density_report.json").read_text())
        paths = str(out / "density_trace.csv"), str(out / "density_accelerated.csv")
        expected = density_report(est, numer, denom, *paths)
        del report["runtime_seconds"], expected["runtime_seconds"]
        assert report == expected
        # The library's sinks get the same rows in the same order, and the
        # estimate then holds none of them.
        trace, accelerated = [], []
        streamed = estimate_density(family_n, family_m, n_max, 8, trace.append, accelerated.append)
        assert (trace, accelerated) == (list(est.trace.samples), list(est.accelerated))
        assert streamed.trace.samples == streamed.accelerated == ()
        assert streamed._replace(trace=est.trace, accelerated=est.accelerated) == est

    def test_streamed_estimate_holds_a_window(self):
        # A held trace costs over 300 bytes a sample (two 30-digit Decimals
        # and their tuples).  The stream holds the few counts its
        # recurrences read, whose digits grow with n: measured on Python
        # 3.11, its peak grows by about 5 bytes per n, from 19 KB at
        # n_max=1000 to 35 KB at n_max=4000.
        assert _peak_growth("shifted:1", "full") < 20 * 3000

    def test_periodic_estimate_holds_a_window(self):
        # A held sample costs about 300 bytes.  The period 2 is read before
        # the first count, so each class holds only its Aitken window.
        assert _peak_growth("longitudinal:[2]", "full") < 60_000


def _peak_growth(numer, denom):
    """How far the tracemalloc peak of an estimate whose sinks discard
    every row grows from n_max=1000 to n_max=4000, after a warm-up run."""
    family_n, family_m = parse_family(numer), parse_family(denom)

    def peak(n_max):
        gc.collect()
        tracemalloc.start()
        try:
            estimate_density(family_n, family_m, n_max, 8, _discard, _discard)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)
    return peak(4000) - peak(1000)


class TestDensityReport:
    def test_report_fields(self):
        est = estimate_density(ShiftedFull(ONE), FiniteSet({ONE}), 60, precision=6)
        report = density_report(est, "shifted:1", "full", "t.csv", "a.csv", 1.5)
        assert report["family_n"] == "shifted:1"
        assert report["family_m"] == "full"
        assert report["n_max"] == 60
        assert report["precision"] == 6
        assert isinstance(report["value"], str)
        assert report["trace_csv_path"] == "t.csv"
        assert report["runtime_seconds"] == 1.5

    def test_oscillating_report(self):
        est = estimate_density(Longitudinal({2}), FiniteSet({ONE}), 200, precision=6)
        report = density_report(est, Longitudinal({2}), "full")
        assert report["value"] == "undefined-oscillating"
        assert report["oscillation_period"] == 2
        assert len(report["per_residue"]) == 2

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [(1, Decimal("0.5")), (2, Decimal("0.25"))])
        assert path.read_text() == "n,value\n1,0.5\n2,0.25\n"


class TestDensityAlgebra:
    def test_default_fixtures_pass(self):
        density_algebra_checks()

    def test_lists_no_magma(self):
        # The nested fixture's outer set {1} generates the whole magma.  Its
        # 6,918 terms of length <= 10, held as Terms, peaked at 1.30 MB; the
        # oracle's counts hold one byte per term (27 KB).
        gc.collect()
        tracemalloc.start()
        try:
            density_algebra_checks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_custom_translation_fixture(self):
        density_algebra_checks(
            translation_fixtures=[(TWO, frozenset({TWO}), 7)],
            nested_fixtures=[],
        )

    def test_translation_identity_by_hand(self):
        # |2H|_{2n} = |H|_n for H = <2, 3_+>, via plain closure counting.
        from freemagma import closure_up_to

        gens = frozenset({TWO, THREE_PLUS})
        base = closure_up_to(gens, 7)
        image = closure_up_to(frozenset(product(TWO, g) for g in gens), 14)
        for n in range(1, 8):
            assert len(image[2 * n]) == len(base[n])
        for m in range(1, 15):
            if m % 2 == 1:
                assert len(image[m]) == 0
