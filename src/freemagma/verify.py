"""Self-verification suite: every reproducible number in one registry.

Each check recomputes a known quantity (a sequence prefix, a path count,
an asymptote, a density window) from scratch and compares exactly or
within a stated tolerance.  ``fast`` scope keeps horizons at or below 300
so the whole suite stays under a minute; ``full`` scope runs the
reproduction horizons (density at n = 5000).  A check raises
:class:`_Mismatch` at its first disagreement, and :func:`verify_all`
builds every report under its registry name.
"""

from __future__ import annotations

import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .checks import (
    NullDensityVerdict,
    _path_counts,
    cat_transform_signed,
    catalan_bounds_check,
    catalan_c,
    catalan_motzkin_identities,
    crosscheck_subgroupoid,
    density_algebra_checks,
    fg_null_density_test,
    longitudinal_convergence_check,
    motzkin_numbers,
    multinomial_count,
    series_identity_check,
)
from .density import estimate_density, growth, longitudinal_asymptote
from .motzkin_paths import PathSpec, _equation_counts, enumerate_paths
from .reporting import CheckReport
from .sequences import BigSeq, cat_transform, catalan_numbers, unlimited_int_digits
from .subgroupoids import (
    FiniteSet,
    GenFamily,
    Longitudinal,
    ShiftedFull,
    brute_count,
    counting_sequence,
    counting_texts,
    format_family,
    generator_counting_sequence,
    minimal_generating_up_to,
    semigroup_info,
)
from .terms import Term, iter_terms_up_to, leaf, left_comb, product, right_comb

# Reference sequence prefixes (1-indexed), cross-checked against OEIS where
# an id exists: A007477 (shifted), A253918, A001006 (Motzkin).
AERATED_PREFIX = (0, 1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42)
TWO_THREEPLUS_PREFIX = (0, 1, 1, 1, 2, 3, 6, 11, 22, 44, 90, 187, 392, 832, 1778, 3831, 8304)
TWO_BOTHTHREE_PREFIX = (0, 1, 2, 1, 4, 6, 12, 29, 56, 134, 300, 682, 1624, 3772, 9016)
BOTHTHREE_PREFIX = (0, 0, 2, 0, 0, 4, 0, 0, 16, 0, 0, 80, 0, 0, 448, 0, 0, 2688, 0, 0, 16896)
SHIFTED_FULL_PREFIX = (0, 1, 1, 3, 7, 21, 62, 197, 637, 2123, 7196, 24807, 86608, 305792)
MOTZKIN_PREFIX = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188)
# Longitudinal counts: the Catalan number C_(n-1) at lengths n in the
# subsemigroup, zero elsewhere.
LONGITUDINAL_23_PREFIX = (0, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900)
LONGITUDINAL_46_PREFIX = (0, 0, 0, 5, 0, 42, 0, 429, 0, 4862, 0, 58786, 0, 742900)

# Reference density values and acceptance windows at the n=5000 horizon.
DENSITY_WINDOWS = {
    1: ("0.35361", Decimal("0.3530"), Decimal("0.3542")),
    2: ("0.06683", Decimal("0.0663"), Decimal("0.0674")),
    3: ("0.01588", Decimal("0.0154"), Decimal("0.0164")),
}
# Looser windows used by the fast scope at n=300.
DENSITY_WINDOWS_FAST = {
    1: (Decimal("0.3486"), Decimal("0.3586")),
    2: (Decimal("0.0618"), Decimal("0.0718")),
    3: (Decimal("0.0110"), Decimal("0.0210")),
}


class _Mismatch(Exception):
    """A check's first disagreement, raised with its details text and, for
    an entry-wise check, the first index at which it diverged."""


def _two() -> Term:
    return leaf() + leaf()


def _shift_term(k: int) -> Term:
    # Shifts used by the reference densities: 1, 2, 3_+.
    return {1: leaf(), 2: _two(), 3: right_comb(3)}[k]


def check_sequence_fixtures(scope: str) -> str:
    fixtures = [
        ("aerated Catalan numbers", BigSeq([0, 1] + [0] * 10), AERATED_PREFIX),
        ("A007477 prefix", BigSeq([0, 1, 1] + [0] * 14), TWO_THREEPLUS_PREFIX),
        ("A253918 prefix", BigSeq([0, 1, 2] + [0] * 12), TWO_BOTHTHREE_PREFIX),
        ("doubled aerated cubes", BigSeq([0, 0, 2] + [0] * 18), BOTHTHREE_PREFIX),
    ]
    for label, gen_seq, expected in fixtures:
        got = cat_transform(gen_seq).entries
        if got != expected:
            raise _Mismatch(f"{label} mismatch: {got}")
    shifted = counting_sequence(ShiftedFull(leaf()), 14)
    if shifted.entries != SHIFTED_FULL_PREFIX:
        raise _Mismatch(f"shifted-full mismatch: {shifted.entries}")
    cats = catalan_numbers(20)
    if cats[19] != 1767263190 or catalan_c(7).entries != (1, 1, 2, 5, 14, 42, 132):
        raise _Mismatch("Catalan table mismatch")
    # Closed form at multiples of 3 for the two-generator length-3 family.
    both3 = cat_transform(BigSeq([0, 0, 2] + [0] * 18))
    for n in range(1, 22):
        expected_n = 2 ** (n // 3) * cats[n // 3 - 1] if n % 3 == 0 else 0
        if both3[n] != expected_n:
            raise _Mismatch(f"closed form fails at n={n}")
    for lengths, expected in (({2, 3}, LONGITUDINAL_23_PREFIX), ({4, 6}, LONGITUDINAL_46_PREFIX)):
        got = counting_sequence(Longitudinal(lengths), 14).entries
        if got != expected:
            raise _Mismatch(f"longitudinal {sorted(lengths)} mismatch: {got}")
    if motzkin_numbers(11) != list(MOTZKIN_PREFIX):
        raise _Mismatch("Motzkin prefix mismatch")
    return "all reference prefixes reproduced exactly"


def check_motzkin_identities(scope: str) -> CheckReport:
    n_max = 30 if scope == "fast" else 100
    return catalan_motzkin_identities(n_max)


def check_catalan_bounds(scope: str) -> CheckReport:
    return catalan_bounds_check(300)


def check_scaling_law(scope: str) -> str:
    n = 30
    base = [Fraction(1)] + [Fraction(0)] * (n - 1)
    plain = cat_transform_signed(base)
    for alpha in (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)):
        scaled_input = [alpha ** (k + 1) * base[k] for k in range(n)]
        lhs = cat_transform_signed(scaled_input)
        rhs = [alpha ** (k + 1) * plain[k] for k in range(n)]
        if lhs != rhs:
            raise _Mismatch(f"fails for alpha={alpha}")
    signed = cat_transform_signed([-1] + [0] * (n - 1))
    cats = catalan_numbers(n)
    if any(signed[k] != (-1) ** (k + 1) * cats[k] for k in range(n)):
        raise _Mismatch("signed identity fails")
    return "Cat(alpha^n a_n) = alpha^n Cat(a_n) to n=30"


def check_series_identities(scope: str) -> str:
    order = 32
    fixtures = [
        ("full magma", BigSeq([1] + [0] * (order - 1))),
        ("A007477 family", BigSeq([0, 1, 1] + [0] * (order - 3))),
        ("A253918 family", BigSeq([0, 1, 2] + [0] * (order - 3))),
        ("length-3 pair family", BigSeq([0, 0, 2] + [0] * (order - 3))),
        ("shifted full", generator_counting_sequence(ShiftedFull(leaf()), order)),
    ]
    for label, seq in fixtures:
        rep = series_identity_check(seq, order)
        if not rep.passed:
            raise _Mismatch(f"{label}: {rep.details}")
    return f"Psi = Psi^2 + Phi to order {order} on {len(fixtures)} fixtures"


def check_motzkin_paths(scope: str) -> str | CheckReport:
    specs = [
        PathSpec(14),
        PathSpec(14, forbidden_bigrams=("FU", "FF")),
        PathSpec(14, forbidden_bigrams=("FU", "FF"), color_multiplicity={"F": 2}),
    ]
    counts = [_path_counts(spec) for spec in specs]
    at4 = tuple(c[4] for c in counts)
    if at4 != (9, 3, 6):
        raise _Mismatch(f"length-4 counts (9,3,6) != {at4}")
    if counts[0] != motzkin_numbers(15):
        raise _Mismatch("plain counts != M_0..M_14")
    for spec, row in zip(specs, counts):
        if list(_equation_counts(spec)) != row:
            raise _Mismatch("equation counts != height DP at some length <= 14")
    for spec, row in zip(specs, counts):
        for n in range(11):
            listed = enumerate_paths(PathSpec(n, spec.forbidden_bigrams, spec.color_multiplicity))
            if len(listed) != row[n]:
                raise _Mismatch(f"enumeration count mismatch at length {n}")
    n_max = 14 if scope == "fast" else 1000
    r1 = crosscheck_subgroupoid(
        PathSpec(0, forbidden_bigrams=("FU", "FF")),
        FiniteSet({_two(), right_comb(3)}),
        offset=2,
        n_max=n_max,
    )
    if not r1.passed:
        return r1
    r2 = crosscheck_subgroupoid(
        PathSpec(0, forbidden_bigrams=("FU", "FF"), color_multiplicity={"F": 2}),
        FiniteSet({_two(), left_comb(3), right_comb(3)}),
        offset=2,
        n_max=n_max,
    )
    if not r2.passed:
        return r2
    return (
        f"counts 9/3/6, equation = height DP to length 14 and both subgroupoid "
        f"crosschecks to n={n_max}"
    )


def _oracle_sets(scope: str) -> tuple[list[frozenset[Term]], int]:
    if scope == "fast":
        pool = list(iter_terms_up_to(3))
        sets = [frozenset({t}) for t in pool]
        sets += [frozenset(c) for c in combinations(pool, 2)]
        return sets, 10
    pool = list(iter_terms_up_to(4))
    sets = [frozenset({t}) for t in pool]
    sets += [frozenset(c) for c in combinations(pool, 2)]
    sets += [frozenset(c) for c in list(combinations(pool, 3))[:15]]
    return sets, 12


def check_oracle_equivalence(scope: str) -> str:
    sets, horizon = _oracle_sets(scope)
    for gens in sets:
        by_enum = brute_count(gens, horizon)
        by_counting = counting_sequence(FiniteSet(gens), horizon)
        if by_enum != by_counting:
            raise _Mismatch(
                f"mismatch for generators {sorted(gens)}: {by_enum.entries} vs {by_counting.entries}"
            )
    return f"{len(sets)} generator sets agree with enumeration to n={horizon}"


def check_recurrence_vs_schoolbook(scope: str) -> str:
    """A longitudinal family has no finite generator histogram to transform:
    its counts are pinned in :func:`check_sequence_fixtures`, and here only
    its decimal texts are compared, with the ``str`` of its int counts."""
    horizon = 300 if scope == "fast" else 1000
    families: list[GenFamily] = [ShiftedFull(_shift_term(k)) for k in (1, 2, 3)]
    families.append(FiniteSet({_two(), left_comb(3), right_comb(3)}))
    families += [Longitudinal({2, 3}), FiniteSet({leaf()})]
    for family in families:
        fast = counting_sequence(family, horizon)
        if isinstance(family, Longitudinal):
            reference = fast
        else:
            reference = cat_transform(generator_counting_sequence(family, horizon))
        texts = list(counting_texts(family, horizon))
        with unlimited_int_digits():
            expected = [str(v) for v in reference]
        first = next(
            (
                n
                for n in range(1, horizon + 1)
                if fast[n] != reference[n] or texts[n - 1] != expected[n - 1]
            ),
            None,
        )
        if first is not None:
            raise _Mismatch(
                f"{format_family(family)}: recurrence or its decimal texts and the "
                f"reference counts differ at n={first}",
                first,
            )
    return (
        f"{len(families) - 1} families: recurrence equals the schoolbook transform, and "
        f"the decimal texts of all {len(families)} equal their counts, to n={horizon}"
    )


def check_multinomial_formula(scope: str) -> str:
    fixtures = [
        [2],
        [2, 3],
        [3, 3],
        [2, 3, 4],
        [4],
        [2, 2],
    ]
    for alphas in fixtures:
        hist = [0] * 14
        for a in alphas:
            hist[a - 1] += 1
        expected = cat_transform(BigSeq(hist))
        for n in range(1, 15):
            if multinomial_count(alphas, n) != expected[n]:
                raise _Mismatch(f"alphas={alphas}: mismatch at n={n}", n)
    return f"{len(fixtures)} length profiles match the transform to n=14"


def check_longitudinal_asymptotes(scope: str) -> str:
    a2 = longitudinal_asymptote({2})
    a3 = longitudinal_asymptote({3})
    a46 = longitudinal_asymptote({4, 6})
    if a2.per_residue != (Fraction(4, 5), Fraction(1, 5)):
        raise _Mismatch(f"p=2 gives {a2.per_residue}")
    if a3.per_residue != (Fraction(16, 21), Fraction(4, 21), Fraction(1, 21)):
        raise _Mismatch(f"p=3 gives {a3.per_residue}")
    if a46.p != 2 or a46.per_residue != a2.per_residue:
        raise _Mismatch("gcd reduction failed for {4,6}")
    for p in range(1, 17):
        asym = longitudinal_asymptote({p})
        if asym.mean() != Fraction(1, p):
            raise _Mismatch(f"mean of residues != 1/{p}")
    return "exact residue values and mean 1/p for p=1..16"


def check_longitudinal_convergence(scope: str) -> str | CheckReport:
    if scope == "fast":
        plan = [({2}, 300, 5e-3), ({3}, 300, 5e-3)]
    else:
        plan = [({2}, 2000, 2e-3), ({3}, 2000, 2e-3), ({4}, 2000, 2e-3), ({4, 6}, 2000, 2e-3)]
    for lengths, n_max, tol in plan:
        rep = longitudinal_convergence_check(lengths, n_max, tol)
        if not rep.passed:
            return rep
    return f"{len(plan)} families within tolerance of their exact asymptotes"


def check_nullity_criterion(scope: str) -> str:
    two = _two()
    null_fixtures = [
        frozenset({two}),
        frozenset({two, right_comb(3)}),
        frozenset({two, left_comb(3), right_comb(3)}),
        frozenset({left_comb(3), right_comb(3)}),
        frozenset({two, left_comb(4)}),
    ]
    for gens in null_fixtures:
        if fg_null_density_test(gens) is not NullDensityVerdict.NULL_BY_THEOREM:
            raise _Mismatch(f"{sorted(gens)} not certified null")
    example16 = frozenset({right_comb(3)} | {product(two, right_comb(k)) for k in range(2, 17)})
    if fg_null_density_test(example16) is not NullDensityVerdict.INCONCLUSIVE:
        raise _Mismatch("rank-16 example should be inconclusive")
    if fg_null_density_test({leaf()}) is not NullDensityVerdict.INCONCLUSIVE:
        raise _Mismatch("<1> should be inconclusive")
    # Consistency: certified-null families have tiny growth ratio at n=300.
    cats = catalan_c(300)
    for gens in null_fixtures:
        seq = counting_sequence(FiniteSet(gens), 300)
        g_n = growth(seq)
        g_m = growth(cats)
        ratio = Fraction(g_n[300], g_m[300])
        if ratio >= Fraction(1, 100):
            raise _Mismatch(f"{sorted(gens)} ratio at 300 is {float(ratio):.3f} >= 0.01")
    return "verdicts match the rank/length bound; certified families are < 0.01 at n=300"


def check_density_algebra(scope: str) -> CheckReport:
    return density_algebra_checks()


def check_semigroup_info(scope: str) -> str:
    cases = [
        ({3, 5}, 1, frozenset({3, 5}), 7),
        ({4, 6}, 2, frozenset({2, 3}), 1),
        ({1}, 1, frozenset({1}), -1),
        ({6, 10, 15}, 1, frozenset({6, 10, 15}), 29),
    ]
    for lengths, g, reduced, frob in cases:
        info = semigroup_info(lengths)
        if (info.gcd, info.reduced_generators, info.frobenius) != (g, reduced, frob):
            raise _Mismatch(f"{sorted(lengths)} -> gcd={info.gcd}, F={info.frobenius}")
    return f"{len(cases)} gcd/Frobenius cases verified"


def check_shifted_minimality(scope: str) -> str:
    for shift in (leaf(), _two()):
        n_max = 7
        family = ShiftedFull(shift)
        gen_levels = minimal_generating_up_to(family, n_max)
        expected = generator_counting_sequence(family, n_max)
        for k in range(1, n_max + 1):
            if len(gen_levels[k]) != expected[k]:
                raise _Mismatch(
                    f"shift of length {shift.length}: level {k} has "
                    f"{len(gen_levels[k])} minimal generators, expected {expected[k]}",
                    k,
                )
    return "M+a is its own minimal generating set at small n"


def check_density_estimates(scope: str) -> tuple[str, dict]:
    horizon = 300 if scope == "fast" else 5000
    observed = {}
    for k in (1, 2, 3):
        est = estimate_density(ShiftedFull(_shift_term(k)), FiniteSet({leaf()}), horizon, precision=6)
        if est.value is None:
            raise _Mismatch(f"shift {k}: no point estimate")
        observed[k] = est.value
        if scope == "fast":
            lo, hi = DENSITY_WINDOWS_FAST[k]
        else:
            _, lo, hi = DENSITY_WINDOWS[k]
        if not (lo <= est.value <= hi):
            raise _Mismatch(f"shift {k}: estimate {est.value} outside [{lo}, {hi}] at n={horizon}")
    vals = [observed[k] for k in (1, 2, 3)]
    if not (vals[0] > vals[1] > vals[2]):
        raise _Mismatch("estimates not decreasing in shift length")
    details = ", ".join(
        f"shift {k}: {str(observed[k])[:9]} (reference {DENSITY_WINDOWS[k][0]})" for k in (1, 2, 3)
    )
    return f"n={horizon}: {details}", {
        "horizon": horizon,
        "estimates": {k: str(observed[k]) for k in observed},
        "references": {k: DENSITY_WINDOWS[k][0] for k in DENSITY_WINDOWS},
    }


def check_oscillation_detection(scope: str) -> str:
    for lengths, n_max in (({2}, 300), ({9}, 100)):
        est = estimate_density(Longitudinal(lengths), FiniteSet({leaf()}), n_max, precision=6)
        a = longitudinal_asymptote(lengths)
        if est.status != "oscillating" or est.oscillation_period != a.p:
            raise _Mismatch(
                f"period-{a.p} family reported {est.status} (period {est.oscillation_period})"
            )
        for r, (got, exact) in enumerate(zip(est.per_residue, a.per_residue)):
            target = Decimal(exact.numerator) / Decimal(exact.denominator)
            if abs(got - target) > Decimal("0.01"):
                raise _Mismatch(f"period {a.p}: residue {r} estimate {got} far from {target}")
    return "periods 2 and 9 detected with residue estimates within 0.01 of the exact asymptotes"


CHECKS: list[tuple[str, Callable[[str], str | tuple[str, dict] | CheckReport]]] = [
    ("sequence-fixtures", check_sequence_fixtures),
    ("motzkin-identities", check_motzkin_identities),
    ("catalan-bounds", check_catalan_bounds),
    ("scaling-law", check_scaling_law),
    ("series-identities", check_series_identities),
    ("motzkin-paths", check_motzkin_paths),
    ("oracle-equivalence", check_oracle_equivalence),
    ("recurrence-vs-schoolbook", check_recurrence_vs_schoolbook),
    ("multinomial-formula", check_multinomial_formula),
    ("longitudinal-asymptotes", check_longitudinal_asymptotes),
    ("longitudinal-convergence", check_longitudinal_convergence),
    ("nullity-criterion", check_nullity_criterion),
    ("density-algebra", check_density_algebra),
    ("semigroup-info", check_semigroup_info),
    ("shifted-minimality", check_shifted_minimality),
    ("oscillation-detection", check_oscillation_detection),
    ("density-estimates", check_density_estimates),
]


def verify_all(scope: str) -> list[CheckReport]:
    """Run every registered check at the given scope ('fast' or 'full').  A
    check that passes returns its details text (with its data), or a library
    check's report, pass or fail, which keeps its verdict."""
    if scope not in ("fast", "full"):
        raise ValueError(f"scope must be 'fast' or 'full', got {scope!r}")
    reports = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            report = fn(scope)
        except _Mismatch as miss:
            report = CheckReport(name, False, *miss.args)
        except Exception as exc:  # a crashing check is a failing check
            report = CheckReport(name, False, f"raised {type(exc).__name__}: {exc}")
        if not isinstance(report, CheckReport):
            details, data = report if isinstance(report, tuple) else (report, None)
            report = CheckReport(name, True, details, data=data)
        # A check may return a library report under that report's own name.
        report.name = name
        report.data.setdefault("elapsed_s", round(time.perf_counter() - start, 3))
        reports.append(report)
    return reports
