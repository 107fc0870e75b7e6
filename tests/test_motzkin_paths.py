"""Motzkin path counting, enumeration, and subgroupoid crosschecks."""

import copy
import hashlib
import math
import pickle
from itertools import product

import pytest

from freemagma import errors, motzkin_paths
from freemagma.motzkin_paths import _equation_counts, _path_counts, _path_equation
from freemagma import (
    CapacityError,
    FiniteSet,
    PathSpec,
    catalan_numbers,
    count_paths,
    crosscheck_subgroupoid,
    enumerate_paths,
    leaf,
    left_comb,
    right_comb,
)

TWO = leaf() + leaf()
PRUNED = ("FU", "FF")


def motzkin_via_binomials(n):
    # Independent oracle: M_n = sum_k binom(n, 2k) C_k.
    cats = catalan_numbers(n // 2 + 1)
    return sum(math.comb(n, 2 * k) * cats[k] for k in range(n // 2 + 1))


def dict_count_paths(spec):
    """Reference DP over (height, last step) -> weighted count, as
    count_paths once ran it."""
    n = spec.length
    if n == 0:
        return 1
    mult = {s: spec.multiplicity(s) for s in "UDF"}
    delta = {"U": 1, "D": -1, "F": 0}
    states = {(0, None): 1}
    for pos in range(n):
        remaining_after = n - pos - 1
        new_states = {}
        for (h, last), w in states.items():
            for step in "UDF":
                if last is not None and (last, step) in spec.forbidden_bigrams:
                    continue
                nh = h + delta[step]
                if nh < 0 or nh > remaining_after:
                    continue
                key = (nh, step)
                new_states[key] = new_states.get(key, 0) + w * mult[step]
        states = new_states
    return sum(w for (h, _), w in states.items() if h == 0)


def replay_heights(path):
    heights = [0]
    for ch in path:
        if ch.isdigit():
            continue
        heights.append(heights[-1] + {"U": 1, "D": -1, "F": 0}[ch])
    return heights


class TestCountPaths:
    def test_length_four_fixtures(self):
        assert count_paths(PathSpec(4)) == 9
        assert count_paths(PathSpec(4, forbidden_bigrams=PRUNED)) == 3
        assert (
            count_paths(
                PathSpec(4, forbidden_bigrams=PRUNED, color_multiplicity={"F": 2})
            )
            == 6
        )

    def test_tiny_lengths(self):
        assert count_paths(PathSpec(0)) == 1
        assert count_paths(PathSpec(1)) == 1
        assert count_paths(PathSpec(2)) == 2

    @pytest.mark.parametrize("n", range(26))
    def test_plain_counts_are_motzkin(self, n):
        assert count_paths(PathSpec(n)) == motzkin_via_binomials(n)

    @pytest.mark.parametrize(
        "forbid, colors",
        [
            ((), {}),
            (PRUNED, {}),
            (PRUNED, {"F": 2}),
            (("UU", "DU"), {"U": 2, "D": 3}),
        ],
    )
    def test_matches_dict_dp(self, forbid, colors):
        for n in range(61):
            spec = PathSpec(n, forbidden_bigrams=forbid, color_multiplicity=colors)
            assert count_paths(spec) == dict_count_paths(spec), n

    def test_matches_dict_dp_at_length_1000(self):
        spec = PathSpec(1000, forbidden_bigrams=PRUNED, color_multiplicity={"F": 2})
        assert count_paths(spec) == dict_count_paths(spec)

    @pytest.mark.parametrize("colors", [{}, {"U": 2, "D": 3, "F": 1}])
    def test_one_pass_counts_every_shorter_length(self, colors):
        # Every set of forbidden bigrams: the length-30 pass yields the
        # count of each length m <= 30 as a length-m DP would.
        bigrams = [a + b for a, b in product("UDF", repeat=2)]
        for mask in range(1 << len(bigrams)):
            forbid = [bg for i, bg in enumerate(bigrams) if mask >> i & 1]
            counts = _path_counts(PathSpec(30, forbid, colors))
            assert len(counts) == 31
            for m, got in enumerate(counts):
                assert got == dict_count_paths(PathSpec(m, forbid, colors)), (forbid, m)

    def test_bicolored_flats_length_two(self):
        # FF in four colorings plus UD.
        assert count_paths(PathSpec(2, color_multiplicity={"F": 2})) == 5

    def test_odd_length_pure_updown_is_zero(self):
        spec = PathSpec(5, forbidden_bigrams=(), color_multiplicity={})
        # Forbid flats entirely by multiplicity... not expressible; instead
        # check Dyck-style: forbidding FF/FU/UF/DF leaves F unusable inside.
        assert count_paths(PathSpec(3, forbidden_bigrams=("UF", "DF", "FF", "FU", "FD"))) == 0


def same_equation(got, want):
    """Equal up to the sign of the whole equation."""
    return got == want or got == tuple([-c for c in poly] for poly in want)


class TestPathEquation:
    """count_paths solves alpha*M^2 + beta*M + gamma = 0, derived from the
    spec; the height DP is the reference."""

    @pytest.mark.parametrize("colors", [{}, {"U": 2, "D": 3, "F": 1}])
    def test_equals_height_dp_on_every_bigram_set(self, colors):
        bigrams = [a + b for a, b in product("UDF", repeat=2)]
        for mask in range(1 << len(bigrams)):
            forbid = [bg for i, bg in enumerate(bigrams) if mask >> i & 1]
            spec = PathSpec(30, forbid, colors)
            want = _path_counts(spec)
            assert _equation_counts(spec) == want, forbid
            assert count_paths(spec) == want[-1], forbid

    def test_derived_equations_are_pinned(self):
        # alpha, beta and gamma of every bigram set under both colourings, in
        # the mask order above, signs included.
        bigrams = [a + b for a, b in product("UDF", repeat=2)]
        eqs = []
        for colors in ({}, {"U": 2, "D": 3, "F": 1}):
            for mask in range(1 << len(bigrams)):
                forbid = [bg for i, bg in enumerate(bigrams) if mask >> i & 1]
                eqs.append(tuple(map(list, _path_equation(PathSpec(0, forbid, colors)))))
        digest = hashlib.sha256(repr(eqs).encode()).hexdigest()
        assert digest == "2800be3c7a41d40111bc076cb78a71909e429d81d357ad9042ab2028896046bb"

    def test_pruned_bicoloured_equation_loses_its_common_factor(self):
        # Elimination gives (2x^3 + x^2)M^2 - (2x + 1)M + (2x + 1)^2 = 0;
        # without the common factor 2x + 1 it is x^2 M^2 - M + 1 + 2x = 0.
        spec = PathSpec(0, PRUNED, {"F": 2})
        assert same_equation(_path_equation(spec), ([0, 0, 1], [-1], [1, 2]))

    def test_plain_motzkin_equation(self):
        assert same_equation(_path_equation(PathSpec(0)), ([0, 0, 1], [-1, 1], [1]))

    def test_df_forbidden(self):
        # By hand: x^2(1 - x)M^2 - (1 - x)M + 1 = 0, with no degenerate
        # factor from cleared denominators.
        spec = PathSpec(40, ("DF",))
        assert same_equation(_path_equation(spec), ([0, 0, 1, -1], [-1, 1], [1]))
        assert _equation_counts(spec) == _path_counts(spec)

    def test_rational_class(self):
        # U must be followed by D: paths are words in F and UD, counted by
        # the Fibonacci numbers, and M = 1/(1 - x - x^2) has alpha = 0.
        spec = PathSpec(40, ("UF", "UU"))
        assert same_equation(_path_equation(spec), ([], [1, -1, -1], [-1]))
        fib = [1, 1]
        while len(fib) < 41:
            fib.append(fib[-1] + fib[-2])
        assert _equation_counts(spec) == fib == _path_counts(spec)


class TestEnumeratePaths:
    def test_length_four_pruned_exact_set(self):
        got = set(enumerate_paths(PathSpec(4, forbidden_bigrams=PRUNED)))
        assert got == {"UUDD", "UDUD", "UFDF"}

    def test_length_zero_and_one(self):
        assert enumerate_paths(PathSpec(0)) == [""]
        assert enumerate_paths(PathSpec(1)) == ["F"]

    def test_bicolored_annotations(self):
        got = set(enumerate_paths(PathSpec(2, color_multiplicity={"F": 2})))
        assert got == {"F1F1", "F1F2", "F2F1", "F2F2", "UD"}

    @pytest.mark.parametrize(
        "spec",
        [
            PathSpec(0),
            PathSpec(6),
            PathSpec(7, forbidden_bigrams=PRUNED),
            PathSpec(6, forbidden_bigrams=PRUNED, color_multiplicity={"F": 2}),
            PathSpec(5, color_multiplicity={"U": 2, "F": 3}),
            PathSpec(8, forbidden_bigrams=("UD",)),
        ],
    )
    def test_enumeration_count_matches_dp(self, spec):
        assert len(enumerate_paths(spec)) == count_paths(spec)

    def test_heights_never_negative(self):
        for path in enumerate_paths(PathSpec(7, color_multiplicity={"F": 2})):
            heights = replay_heights(path)
            assert min(heights) >= 0
            assert heights[-1] == 0

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_paths(PathSpec(21))

    def test_long_single_path(self):
        # U must be followed by D, and F by D, which cannot follow it at
        # height 0: one path at every length, listed without a length cap or
        # a recursion limit.
        forbid = ("UU", "FF", "FU", "UF")
        assert enumerate_paths(PathSpec(21, forbid)) == ["UD" * 10 + "F"]
        assert enumerate_paths(PathSpec(3001, forbid)) == ["UD" * 1500 + "F"]
        assert enumerate_paths(PathSpec(3000, forbid)) == ["UD" * 1500]

    def test_completion_table_priced_before_it_is_built(self, monkeypatch):
        spec = PathSpec(3001, ("UU", "FF", "FU", "UF"))
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 100_000)

        def refuse(spec):
            raise AssertionError("the completion table was built over the budget")

        monkeypatch.setattr(motzkin_paths, "_completions", refuse)
        with pytest.raises(CapacityError, match="listing 1 paths would take an estimated"):
            enumerate_paths(spec)

    def test_many_colours_refused_before_rendering(self):
        # A billion colours of F: refused from the count and the width of
        # the widest rendered step, before any step text is made.
        with pytest.raises(CapacityError, match="listing 1,000,000,000 paths"):
            enumerate_paths(PathSpec(1, color_multiplicity={"F": 10**9}))

    @pytest.mark.parametrize("forbid", [(), PRUNED, ("UD", "DU"), ("FU", "UF", "DD")])
    def test_listing_order_is_lexicographic(self, forbid):
        # Depth-first over U, D, F is the order of the words over U < D < F.
        paths = enumerate_paths(PathSpec(9, forbid, {"F": 2}))
        rank = {"U": "0", "D": "1", "F": "2"}
        keys = ["".join(rank.get(ch, ch) for ch in path) for path in paths]
        assert keys == sorted(keys)
        assert len(set(paths)) == len(paths) == count_paths(PathSpec(9, forbid, {"F": 2}))

    def test_count_cap_checked_before_listing(self, monkeypatch):
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 100 * motzkin_paths.PATH_BYTES)
        assert len(enumerate_paths(PathSpec(6))) == 51
        real_count = motzkin_paths.count_paths

        def refuse(*args):
            raise AssertionError("paths were listed over the budget")

        def count_then_refuse_listing(spec):
            count = real_count(spec)
            # The listing reads the step colours first.
            monkeypatch.setattr(PathSpec, "multiplicity", refuse)
            return count

        monkeypatch.setattr(motzkin_paths, "count_paths", count_then_refuse_listing)
        with pytest.raises(CapacityError, match="listing 2,188 paths would take an estimated"):
            enumerate_paths(PathSpec(10))


class TestPathSpecValidation:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            PathSpec(3, forbidden_bigrams=("FX",))
        with pytest.raises(ValueError):
            PathSpec(3, color_multiplicity={"Z": 2})
        with pytest.raises(ValueError):
            PathSpec(3, color_multiplicity={"F": 0})
        with pytest.raises(ValueError):
            PathSpec(-1)

    def test_rejects_non_integral_sizes(self):
        with pytest.raises(TypeError):
            PathSpec(4.9)
        with pytest.raises(TypeError):
            PathSpec(4, (), {"F": 2.5})
        assert PathSpec(4, (), {"F": 2}).color_multiplicity == (("F", 2),)

    def test_is_a_frozen_value(self):
        spec = PathSpec(4, ("FU",), {"F": 2})
        with pytest.raises(AttributeError):
            spec.length = 5
        same = PathSpec(4, [("F", "U")], [("F", 2)])
        assert spec == same and hash(spec) == hash(same)
        assert spec != PathSpec(5, ("FU",), {"F": 2})
        assert copy.deepcopy(spec) == pickle.loads(pickle.dumps(spec)) == spec
        assert repr(PathSpec(2)) == (
            "PathSpec(length=2, forbidden_bigrams=frozenset(), color_multiplicity=())"
        )

    def test_bigram_forms_equivalent(self):
        a = PathSpec(4, forbidden_bigrams=("FU", "FF"))
        b = PathSpec(4, forbidden_bigrams=(("F", "U"), ("F", "F")))
        assert a == b

    def test_multiplicity_lookup(self):
        spec = PathSpec(4, color_multiplicity={"F": 2})
        assert spec.multiplicity("F") == 2
        assert spec.multiplicity("U") == 1


class TestCrosschecks:
    def test_two_threeplus_family(self):
        report = crosscheck_subgroupoid(
            PathSpec(0, forbidden_bigrams=PRUNED),
            FiniteSet({TWO, right_comb(3)}),
            offset=2,
            n_max=16,
        )
        assert report.passed, report.details

    def test_bicolored_family(self):
        report = crosscheck_subgroupoid(
            PathSpec(0, forbidden_bigrams=PRUNED, color_multiplicity={"F": 2}),
            FiniteSet({TWO, left_comb(3), right_comb(3)}),
            offset=2,
            n_max=14,
        )
        assert report.passed, report.details

    def test_one_path_count_pass(self, monkeypatch):
        calls = []
        real = motzkin_paths._path_counts
        monkeypatch.setattr(
            motzkin_paths, "_path_counts", lambda spec: calls.append(spec.length) or real(spec)
        )
        report = crosscheck_subgroupoid(
            PathSpec(0, forbidden_bigrams=PRUNED), FiniteSet({TWO, right_comb(3)}), 2, 300
        )
        assert report.passed, report.details
        assert calls == [298]

    def test_horizon_below_offset_counts_zero(self):
        # Every length n - 4 is negative, so every path count is 0.
        assert crosscheck_subgroupoid(PathSpec(0), FiniteSet({right_comb(3)}), 4, 2).passed
        report = crosscheck_subgroupoid(PathSpec(0), FiniteSet({TWO}), 4, 3)
        assert not report.passed
        assert report.first_failure == 2
        assert report.details == "finite:[(1+1)]: path count 0 != |N|_2 = 1 (offset 4)"

    def test_mismatch_reports_first_divergence(self):
        report = crosscheck_subgroupoid(
            PathSpec(0),  # plain Motzkin does not count this family
            FiniteSet({TWO, right_comb(3)}),
            offset=2,
            n_max=10,
        )
        assert not report.passed
        assert report.first_failure == 4  # M_2 = 2 vs |N|_4 = 1
