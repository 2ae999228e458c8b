"""Tests for CDF and statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    Cdf,
    aggregate,
    confidence_interval,
    mean_stddev,
    ordered_sum,
    paired_confidence_interval,
    paired_deltas,
    sign_counts,
    win_rate,
)


class TestOrderedSum:
    def test_adds_left_to_right(self):
        # Compensated summation (Python 3.12's builtin sum) gives 1.0.
        assert ordered_sum([0.1] * 10) == 0.9999999999999999

    def test_matches_a_plain_loop_and_starts_at_int_zero(self):
        values = [1e16, 1.0, -1e16, 3.5, 2]
        acc = 0
        for value in values:
            acc += value
        assert ordered_sum(values) == acc
        assert ordered_sum(iter(values)) == acc
        assert ordered_sum([]) == 0 and type(ordered_sum([])) is int


class TestConfidenceInterval:
    def test_single_sample_collapses(self):
        assert confidence_interval([4.0]) == (4.0, 4.0)

    def test_known_t_interval(self):
        # n=4, mean=5, sample stddev=2 -> half width 3.182 * 2 / 2.
        low, high = confidence_interval([3.0, 4.0, 6.0, 7.0])
        half = 3.182 * math.sqrt(10.0 / 3.0 / 4.0)
        assert low == pytest.approx(5.0 - half)
        assert high == pytest.approx(5.0 + half)

    def test_wider_confidence_is_wider(self):
        values = [1.0, 2.0, 4.0, 8.0, 9.0]
        for lo, hi in zip(
            (0.90, 0.95), (0.95, 0.99)
        ):
            llo, lhi = confidence_interval(values, confidence=lo)
            hlo, hhi = confidence_interval(values, confidence=hi)
            assert hlo < llo and lhi < hhi

    def test_large_samples_use_normal_quantile(self):
        values = [float(v % 7) for v in range(40)]
        low, high = confidence_interval(values)
        mean = sum(values) / len(values)
        assert low < mean < high

    def test_fallback_past_table_tracks_student_t(self):
        # df > 30 uses a Cornish-Fisher correction, not the bare normal
        # quantile: at n=32 the implied critical value must be ~t(31)
        # = 2.040 (z = 1.960 would under-cover by ~4%).
        values = [0.0, 10.0] * 16  # n=32, sample stddev independent of t
        low, high = confidence_interval(values)
        mean = sum(values) / len(values)
        s = math.sqrt(sum((v - mean) ** 2 for v in values) / 31)
        implied_t = (high - mean) / (s / math.sqrt(32))
        assert 2.03 < implied_t < 2.05
        # And the implied critical value shrinks monotonically with df.
        wider = confidence_interval(values[:30])
        assert (wider[1] - wider[0]) > (high - low)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least one"):
            confidence_interval([])
        with pytest.raises(ValueError, match="confidence"):
            confidence_interval([1.0, 2.0], confidence=0.5)

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=30))
    def test_interval_brackets_the_mean(self, values):
        low, high = confidence_interval(values)
        mean = sum(values) / len(values)
        assert low <= mean <= high


class TestAggregate:
    def test_fields_and_values(self):
        row = aggregate([4.0, 2.0, 6.0])
        assert row["n"] == 3
        assert row["mean"] == 4.0
        assert row["median"] == 4.0
        assert row["min"] == 2.0 and row["max"] == 6.0
        assert row["ci_low"] <= row["mean"] <= row["ci_high"]

    def test_order_insensitive_bit_identical(self):
        # Sweep cells complete in arbitrary order; aggregates must not
        # depend on it, down to the last float bit.
        values = [0.1, 0.7, 0.30000000000000004, 12.5, 3.3]
        assert aggregate(values) == aggregate(list(reversed(values)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate([])


class TestVarianceConventions:
    """The two stddev conventions are deliberate and must stay pinned
    to their documented users: population (ddof=0) for the peering
    rule, sample (ddof=1) everywhere cross-seed statistics are made."""

    VALUES = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]

    def test_mean_stddev_stays_population(self):
        _mean, std = mean_stddev(self.VALUES)
        assert std == pytest.approx(2.0)  # ddof=0

    def test_aggregate_reports_sample_stddev(self):
        row = aggregate(self.VALUES)
        n, mean = len(self.VALUES), row["mean"]
        sample = math.sqrt(
            sum((v - mean) ** 2 for v in self.VALUES) / (n - 1)
        )
        assert row["stddev"] == pytest.approx(sample)  # ddof=1, not 2.0
        assert row["stddev"] > 2.0

    def test_aggregate_stddev_matches_its_own_interval(self):
        # The stddev a report prints must be the one its CI was built
        # from: reconstruct the t-interval from the reported fields.
        row = aggregate(self.VALUES)
        half = 2.365 * row["stddev"] / math.sqrt(row["n"])  # t(7)
        assert row["ci_low"] == pytest.approx(row["mean"] - half)
        assert row["ci_high"] == pytest.approx(row["mean"] + half)


class TestPairedHelpers:
    def test_paired_deltas(self):
        assert paired_deltas([9.0, 13.0], [10.0, 12.0]) == [-1.0, 1.0]

    def test_paired_deltas_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="equal length"):
            paired_deltas([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least one pair"):
            paired_deltas([], [])

    def test_paired_interval_is_interval_of_deltas(self):
        xs, ys = [9.0, 13.0, 10.0, 12.0], [10.0, 12.0, 11.0, 13.0]
        assert paired_confidence_interval(xs, ys) == confidence_interval(
            paired_deltas(xs, ys)
        )

    def test_paired_interval_tighter_than_unpaired_under_crn(self):
        # Common random numbers: a constant offset plus shared per-seed
        # noise.  Pairing cancels the noise entirely.
        noise = [0.0, 10.0, 20.0, 30.0]
        ys = [50.0 + n for n in noise]
        xs = [48.0 + n for n in noise]
        low, high = paired_confidence_interval(xs, ys)
        assert high - low == pytest.approx(0.0)
        xlow, xhigh = confidence_interval(xs)
        assert (xhigh - xlow) > 10.0

    def test_sign_counts(self):
        assert sign_counts([-1.0, 1.0, -1.0, -1.0]) == (3, 0, 1)
        assert sign_counts([0.0, 0.0]) == (0, 2, 0)
        assert sign_counts([]) == (0, 0, 0)

    def test_win_rate_half_tie_symmetry(self):
        deltas = [-1.0, 0.0, 2.0, -3.0]
        mirrored = [-d for d in deltas]
        assert win_rate(deltas) + win_rate(mirrored) == 1.0
        assert win_rate(deltas) == 0.625

    def test_win_rate_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one pair"):
            win_rate([])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        st.permutations(range(30)),
    )
    def test_win_rate_order_invariant(self, deltas, order):
        shuffled = [deltas[i] for i in order if i < len(deltas)]
        assert win_rate(shuffled) == win_rate(deltas)


class TestMeanStddev:
    def test_empty(self):
        assert mean_stddev([]) == (0.0, 0.0)

    def test_single_value(self):
        mean, std = mean_stddev([5.0])
        assert mean == 5.0
        assert std == 0.0

    def test_known_values(self):
        mean, std = mean_stddev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert mean == 5.0
        assert std == pytest.approx(2.0)


class TestCdf:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_percentiles(self):
        cdf = Cdf(range(1, 101))
        assert cdf.percentile(0.5) == 50
        assert cdf.percentile(1.0) == 100
        assert cdf.percentile(0.0) == 1
        assert cdf.minimum == 1
        assert cdf.maximum == 100

    def test_percentile_bounds_checked(self):
        cdf = Cdf([1.0])
        with pytest.raises(ValueError):
            cdf.percentile(1.5)

    def test_percentile_is_the_nearest_rank(self):
        cdf = Cdf([4, 1, 3, 2])
        assert [cdf.percentile(f) for f in (0.25, 0.5, 0.6, 1.0)] == [1, 2, 3, 4]

    def test_points_monotone(self):
        cdf = Cdf([3, 1, 2])
        points = list(cdf.points())
        assert points == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]

    def test_percentiles_at_the_paper_fractions(self):
        cdf = Cdf(range(10))
        fractions = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
        assert [cdf.percentile(f) for f in fractions] == [0, 2, 4, 7, 8, 9]

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=100))
    def test_percentile_monotone(self, values):
        cdf = Cdf(values)
        fractions = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        results = [cdf.percentile(f) for f in fractions]
        assert results == sorted(results)

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=100))
    def test_mean_between_min_max(self, values):
        cdf = Cdf(values)
        assert cdf.minimum <= cdf.mean <= cdf.maximum or math.isclose(
            cdf.minimum, cdf.maximum
        )
