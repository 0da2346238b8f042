"""P² streaming quantile estimation (ISSUE 6 tentpole, part 3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObservabilityError
from repro.obs.quantiles import DEFAULT_QUANTILES, P2Quantile, QuantileDigest


class TestP2Quantile:
    def test_target_validation(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ObservabilityError):
                P2Quantile(bad)

    def test_empty_has_no_value(self):
        assert P2Quantile(0.5).value is None

    def test_small_buffer_is_exact_order_statistic(self):
        q = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            q.observe(v)
        assert q.value == pytest.approx(3.0)  # exact median of {1,3,5}
        assert q.count == 3

    def test_single_observation(self):
        q = P2Quantile(0.99)
        q.observe(7.0)
        assert q.value == pytest.approx(7.0)

    @pytest.mark.parametrize("target", [0.5, 0.9, 0.95, 0.99])
    def test_accuracy_on_uniform(self, target):
        rng = random.Random(7)
        q = P2Quantile(target)
        values = [rng.random() for _ in range(20_000)]
        for v in values:
            q.observe(v)
        values.sort()
        exact = values[int(target * len(values))]
        assert q.value == pytest.approx(exact, abs=0.02)

    def test_accuracy_on_gaussian(self):
        rng = random.Random(11)
        q = P2Quantile(0.95)
        values = [rng.gauss(100.0, 15.0) for _ in range(20_000)]
        for v in values:
            q.observe(v)
        values.sort()
        exact = values[int(0.95 * len(values))]
        assert q.value == pytest.approx(exact, rel=0.02)

    def test_estimate_stays_inside_observed_range(self):
        rng = random.Random(3)
        q = P2Quantile(0.99)
        lo, hi = float("inf"), float("-inf")
        for _ in range(5_000):
            v = rng.expovariate(1.0)
            lo, hi = min(lo, v), max(hi, v)
            q.observe(v)
        assert lo <= q.value <= hi

    def test_reset_forgets_observations(self):
        q = P2Quantile(0.5)
        for v in range(100):
            q.observe(float(v))
        q.reset()
        assert q.count == 0 and q.value is None
        q.observe(1.0)
        assert q.value == pytest.approx(1.0)

    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        max_size=60),
        split=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_observe_and_observe_many_are_bit_identical(self, values, split):
        """Per-value ``observe``, one ``observe_many`` burst and a burst
        split at an arbitrary point all land on the same bits."""
        for target in DEFAULT_QUANTILES + (0.1, 0.25, 0.75):
            single, burst, halves = (P2Quantile(target) for _ in range(3))
            for v in values:
                single.observe(v)
            burst.observe_many(values)
            halves.observe_many(values[:split])
            halves.observe_many(values[split:])
            expected = single.value
            for other in (burst, halves):
                assert other.count == single.count
                if expected is None:
                    assert other.value is None
                else:
                    assert other.value.hex() == expected.hex(), target


class TestQuantileDigest:
    def test_default_targets(self):
        assert QuantileDigest().targets == DEFAULT_QUANTILES

    def test_target_validation(self):
        with pytest.raises(ObservabilityError):
            QuantileDigest(())
        with pytest.raises(ObservabilityError):
            QuantileDigest((0.9, 0.5))  # not increasing
        with pytest.raises(ObservabilityError):
            QuantileDigest((0.5, 0.5))  # not strictly

    def test_untracked_target_raises(self):
        digest = QuantileDigest((0.5,))
        with pytest.raises(ObservabilityError):
            digest.quantile(0.99)

    def test_bookkeeping(self):
        digest = QuantileDigest((0.5,))
        assert digest.count == 0 and digest.sum == 0.0
        assert digest.minimum is None and digest.maximum is None
        for v in (4.0, 1.0, 7.0):
            digest.observe(v)
        assert digest.count == 3
        assert digest.sum == pytest.approx(12.0)
        assert digest.mean == pytest.approx(4.0)
        assert digest.minimum == pytest.approx(1.0)
        assert digest.maximum == pytest.approx(7.0)

    def test_quantiles_mapping(self):
        digest = QuantileDigest()
        rng = random.Random(5)
        for _ in range(1_000):
            digest.observe(rng.random())
        estimates = digest.quantiles()
        assert set(estimates) == set(DEFAULT_QUANTILES)
        assert estimates[0.5] < estimates[0.95] < estimates[0.99]

    def test_empty_quantiles_are_none(self):
        assert QuantileDigest().quantiles() == {q: None for q in DEFAULT_QUANTILES}

    def test_reset(self):
        digest = QuantileDigest()
        digest.observe(5.0)
        digest.reset()
        assert digest.count == 0
        assert digest.sum == 0.0
        assert digest.minimum is None
