"""Tests for the shared timing and percentile helpers."""

import numpy as np
import pytest

from repro.obs.stats import Stopwatch, best_of, percentile


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with Stopwatch() as sw:
            sum(range(1000))
        assert sw.seconds > 0.0

    def test_records_even_when_body_raises(self):
        sw = Stopwatch()
        try:
            with sw:
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert sw.seconds > 0.0


class TestBestOf:
    def test_runs_fn_trials_times_and_returns_minimum(self):
        calls = []
        best = best_of(lambda: calls.append(1), trials=5)
        assert len(calls) == 5
        assert best >= 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, trials=0)


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(scale=2.0, size=101).tolist()
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q * 100.0))
            )

    def test_single_element(self):
        assert percentile([3.5], 0.5) == 3.5

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_q_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
