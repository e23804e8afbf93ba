"""Metrics: counters, histograms, quantiles, text rendering."""

from __future__ import annotations

import random
import threading
from collections import deque

import pytest

from repro.serving import Counter, Histogram, MetricsRegistry
from repro.serving.metrics import RESERVOIR_SIZE


class TestCounter:
    def test_inc(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_increments_are_exact(self):
        counter = Counter()

        def worker():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 80_000


class TestHistogram:
    def test_quantiles_are_exact_over_window(self):
        histogram = Histogram()
        for ms in range(1, 101):  # 0.001 .. 0.100
            histogram.observe(ms / 1000)
        assert histogram.quantile(0.5) == pytest.approx(0.051)
        assert histogram.quantile(0.95) == pytest.approx(0.096)
        assert histogram.quantile(0.99) == pytest.approx(0.100)
        snap = histogram.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(sum(range(1, 101)) / 1000)
        assert snap["p50"] == pytest.approx(0.051)

    def test_window_wraps_like_a_bounded_deque(self):
        rng = random.Random(25)
        histogram = Histogram()
        reference: deque[float] = deque(maxlen=RESERVOIR_SIZE)
        checkpoints = {1, RESERVOIR_SIZE - 1, RESERVOIR_SIZE, RESERVOIR_SIZE + 1,
                       2 * RESERVOIR_SIZE + 7, 3 * RESERVOIR_SIZE}
        for n in range(1, 3 * RESERVOIR_SIZE + 1):
            # Repeated values exercise ties between old and new samples.
            value = rng.choice((0.5, rng.random()))
            histogram.observe(value)
            reference.append(value)
            if n not in checkpoints:
                continue
            ordered = sorted(reference)
            for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
                expected = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
                assert histogram.quantile(q) == expected
            snap = histogram.snapshot()
            assert snap["count"] == n
            assert snap["p99"] == histogram.quantile(0.99)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_bucket_counts_are_cumulative(self):
        histogram = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts() == [
            (0.01, 1), (0.1, 2), (1.0, 3), (float("inf"), 4),
        ]

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestRegistry:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", ("x", "1")) is not registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_render_text(self):
        registry = MetricsRegistry(prefix="test")
        registry.counter("turns_total").inc(3)
        registry.counter("requests_total", ("route", "POST /chat")).inc()
        registry.histogram("latency_seconds", ("intent", "Dosage")).observe(0.02)
        registry.gauge("sessions_active", lambda: 7)
        text = registry.render()
        assert "test_turns_total 3" in text
        assert 'test_requests_total{route="POST /chat"} 1' in text
        assert "test_sessions_active 7" in text
        assert 'test_latency_seconds_count{intent="Dosage"} 1' in text
        assert 'test_latency_seconds{intent="Dosage",quantile="0.95"}' in text
        assert 'le="+Inf"' in text
