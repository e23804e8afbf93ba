"""Serving metrics: lock-protected counters and latency histograms.

The deployed system (§7) is judged on interactive latency under real
clinician traffic, so the serving layer keeps its own operational
telemetry — per-intent turn latency, classifier latency, query-cache
hit rate, session churn, plus the query-execution gauges the app wires
up (plan-cache hits/misses, secondary-index builds, the KB epoch) —
and renders it in a Prometheus-style text format at ``GET /metrics``.
Everything here is stdlib-only and safe to update from many request
threads at once.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Iterable

#: Default latency bucket upper bounds, in seconds.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0
)

#: How many raw observations a histogram retains for exact quantiles.
#: Beyond this each sample overwrites the oldest (sliding window).
RESERVOIR_SIZE = 4096


class Counter:
    """A monotonically increasing, thread-safe counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """A thread-safe latency histogram with exact sliding-window quantiles.

    Keeps cumulative bucket counts (for the rendered ``_bucket`` series)
    plus a fixed ring of the most recent ``RESERVOIR_SIZE`` raw
    observations, stored as doubles.  Observing writes one slot; reads
    copy the ring under the lock and sort the copy outside it, so
    :meth:`quantile` is exact over the window rather than interpolated
    from bucket bounds.
    """

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(buckets))
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +Inf tail
        self.count = 0
        self.sum = 0.0
        self._ring = array("d")  # grows to RESERVOIR_SIZE, then wraps

    def observe(self, value: float) -> None:
        with self._lock:
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    break
            else:
                self._bucket_counts[-1] += 1
            if len(self._ring) < RESERVOIR_SIZE:
                self._ring.append(value)
            else:
                self._ring[self.count % RESERVOIR_SIZE] = value
            self.count += 1
            self.sum += value

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the retained samples (0.0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            window = self._ring[:]
        return _pick(sorted(window), q)

    def snapshot(self) -> dict[str, float]:
        """count/sum/p50/p95/p99 in one consistent read."""
        with self._lock:
            out = {"count": float(self.count), "sum": self.sum}
            window = self._ring[:]
        ordered = sorted(window)
        for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            out[name] = _pick(ordered, q)
        return out

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs, ending with +Inf."""
        with self._lock:
            cumulative, out = 0, []
            for bound, count in zip(self.buckets, self._bucket_counts):
                cumulative += count
                out.append((bound, cumulative))
            out.append((float("inf"), cumulative + self._bucket_counts[-1]))
            return out


def _pick(ordered: list[float], q: float) -> float:
    """The ``q``-quantile of sorted samples (0.0 when there are none)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class MetricsRegistry:
    """A named collection of counters, histograms and gauge callbacks.

    Families are addressed by metric name plus an optional single
    ``(label_name, label_value)`` pair — enough to key per-intent latency
    and per-route request counts without a full label model.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple[str, str] | None], Counter] = {}
        self._histograms: dict[tuple[str, tuple[str, str] | None], Histogram] = {}
        self._gauges: dict[tuple[str, tuple[str, str] | None], Callable[[], float]] = {}

    def counter(
        self, name: str, label: tuple[str, str] | None = None
    ) -> Counter:
        key = (name, label)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter()
            return self._counters[key]

    def histogram(
        self,
        name: str,
        label: tuple[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = (name, label)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram(buckets)
            return self._histograms[key]

    def gauge(
        self,
        name: str,
        read: Callable[[], float],
        label: tuple[str, str] | None = None,
    ) -> None:
        """Register a live-value gauge; ``read`` is called at render time.

        Like counters/histograms, one optional ``(name, value)`` label
        pair distinguishes gauge families (e.g. per-path plan counts).
        """
        with self._lock:
            self._gauges[(name, label)] = read

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _labels(label: tuple[str, str] | None, extra: str = "") -> str:
        parts = []
        if label is not None:
            parts.append(f'{label[0]}="{label[1]}"')
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render(self) -> str:
        """Prometheus-style text exposition of every registered metric."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        lines: list[str] = []
        for (name, label), counter in sorted(
            counters.items(), key=lambda kv: (kv[0][0], kv[0][1] or ("", ""))
        ):
            lines.append(
                f"{self.prefix}_{name}{self._labels(label)} {counter.value}"
            )
        for (name, label), read in sorted(
            gauges.items(), key=lambda kv: (kv[0][0], kv[0][1] or ("", ""))
        ):
            lines.append(f"{self.prefix}_{name}{self._labels(label)} {read()}")
        for (name, label), histogram in sorted(
            histograms.items(), key=lambda kv: (kv[0][0], kv[0][1] or ("", ""))
        ):
            full = f"{self.prefix}_{name}"
            snap = histogram.snapshot()
            lines.append(f"{full}_count{self._labels(label)} {int(snap['count'])}")
            lines.append(f"{full}_sum{self._labels(label)} {snap['sum']:.6f}")
            for q_name, q_label in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
                quantile = 'quantile="%s"' % q_label
                lines.append(
                    f"{full}{self._labels(label, quantile)} {snap[q_name]:.6f}"
                )
            for bound, count in histogram.bucket_counts():
                le = "+Inf" if bound == float("inf") else f"{bound:g}"
                le_label = 'le="%s"' % le
                lines.append(
                    f"{full}_bucket{self._labels(label, le_label)} {count}"
                )
        return "\n".join(lines) + "\n"
