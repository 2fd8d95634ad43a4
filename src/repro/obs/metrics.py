"""Process-wide metrics registry: counters, gauges, log-scale histograms.

The rate claims at the heart of the paper — trim fraction under
congestion, bytes saved per round, per-stage time — are all *counters
divided by counters*.  This module gives every layer of the pipeline one
place to put those counters so a run can be summarized without chasing
per-object attributes (``SwitchStats`` here, ``Link.packets_sent``
there, ``ChannelStats`` somewhere else).

Design constraints, in order:

1. **One writer per counter.**  Instrumented objects count in a tally
   of plain numbers (``SwitchStats``, ``ChannelStats``, a sender's
   ``tally``) and write nothing here while they run.  Each registers a
   publication function over that tally
   (:meth:`MetricsRegistry.publish_tally`, or a hand-written
   :meth:`MetricsRegistry.add_flush_hook`) that adds what the counters
   gained since it last ran; the registry runs them when it is read,
   and once more after the object is gone, so a counter family always
   equals the sum of the plain counters behind it and no packet pays
   for a series update.
2. **Gauges and histograms are written directly** — they have no plain
   twin — at the point where the value changes or the sample is taken,
   none of which is per forwarded packet.
3. **No dependencies.**  The registry imports nothing from the rest of
   :mod:`repro`, so any layer may import it without cycles.

The process-wide default registry is reachable via :func:`get_registry`.
Tests that need isolation install a fresh registry with
:func:`set_registry` (and should restore the previous one afterwards).
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]


class Metric:
    """Base class: a named family of labelled series."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        registry: "MetricsRegistry",
        label_names: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._registry = registry
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        try:
            return tuple(str(labels[n]) for n in self.label_names)
        except KeyError as exc:
            raise ValueError(f"{self.name}: missing label {exc}") from exc

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label-values, value) pairs in sorted label order."""
        self._registry.flush()
        return sorted(self._series.items())

    def clear(self) -> None:
        self._series.clear()


class _BoundScalar:
    """One source's handle on one series: a (metric, label-key) pair.

    Each instrumented object binds its own, so :meth:`publish` can
    remember how much of *that object's* plain counter the series
    already holds while same-named objects add into the same series.
    """

    __slots__ = ("_metric", "_key", "_series", "_seen")

    def __init__(self, metric: Metric, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key
        # Aliased: Metric.clear() empties the series dict in place, so
        # the reference stays valid.
        self._series = metric._series
        self._seen = 0.0

    def publish(self, total: float) -> None:
        """Add what the source's plain counter gained since the last call.

        ``total`` is the counter as it reads now.  A counter that went
        backwards (``reset_stats()``, a restored checkpoint) only moves
        the mark: series never go down, and a counter at zero creates no
        series.
        """
        gained = total - self._seen
        if gained:
            self._seen = total
            if gained > 0:
                series = self._series
                series[self._key] = series.get(self._key, 0.0) + gained

    def inc(self, amount: float = 1.0) -> None:
        series = self._series
        key = self._key
        series[key] = series.get(key, 0.0) + amount

    def set(self, value: float) -> None:
        self._series[self._key] = float(value)

    @property
    def value(self) -> float:
        self._metric._registry.flush()
        return float(self._series.get(self._key, 0.0))


class _ScalarMetric(Metric):
    """What counters and gauges share: float series, ``value``, ``bind``."""

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        self._registry.flush()
        return float(self._series.get(self._key(labels), 0.0))

    def bind(self, **labels: object) -> _BoundScalar:
        """One source's handle on the series with these labels."""
        return _BoundScalar(self, self._key(labels))


class Counter(_ScalarMetric):
    """Monotonically increasing count (packets, bytes, rounds)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        super().inc(amount, **labels)

    def total(self) -> float:
        """Sum across every label combination."""
        self._registry.flush()
        return float(sum(self._series.values()))


class Gauge(_ScalarMetric):
    """Point-in-time value (queue depth, epoch, loss)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels)] = float(value)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)


class _HistogramSeries:
    """Bucket counts + running sum for one label combination."""

    __slots__ = ("buckets", "count", "sum")

    def __init__(self, num_buckets: int) -> None:
        self.buckets = [0] * (num_buckets + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0


class _BoundHistogram:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "Histogram", key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value)


class Histogram(Metric):
    """Log-scale histogram: geometric bucket bounds.

    Buckets span ``[start, start * factor ** (num_buckets - 1)]``; the
    default covers nanoseconds to ~20 minutes for time-like values and
    single bytes to ~1 TB for size-like values with one parametrisation
    (1e-9 .. 1e12 at decade spacing).  Values above the last bound land
    in an overflow bucket; percentiles are interpolated geometrically
    inside the owning bucket, which is accurate to the bucket factor.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        registry: "MetricsRegistry",
        label_names: Sequence[str] = (),
        start: float = 1e-9,
        factor: float = 10.0,
        num_buckets: int = 22,
    ) -> None:
        super().__init__(name, help_text, registry, label_names)
        if start <= 0 or factor <= 1 or num_buckets < 1:
            raise ValueError("need start > 0, factor > 1, num_buckets >= 1")
        self.bounds = [start * factor**i for i in range(num_buckets)]
        self._log_start = math.log(start)
        self._log_factor = math.log(factor)

    # -- recording ----------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        if value <= self.bounds[0]:
            return 0
        if value > self.bounds[-1]:
            return len(self.bounds)  # overflow
        # Direct log-index beats a bisect on the hot path.
        idx = int(math.ceil((math.log(value) - self._log_start) / self._log_factor - 1e-12))
        return min(max(idx, 0), len(self.bounds) - 1)

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.bounds))
        series.buckets[self._bucket_index(value)] += 1
        series.count += 1
        series.sum += value

    def observe(self, value: float, **labels: object) -> None:
        self._observe(self._key(labels), value)

    def bind(self, **labels: object) -> _BoundHistogram:
        return _BoundHistogram(self, self._key(labels))

    # -- queries ------------------------------------------------------------

    def _get(self, labels: Mapping[str, object]) -> Optional[_HistogramSeries]:
        series = self._series.get(self._key(labels))
        return series if isinstance(series, _HistogramSeries) else None

    def count(self, **labels: object) -> int:
        series = self._get(labels)
        return series.count if series else 0

    def total(self, **labels: object) -> float:
        series = self._get(labels)
        return series.sum if series else 0.0

    def mean(self, **labels: object) -> float:
        series = self._get(labels)
        return series.sum / series.count if series and series.count else 0.0

    def percentile(self, q: float, **labels: object) -> float:
        """Estimated q-th percentile (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        series = self._get(labels)
        if series is None or series.count == 0:
            return 0.0
        rank = q / 100.0 * series.count
        seen = 0
        for i, n in enumerate(series.buckets):
            seen += n
            if seen >= rank and n:
                if i >= len(self.bounds):
                    return self.bounds[-1] * math.sqrt(
                        self.bounds[-1] / self.bounds[-2]
                    )
                lower = self.bounds[i - 1] if i else self.bounds[0] / math.e
                return math.sqrt(lower * self.bounds[i])
        return self.bounds[-1]


class MetricsRegistry:
    """Name -> metric family; one per process by default."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        # (weak owner, publication closure): see add_flush_hook.
        self._flush_hooks: List[Tuple[weakref.ref, Callable[[], None]]] = []
        self._flushing = False
        self._sweep_at = 1024

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every series; metric families stay registered.

        Flushes first: what the sources counted before the reset is
        published and then zeroed with everything else, not carried over.
        """
        self.flush()
        for metric in self._metrics.values():
            metric.clear()

    # -- publication --------------------------------------------------------

    def add_flush_hook(self, publish: Callable[[], None], owner: object) -> None:
        """Register the one way a plain counter reaches the registry.

        Instrumented objects count in a *tally* — a small object of
        plain numbers (``SwitchStats``, ``ChannelStats``, a sender's
        tally) — and write nothing here while they run.  ``publish``
        closes over that tally, never over ``owner``, and adds what its
        counters gained since it last ran (:meth:`_BoundScalar.publish`,
        or ``inc`` of a remembered difference).  It runs on every
        :meth:`flush` — which every read API calls first, so a reader
        sees exact values — and never from the garbage collector.

        ``owner`` is held weakly and only tells the registry when to let
        go: the hook is kept until the first flush after the owner is
        gone, so an object's last counts arrive whatever the collector
        does, whoever dropped it, and the registry pins no network.
        Registration itself flushes once the list has doubled, so what
        unread owners leave behind stays bounded without anyone reading.
        """
        if len(self._flush_hooks) >= self._sweep_at:
            self.flush()
            self._sweep_at = 2 * len(self._flush_hooks) + 1024
        self._flush_hooks.append((weakref.ref(owner), publish))

    def publish_tally(
        self, owner: object, tally: object, series: Mapping[str, _BoundScalar]
    ) -> Callable[[], None]:
        """Publish ``tally.<field>`` into ``series[field]`` on every flush.

        The common case of :meth:`add_flush_hook`, written once.  Returns
        the registered hook, for an owner that must publish before it
        zeroes its own tally.
        """
        pairs = list(series.items())

        def _publish_metrics() -> None:
            for field, bound in pairs:
                bound.publish(getattr(tally, field))

        self.add_flush_hook(_publish_metrics, owner)
        return _publish_metrics

    def flush(self) -> None:
        """Run every hook once (reentrancy-safe); drop those whose owner died."""
        if self._flushing or not self._flush_hooks:
            return
        self._flushing = True
        try:
            hooks = self._flush_hooks
            self._flush_hooks = [hook for hook in hooks if hook[0]() is not None]
            for _, publish in hooks:
                publish()
        finally:
            self._flushing = False

    # -- registration -------------------------------------------------------

    def _register(self, cls, name: str, help_text: str, labels: Sequence[str], **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        metric = cls(name, help_text, self, labels, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Counter:
        """Get-or-create a counter family (idempotent)."""
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        start: float = 1e-9,
        factor: float = 10.0,
        num_buckets: int = 22,
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labels,
            start=start, factor=factor, num_buckets=num_buckets,
        )

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """All metric families, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict dump: {metric: {label-string: value}}.

        Histogram series dump as ``{"count": n, "sum": s}``.
        """
        out: Dict[str, Dict[str, object]] = {}
        for metric in self.collect():
            family: Dict[str, object] = {}
            for key, value in metric.series():
                label = ",".join(
                    f"{n}={v}" for n, v in zip(metric.label_names, key)
                )
                if isinstance(value, _HistogramSeries):
                    family[label] = {"count": value.count, "sum": value.sum}
                else:
                    family[label] = value
            out[metric.name] = family
        return out


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the default; returns the previous one.

    Already-constructed instrumented objects keep the registry they
    bound at construction time, so install a fresh registry *before*
    building the network/trainer you want to observe in isolation.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
