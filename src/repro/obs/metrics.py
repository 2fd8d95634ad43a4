"""Process-wide metrics registry: counter views over plain tallies.

The rate claims at the heart of the paper — trim fraction under
congestion, bytes saved per round, per-stage time — are all *counters
divided by counters*.  This module gives every layer of the pipeline one
place to read those counters so a run can be summarized without chasing
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
2. **Counters only.**  A point-in-time value (a queue depth, the last
   epoch's loss, the ports down) or a distribution (an encode time) has
   one home already — a stats object, a ``TrainingHistory``, a
   ``QueueMonitor`` sample list, an INT record or a trace event — and
   is read there, not copied here.
3. **No dependencies.**  The registry imports nothing from the rest of
   :mod:`repro`, so any layer may import it without cycles.

The process-wide default registry is reachable via :func:`get_registry`.
Tests that need isolation install a fresh registry with
:func:`set_registry` (and should restore the previous one afterwards).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]


class Counter:
    """A named family of labelled, monotonically increasing series."""

    def __init__(
        self, name: str, registry: "MetricsRegistry", label_names: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.label_names = tuple(label_names)
        self._registry = registry
        self._series: Dict[Tuple[str, ...], float] = {}

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

    def series(self) -> List[Tuple[Tuple[str, ...], float]]:
        """(label-values, value) pairs in sorted label order."""
        self._registry.flush()
        return sorted(self._series.items())

    def clear(self) -> None:
        self._series.clear()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        self._registry.flush()
        return float(self._series.get(self._key(labels), 0.0))

    def total(self) -> float:
        """Sum across every label combination."""
        self._registry.flush()
        return float(sum(self._series.values()))

    def bind(self, **labels: object) -> "_BoundScalar":
        """One source's handle on the series with these labels."""
        return _BoundScalar(self, self._key(labels))


class _BoundScalar:
    """One source's handle on one series: a (counter, label-key) pair.

    Each instrumented object binds its own, so :meth:`publish` can
    remember how much of *that object's* plain counter the series
    already holds while same-named objects add into the same series.
    """

    __slots__ = ("_metric", "_key", "_series", "_seen")

    def __init__(self, metric: Counter, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key
        # Aliased: Counter.clear() empties the series dict in place, so
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

    @property
    def value(self) -> float:
        self._metric._registry.flush()
        return float(self._series.get(self._key, 0.0))


class MetricsRegistry:
    """Name -> counter family; one per process by default."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Counter] = {}
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
        self,
        owner: object,
        tally: object,
        series: Mapping[str, Counter],
        **labels: object,
    ) -> Callable[[], None]:
        """Publish ``tally.<field>`` into ``series[field]`` on every flush,
        into the series these ``labels`` name.

        The common case of :meth:`add_flush_hook`, written once.  Returns
        the registered hook, for an owner that must publish before it
        zeroes its own tally.
        """
        pairs = [(field, metric.bind(**labels)) for field, metric in series.items()]

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

    def counter(self, name: str, labels: Sequence[str] = ()) -> Counter:
        """Get-or-create a counter family (idempotent)."""
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.label_names != tuple(labels):
                raise ValueError(
                    f"counter {name!r} already registered "
                    f"with labels {existing.label_names}"
                )
            return existing
        metric = self._metrics[name] = Counter(name, self, labels)
        return metric

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> Optional[Counter]:
        return self._metrics.get(name)

    def collect(self) -> List[Counter]:
        """All counter families, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict dump: {counter: {label-string: value}}."""
        return {
            metric.name: {
                ",".join(f"{n}={v}" for n, v in zip(metric.label_names, key)): value
                for key, value in metric.series()
            }
            for metric in self.collect()
        }


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
