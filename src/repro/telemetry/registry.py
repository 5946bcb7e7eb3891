"""Hierarchical metric registry: counters, gauges, histograms, event logs.

Components register metrics under dotted names (``vswitch.be0.cpu.drops``,
``controller.reconcile.errors``) so a whole subtree can be selected with a
glob pattern. The cost model keeps disabled telemetry near free:

* **Disabled metrics are one attribute check.** ``Counter.inc`` starts
  with ``if not self.enabled: return``; no dict lookups, no clock reads.
* **Gauges read lazily.** Most component state (session-table occupancy,
  budget headroom, link queue depth) is *already maintained* by the
  simulator, so a gauge holds a zero-argument callback that is only
  invoked when someone snapshots the registry — the hot path pays
  nothing at all.
* **Histograms defer aggregation** to :func:`percentile_summary` at
  snapshot time; ``observe`` is one list append.

Registration is idempotent with *replace* semantics for callbacks: an
experiment sweep rebuilds its testbed per point, and each rebuild
re-registers the same metric names — the registry keeps one metric object
per name and re-points gauge callbacks at the live component.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics.percentiles import percentile_summary


class Metric:
    """Base: a dotted name plus the shared enable flag."""

    kind = "metric"
    __slots__ = ("name", "enabled")

    def __init__(self, name: str) -> None:
        self.name = name
        self.enabled = True

    def value(self) -> Any:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """Monotonic count; ``inc`` is the only hot-path entry point."""

    kind = "counter"
    __slots__ = ("count",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.count = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self.enabled:
            return
        self.count += amount

    def value(self) -> float:
        return self.count

    def reset(self) -> None:
        self.count = 0.0


class Gauge(Metric):
    """Point-in-time value, usually probe-backed.

    ``set`` stores a value pushed by the component; ``bind`` attaches a
    callback evaluated only at snapshot time (and wins over any pushed
    value). Probe callbacks are the zero-overhead path: nothing happens
    until someone asks.
    """

    kind = "gauge"
    __slots__ = ("_value", "_probe")

    def __init__(self, name: str,
                 probe: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name)
        self._value = 0.0
        self._probe = probe

    def set(self, value: float) -> None:
        if not self.enabled:
            return
        self._value = value

    def bind(self, probe: Callable[[], float]) -> None:
        self._probe = probe

    def value(self) -> float:
        if self._probe is not None:
            try:
                return float(self._probe())
            except Exception:
                # A probe outliving its component (sweep teardown) must
                # not crash the snapshot of every other metric.
                return float("nan")
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Histogram(Metric):
    """Sample collector summarized with the shared percentile machinery."""

    kind = "histogram"
    __slots__ = ("samples",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.samples: List[float] = []

    def observe(self, sample: float) -> None:
        if not self.enabled:
            return
        self.samples.append(sample)

    def value(self) -> Dict[str, float]:
        summary = percentile_summary(self.samples)
        summary["count"] = float(len(self.samples))
        return summary

    def reset(self) -> None:
        self.samples.clear()


class EventLog(Metric):
    """Timestamped structured entries — decision logs, state transitions."""

    kind = "events"
    __slots__ = ("entries", "capacity", "dropped")

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        super().__init__(name)
        self.entries: List[Tuple[float, Dict[str, Any]]] = []
        self.capacity = capacity
        self.dropped = 0

    def record(self, time: float, **fields: Any) -> None:
        if not self.enabled:
            return
        if self.capacity is not None and len(self.entries) >= self.capacity:
            self.dropped += 1
            del self.entries[0]
        self.entries.append((time, fields))

    def value(self) -> List[Dict[str, Any]]:
        return [dict(fields, time=time) for time, fields in self.entries]

    def reset(self) -> None:
        self.entries.clear()
        self.dropped = 0


class MetricRegistry:
    """One flat namespace of dotted metric names.

    Creation methods return the existing metric when the name is already
    registered (counters keep accumulating across testbed rebuilds;
    gauges re-bind their probe to the newest component instance).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- creation ----------------------------------------------------------

    def _get_or_create(self, name: str, factory: Callable[[], Metric],
                       expected: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, expected):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str,
              probe: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._get_or_create(name, lambda: Gauge(name), Gauge)
        if probe is not None:
            gauge.bind(probe)
        return gauge

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name), Histogram)

    def events(self, name: str, capacity: Optional[int] = None) -> EventLog:
        log = self._get_or_create(
            name, lambda: EventLog(name, capacity), EventLog)
        return log

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self, pattern: str = "*") -> List[str]:
        return sorted(name for name in self._metrics
                      if fnmatchcase(name, pattern))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- enable/disable ----------------------------------------------------

    def enable(self, pattern: str = "*") -> int:
        """Enable every metric matching the glob; returns how many."""
        return self._set_enabled(pattern, True)

    def disable(self, pattern: str = "*") -> int:
        return self._set_enabled(pattern, False)

    def _set_enabled(self, pattern: str, state: bool) -> int:
        hits = 0
        for name, metric in self._metrics.items():
            if fnmatchcase(name, pattern):
                metric.enabled = state
                hits += 1
        return hits

    # -- aggregation -------------------------------------------------------

    def snapshot(self, pattern: str = "*") -> Dict[str, Any]:
        """``{name: value}`` for every enabled metric matching the glob.

        This is where probe gauges actually run; calling it mid-run is
        safe and has no side effects on the metrics themselves.
        """
        out: Dict[str, Any] = {}
        for name in self.names(pattern):
            metric = self._metrics[name]
            if metric.enabled:
                out[name] = metric.value()
        return out

    def describe(self, pattern: str = "*") -> List[Dict[str, Any]]:
        """Schema-ish listing: name, kind, enabled — for the CLI."""
        return [{"name": name, "kind": self._metrics[name].kind,
                 "enabled": self._metrics[name].enabled}
                for name in self.names(pattern)]

    def reset(self, pattern: str = "*") -> None:
        for name in self.names(pattern):
            self._metrics[name].reset()

    def clear(self) -> None:
        self._metrics.clear()
