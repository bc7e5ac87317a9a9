"""Unified metrics: Counter / Gauge / Histogram + Prometheus exposition.

The registry holds typed metric families, each optionally labelled::

    reg = MetricsRegistry()
    reqs = reg.counter("repro_requests_total", "Requests", ("family",))
    reqs.inc(1, "sbo")
    lat = reg.histogram("repro_latency_seconds", "Latency", ("family",))
    lat.observe(0.012, "sbo")
    print(reg.render())          # Prometheus text exposition

Histograms are the one latency store of the serving layers: every
:class:`~repro.service.SolverService` records its request, phase and
tenant queue-wait latencies into its own registry, always, and renders
its ``stats`` percentiles from it.  They use **fixed boundaries**
(:data:`LATENCY_BUCKETS`), so merging two histograms is exact
bucket-count addition: the merge of per-shard histograms equals the
histogram of the concatenated samples, which is how a cluster router
gets its cluster-wide percentiles.  Each series also keeps its exact
``min`` and ``max``.  Quantiles are *estimated*: interpolated linearly
inside the bucket that holds the nearest-rank sample and clamped to
``[min, max]``, so an estimate is within one bucket (at most 19 %
relative error) of the true value, ``count``/``mean``/``max`` are exact,
and a series of one repeated value reports that value exactly.  The
numbers cover every sample since the histogram was created, like any
Prometheus histogram.

``to_dict`` / ``from_dict`` / ``merge`` give the structured wire form:
the ``histograms`` key of a ``stats`` payload, folded by the router.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "MAX_LABEL_SETS",
]

#: Latency bucket upper bounds (seconds): ``2**(k/4)`` for k = -80..40,
#: about 0.95 µs to 1,024 s.  Neighbours differ by a factor 2**(1/4)
#: (≈1.19), the growth factor of Prometheus native-histogram schema 2.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(2.0 ** (k / 4) for k in range(-80, 41))

#: Label sets one histogram keeps before evicting the least recently observed.
MAX_LABEL_SETS = 64

_LabelKey = Tuple[str, ...]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    if value != value:  # nan
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labelnames: Sequence[str], labelvalues: _LabelKey,
               extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{_escape_label_value(str(value))}"'
             for name, value in zip(labelnames, labelvalues)]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Common shape: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labelvalues: Tuple[object, ...]) -> _LabelKey:
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(labelvalues)}"
            )
        return tuple(map(str, labelvalues))

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, *labelvalues: object) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only increase, got {amount}")
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, *labelvalues: object) -> None:
        """Overwrite the total — for adapters mirroring an external counter."""
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = float(value)

    def value(self, *labelvalues: object) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)

    def collect(self) -> Dict[_LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def render(self) -> List[str]:
        values = self.collect()
        lines = self._header()
        for key in sorted(values):
            lines.append(
                f"{self.name}{_label_str(self.labelnames, key)} "
                f"{_format_value(values[key])}"
            )
        return lines


class Gauge(_Metric):
    """Instantaneous value that can go up or down (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[_LabelKey, float] = {}

    def set(self, value: float, *labelvalues: object) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, *labelvalues: object) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, *labelvalues: object) -> None:
        self.inc(-amount, *labelvalues)

    def value(self, *labelvalues: object) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)

    def collect(self) -> Dict[_LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def render(self) -> List[str]:
        values = self.collect()
        lines = self._header()
        for key in sorted(values):
            lines.append(
                f"{self.name}{_label_str(self.labelnames, key)} "
                f"{_format_value(values[key])}"
            )
        return lines


class _HistogramSeries:
    __slots__ = ("buckets", "total", "count", "min", "max")

    def __init__(self, nbuckets: int) -> None:
        self.buckets = [0] * nbuckets   # one per boundary + one overflow
        self.total = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def add(self, buckets: Sequence[int], total: float, count: int,
            minimum: float, maximum: float) -> None:
        for index, bucket_count in enumerate(buckets):
            self.buckets[index] += bucket_count
        self.total += total
        self.count += count
        self.min = min(self.min, minimum)
        self.max = max(self.max, maximum)


class Histogram(_Metric):
    """Fixed-boundary histogram; merging is exact bucket addition.

    ``boundaries`` are the inclusive upper bounds of the finite buckets
    (Prometheus ``le`` semantics); one implicit ``+Inf`` bucket catches
    the overflow.  Two histograms with identical boundaries merge by
    adding bucket counts, counts and sums and taking the min of the
    minima and the max of the maxima — exactly the histogram the
    concatenated sample stream would have produced.

    At most :data:`MAX_LABEL_SETS` label sets are kept: a new one evicts
    the least recently observed (counted in :attr:`evicted`), so label
    values a client can influence (solver family names) cannot grow
    memory without bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        boundaries: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"{name}: at least one bucket boundary required")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: boundaries must be strictly increasing")
        if any(b != b or b == math.inf for b in bounds):
            raise ValueError(f"{name}: boundaries must be finite (got {bounds})")
        self.boundaries: Tuple[float, ...] = bounds
        self._series: Dict[_LabelKey, _HistogramSeries] = {}
        #: Label sets dropped by the :data:`MAX_LABEL_SETS` bound (cumulative).
        self.evicted = 0

    def _series_for(self, key: _LabelKey) -> _HistogramSeries:
        """The series of ``key``, moved to most recent (caller holds the lock)."""
        series = self._series.pop(key, None)
        if series is None:
            series = _HistogramSeries(len(self.boundaries) + 1)
            while len(self._series) >= MAX_LABEL_SETS:
                del self._series[next(iter(self._series))]
                self.evicted += 1
        # Dict order is recency of observation: the eviction above always
        # drops the least recently observed label set.
        self._series[key] = series
        return series

    def observe(self, value: float, *labelvalues: object) -> None:
        key = self._key(labelvalues)
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            series = self._series_for(key)
            series.buckets[index] += 1
            series.total += value
            series.count += 1
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    def collect(self) -> Dict[_LabelKey, Dict[str, object]]:
        with self._lock:
            return {
                key: {"buckets": list(s.buckets), "sum": s.total, "count": s.count,
                      "min": s.min, "max": s.max}
                for key, s in self._series.items()
            }

    def _quantiles(self, series: _HistogramSeries, qs: Sequence[float]) -> List[float]:
        """Estimated ``qs`` quantiles (ascending, 0..1) of one non-empty series.

        The bucket holding the nearest-rank sample is found exactly; the
        estimate is interpolated linearly inside it, with the bucket's
        edges clamped to the series' exact ``[min, max]``.  So it lies
        within one bucket of the nearest-rank value, is monotone in
        ``q``, and a series of one repeated value reports that value.
        Below the first or above the last boundary the bucket is open,
        and the estimate is only bounded by ``min`` or ``max``.
        """
        ranks = [max(1, math.ceil(q * series.count)) for q in qs]
        out: List[float] = []
        cumulative = 0
        for index, bucket_count in enumerate(series.buckets):
            if not bucket_count:
                continue
            before, cumulative = cumulative, cumulative + bucket_count
            lo = max(self.boundaries[index - 1], series.min) if index else series.min
            hi = (min(self.boundaries[index], series.max)
                  if index < len(self.boundaries) else series.max)
            while len(out) < len(ranks) and ranks[len(out)] <= cumulative:
                estimate = lo + (hi - lo) * (ranks[len(out)] - before) / bucket_count
                out.append(min(hi, max(lo, estimate)))
            if len(out) == len(ranks):
                break
        return out

    def _summarize(self, series: Optional[_HistogramSeries]) -> Dict[str, float]:
        if series is None or series.count == 0:
            return {"count": 0, "p50": math.nan, "p90": math.nan,
                    "p99": math.nan, "mean": math.nan, "max": math.nan}
        p50, p90, p99 = self._quantiles(series, (0.5, 0.9, 0.99))
        return {"count": series.count, "p50": p50, "p90": p90, "p99": p99,
                "mean": series.total / series.count, "max": series.max}

    def quantile(self, q: float, *labelvalues: object) -> float:
        """Estimated ``q``-quantile (0..1) of one series; ``nan`` when empty."""
        key = self._key(labelvalues)
        with self._lock:
            series = self._series.get(key)
            if series is None or series.count == 0:
                return math.nan
            return self._quantiles(series, (q,))[0]

    def summary(self, *labelvalues: object) -> Dict[str, float]:
        """``{count, p50, p90, p99, mean, max}`` of one series (``nan`` when empty).

        ``count``, ``mean`` and ``max`` are exact; the percentiles are
        estimates within one bucket (see :meth:`_quantiles`).
        """
        key = self._key(labelvalues)
        with self._lock:
            return self._summarize(self._series.get(key))

    def summaries(self) -> Dict[_LabelKey, Dict[str, float]]:
        """:meth:`summary` of every label set, keyed by label values."""
        with self._lock:
            return {key: self._summarize(s) for key, s in sorted(self._series.items())}

    def total_summary(self) -> Dict[str, float]:
        """:meth:`summary` of the bucket sum over every label set."""
        with self._lock:
            total = _HistogramSeries(len(self.boundaries) + 1)
            for s in self._series.values():
                total.add(s.buckets, s.total, s.count, s.min, s.max)
            return self._summarize(total)

    def merge_series(self, key: _LabelKey, buckets: Sequence[int], total: float,
                     count: int, minimum: float, maximum: float) -> None:
        """Fold one external series (same boundaries) into this histogram."""
        if len(buckets) != len(self.boundaries) + 1:
            raise ValueError(
                f"{self.name}: cannot merge series with {len(buckets)} buckets "
                f"into {len(self.boundaries) + 1}"
            )
        with self._lock:
            self._series_for(key).add(
                [int(c) for c in buckets], float(total), int(count),
                float(minimum), float(maximum),
            )

    def render(self) -> List[str]:
        collected = self.collect()
        lines = self._header()
        for key in sorted(collected):
            data = collected[key]
            cumulative = 0
            for boundary, bucket_count in zip(self.boundaries, data["buckets"]):
                cumulative += bucket_count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_str(self.labelnames, key, (('le', f'{boundary:g}'),))} "
                    f"{cumulative}"
                )
            cumulative += data["buckets"][-1]
            lines.append(
                f"{self.name}_bucket"
                f"{_label_str(self.labelnames, key, (('le', '+Inf'),))} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_label_str(self.labelnames, key)} "
                f"{_format_value(data['sum'])}"
            )
            lines.append(
                f"{self.name}_count{_label_str(self.labelnames, key)} {data['count']}"
            )
        return lines


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                  boundaries: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, boundaries=boundaries
        )  # type: ignore[return-value]

    def add(self, metric: _Metric) -> None:
        """Register an existing metric object (its owner keeps recording into it)."""
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------ #
    # structured wire form (the `metrics` op payload; exact cross-shard
    # merge happens on these dicts)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, object] = {}
        for name, metric in sorted(metrics.items()):
            entry: Dict[str, object] = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
            }
            if isinstance(metric, Histogram) and metric.boundaries != LATENCY_BUCKETS:
                entry["boundaries"] = list(metric.boundaries)
            entry["series"] = {
                "\t".join(key): value for key, value in metric.collect().items()
            }
            out[name] = entry
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(payload)
        return registry

    def merge(self, payload: Mapping[str, object]) -> None:
        """Fold a :meth:`to_dict` payload into this registry.

        Counters and histogram series **add**; gauges add too (the
        cluster reading of a gauge like queue depth is the sum over
        shards).  Histogram addition is exact: same boundaries, bucket
        counts summed, min of the minima and max of the maxima.
        """
        for name, entry in payload.items():
            if not isinstance(entry, Mapping):
                continue
            kind = entry.get("kind")
            help_text = str(entry.get("help", ""))
            labelnames = tuple(str(n) for n in entry.get("labels", ()))
            series = entry.get("series", {})
            if not isinstance(series, Mapping):
                continue
            if kind == "histogram":
                boundaries = tuple(
                    float(b) for b in entry.get("boundaries", LATENCY_BUCKETS)
                )
                metric = self.histogram(name, help_text, labelnames, boundaries)
                for packed, data in series.items():
                    if not isinstance(data, Mapping):
                        continue
                    key = tuple(str(packed).split("\t")) if labelnames else ()
                    metric.merge_series(
                        key, data.get("buckets", []), data.get("sum", 0.0),
                        data.get("count", 0), data.get("min", math.inf),
                        data.get("max", -math.inf),
                    )
            elif kind == "gauge":
                metric = self.gauge(name, help_text, labelnames)
                for packed, value in series.items():
                    key = tuple(str(packed).split("\t")) if labelnames else ()
                    metric.inc(float(value), *key)
            elif kind == "counter":
                metric = self.counter(name, help_text, labelnames)
                for packed, value in series.items():
                    key = tuple(str(packed).split("\t")) if labelnames else ()
                    metric.inc(float(value), *key)
