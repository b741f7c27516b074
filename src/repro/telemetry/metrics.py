"""The process-local metrics registry.

ZMap-lineage scanners live and die by their telemetry: the one-line-per-
second status output, the ``--metadata-file`` counters, the per-ICMP-type
reply breakdown.  :class:`MetricsRegistry` is the reproduction's equivalent
substrate — a flat namespace of labelled **counters**, **gauges**, and
**fixed-bucket histograms** that every layer (scanner, pacer, blocklist,
forwarding engine, campaign) writes into.

Registries are cheap, single-threaded objects: each shard worker owns one
and the campaign folds them together with :meth:`MetricsRegistry.merge`,
exactly the way :meth:`repro.core.stats.ScanStats.merge` folds shard
counters — counters sum, gauges take the max, histograms add bucket-wise.
Merging the four shards of one logical scan therefore yields bit-identical
probe/reply/veto counters to the unsharded scan (asserted by
``tests/test_telemetry.py``).

Export is NDJSON (one metric per line, ``kind``/``name``/``labels``/value
fields) or a plain dict, both invertible, so snapshots survive process
pools and land in ``--metrics-out`` files and CI artifacts.

The :data:`NULL_REGISTRY` singleton is a no-op implementation of the same
interface; passing it (or ``ScanConfig.collect_metrics=False``) removes
all collection cost from the hot path except the no-op calls themselves.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:  # optional: a numpy int column is observed without a Python loop
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None  # type: ignore[assignment]

LabelKey = Tuple[Tuple[str, str], ...]

#: Floats hold every integer below this exactly (2**53).
_EXACT = 1 << 53

#: Default histogram buckets for hop counts (virtual latency proxy: one
#: forwarding hop == one tick of simulator work).
HOP_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0, 256.0)

#: Default buckets for virtual pacer waits (seconds of virtual clock).
WAIT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time float; merge takes the maximum across shards."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (cumulative-free: one count per bucket).

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in the overflow bucket, so ``len(counts) == len(bounds)+1``.
    Merging requires identical bounds.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "_last")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted, non-empty sequence")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        #: (value, bucket) of the previous observation — scan telemetry is
        #: highly repetitive (constant pacer waits, a handful of distinct
        #: hop counts), so this skips the bisect on the common path.
        self._last: Tuple[Optional[float], int] = (None, 0)

    def observe(self, value: float) -> None:
        last_value, index = self._last
        if value != last_value:
            index = bisect_left(self.bounds, value)
            self._last = (value, index)
        self.counts[index] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values: Sequence[float]) -> None:
        """``for value in values: observe(value)`` in one call: the same
        buckets, and the same float additions to ``sum`` in the same order,
        so the histogram comes out bit-identical.

        ``values`` may be a numpy int column (a chunk's hops): its buckets
        are one ``searchsorted`` and its sum one integer sum wherever every
        partial sum of the loop would be an exact integer float anyway
        (non-negative ints onto an integral ``sum``, all below 2**53)."""
        if _np is not None and isinstance(values, _np.ndarray):
            if self._observe_column(values):
                return
            values = values.tolist()
        bounds, counts = self.bounds, self.counts
        last_value, index = self._last
        total = self.sum
        for value in values:
            if value != last_value:
                index = bisect_left(bounds, value)
                last_value = value
            counts[index] += 1
            total += value
        self.count += len(values)
        self.sum = total
        self._last = (last_value, index)

    def _observe_column(self, values) -> bool:
        """:meth:`observe_many` of an int column, where the loop's float
        additions are exact; False, having observed nothing, elsewhere."""
        if not len(values):
            return True
        if values.dtype.kind not in "iu" or not float(self.sum).is_integer():
            return False
        if (self.sum < 0 or int(values.min()) < 0
                or self.sum + int(values.max()) * len(values) >= _EXACT):
            return False
        total = int(values.sum())  # no int64 overflow below 2**53
        buckets = _np.searchsorted(self.bounds, values, side="left")
        added = _np.bincount(buckets, minlength=len(self.counts)).tolist()
        self.counts[:] = [old + new for old, new in zip(self.counts, added)]
        self.count += len(values)
        self.sum += total
        self._last = (int(values[-1]), int(buckets[-1]))
        return True

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in-bucket.

        **Bucket-resolution caveat**: all that is known about an
        observation is its bucket, so the estimate interpolates the rank
        uniformly across the bucket's ``(lower, upper]`` edge span — the
        answer is only ever as precise as the bucket width, and repeated
        identical observations smear across their bucket instead of
        collapsing onto their true value.  Bucket 0's lower edge is taken
        as 0 (scan telemetry observes non-negative values); ranks landing
        in the overflow bucket clamp to the last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for upper, bucket_count in zip(self.bounds, self.counts):
            if bucket_count:
                if cumulative + bucket_count >= rank:
                    fraction = (rank - cumulative) / bucket_count
                    return lower + (upper - lower) * fraction
                cumulative += bucket_count
            lower = upper
        return self.bounds[-1]


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


class MetricsRegistry:
    """Get-or-create registry of labelled metrics.

    Metrics are identified by ``(name, labels)``; lookups cache the metric
    object, so hot loops should hoist ``registry.counter(...)`` out of the
    loop and call ``.inc()`` on the returned object.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = HOP_BUCKETS, **labels: object
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(bounds)
        return metric

    # -- read access -----------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """The current value of a counter or gauge (0 if never touched)."""
        key = (name, _label_key(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0

    def counters_named(self, name: str) -> Dict[LabelKey, int]:
        """All label-variants of one counter family, for reply-mix views."""
        return {
            labels: metric.value
            for (n, labels), metric in self._counters.items()
            if n == name
        }

    def counter_items(self):
        """Live ``((name, labels), Counter)`` view — what the time-series
        sampler walks to delta every counter at a bucket close."""
        return self._counters.items()

    def histograms_named(self, name: str) -> Dict[LabelKey, Histogram]:
        """All label-variants of one histogram family (latency summaries)."""
        return {
            labels: metric
            for (n, labels), metric in self._histograms.items()
            if n == name
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- merge ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (in place).

        Counters sum, gauges take the max (e.g. deepest stream position
        across shards), histograms add bucket-wise; a bucket-bounds
        mismatch on the same name+labels is a programming error and raises.
        """
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                mine = self._counters[key] = Counter()
            mine.value += counter.value
        for key, gauge in other._gauges.items():
            mine_g = self._gauges.get(key)
            if mine_g is None:
                mine_g = self._gauges[key] = Gauge()
            mine_g.value = max(mine_g.value, gauge.value)
        for key, hist in other._histograms.items():
            mine_h = self._histograms.get(key)
            if mine_h is None:
                mine_h = self._histograms[key] = Histogram(hist.bounds)
            if mine_h.bounds != hist.bounds:
                raise ValueError(
                    f"histogram {key[0]!r} bucket bounds differ between "
                    "registries; cannot merge"
                )
            for i, c in enumerate(hist.counts):
                mine_h.counts[i] += c
            mine_h.count += hist.count
            mine_h.sum += hist.sum
        return self

    def merge_dict(self, data: Optional[Dict[str, object]]) -> "MetricsRegistry":
        """Merge an exported snapshot (what pool workers ship back)."""
        if data:
            self.merge(MetricsRegistry.from_dict(data))
        return self

    # -- export -----------------------------------------------------------------

    def metric_dicts(self) -> Iterator[Dict[str, object]]:
        """One JSON-ready dict per metric (the NDJSON line payloads)."""
        for (name, labels), counter in sorted(self._counters.items()):
            yield {
                "kind": "counter",
                "name": name,
                "labels": dict(labels),
                "value": counter.value,
            }
        for (name, labels), gauge in sorted(self._gauges.items()):
            yield {
                "kind": "gauge",
                "name": name,
                "labels": dict(labels),
                "value": gauge.value,
            }
        for (name, labels), hist in sorted(self._histograms.items()):
            yield {
                "kind": "histogram",
                "name": name,
                "labels": dict(labels),
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "count": hist.count,
                "sum": hist.sum,
            }

    def to_dict(self) -> Dict[str, object]:
        return {"metrics": list(self.metric_dicts())}

    def ndjson_lines(self) -> Iterator[str]:
        for metric in self.metric_dicts():
            yield json.dumps(metric, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsRegistry":
        registry = cls()
        for metric in data.get("metrics", ()):  # type: ignore[union-attr]
            name = str(metric["name"])
            labels = {str(k): v for k, v in metric.get("labels", {}).items()}
            kind = metric.get("kind")
            if kind == "counter":
                registry.counter(name, **labels).value = int(metric["value"])
            elif kind == "gauge":
                registry.gauge(name, **labels).value = float(metric["value"])
            elif kind == "histogram":
                hist = registry.histogram(name, bounds=metric["bounds"], **labels)
                hist.counts = [int(c) for c in metric["counts"]]
                hist.count = int(metric["count"])
                hist.sum = float(metric["sum"])
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        return registry


class NullRegistry:
    """No-op registry: same interface, zero collection."""

    enabled = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def counter(self, name: str, **labels: object) -> _NullCounter:
        return self._COUNTER

    def gauge(self, name: str, **labels: object) -> _NullGauge:
        return self._GAUGE

    def histogram(
        self, name: str, bounds: Sequence[float] = HOP_BUCKETS, **labels: object
    ) -> _NullHistogram:
        return self._HISTOGRAM

    def value(self, name: str, **labels: object) -> float:
        return 0

    def counter_items(self):
        return ()

    def to_dict(self) -> Dict[str, object]:
        return {"metrics": []}

    def ndjson_lines(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0


#: Shared no-op registry for telemetry-off scans.
NULL_REGISTRY = NullRegistry()
