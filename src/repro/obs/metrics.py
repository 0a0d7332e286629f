"""Metrics registry: labeled counters, gauges, and histograms.

Metrics are grouped into **families** — one per instrumented subsystem
(``runner``, ``store``, ``extraction``, ``cache``, ``process``) — and each metric's samples are keyed by a sorted label
set (rule, phase, kernel, worker, …).  A registry snapshot is a plain
JSON-serializable dict that rides on
``OptimizationReport.metrics`` across process and cache boundaries,
and :func:`to_prometheus` renders any snapshot in the Prometheus text
exposition format — the scrape payload a future optimization-as-a-
service daemon will serve.

Like the tracer, the registry has a no-op disabled form
(:data:`NULL_METRICS`): every ``inc``/``set``/``observe`` returns
immediately, so always-on instrumentation costs nothing when metrics
are off (the default).

The ``process`` family is populated automatically at snapshot time
with the peak-RSS gauge (:func:`peak_rss_kb`), so memory lands in the
same snapshot as everything else instead of a side-channel file.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "NULL_METRICS",
    "merge_snapshots",
    "to_prometheus",
    "histogram_quantile",
    "peak_rss_kb",
    "CONTENT_TYPE_LATEST",
]

SNAPSHOT_SCHEMA = "repro-metrics/1"

#: The Prometheus text exposition content type, served by the
#: ``repro serve`` daemon's ``GET /v1/metrics`` endpoint.
CONTENT_TYPE_LATEST = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets: seconds-scale, log-spaced — covers a
#: per-rule search (sub-ms) up to a whole saturation step (minutes).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0)

LabelKey = Tuple[Tuple[str, str], ...]


def peak_rss_kb() -> int:
    """This process's peak resident set size, in KB (``ru_maxrss``)."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    # Linux reports KB; macOS reports bytes.
    if sys.platform == "darwin":
        return int(usage.ru_maxrss) // 1024
    return int(usage.ru_maxrss)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """One named metric inside a family: kind + labeled samples."""

    __slots__ = ("kind", "help", "samples", "buckets")

    def __init__(self, kind: str, help_text: str = "",
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.kind = kind
        self.help = help_text
        #: label key → value (counter/gauge) or histogram state dict.
        self.samples: Dict[LabelKey, Any] = {}
        self.buckets = buckets

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "samples": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self.samples.items())
            ],
        }
        if self.help:
            data["help"] = self.help
        if self.buckets is not None:
            data["buckets"] = list(self.buckets)
        return data


class MetricsRegistry:
    """Counters, gauges, and histograms for one run (or one session)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: family → metric name → metric.
        self.families: Dict[str, Dict[str, _Metric]] = {}

    def _metric(self, family: str, name: str, kind: str, help_text: str,
                buckets: Optional[Tuple[float, ...]] = None) -> _Metric:
        metrics = self.families.setdefault(family, {})
        metric = metrics.get(name)
        if metric is None:
            metric = _Metric(kind, help_text, buckets)
            metrics[name] = metric
        return metric

    # -- instruments ----------------------------------------------------

    def inc(self, family: str, name: str, value: float = 1.0,
            help: str = "", **labels: Any) -> None:
        """Increment a counter sample (created on first touch)."""
        if not self.enabled:
            return
        metric = self._metric(family, name, "counter", help)
        key = _label_key(labels)
        metric.samples[key] = metric.samples.get(key, 0) + value

    def set(self, family: str, name: str, value: float,
            help: str = "", **labels: Any) -> None:
        """Set a gauge sample to ``value``."""
        if not self.enabled:
            return
        metric = self._metric(family, name, "gauge", help)
        metric.samples[_label_key(labels)] = value

    def set_max(self, family: str, name: str, value: float,
                help: str = "", **labels: Any) -> None:
        """Raise a gauge sample to ``value`` if it is higher (high-water
        marks like peak node counts)."""
        if not self.enabled:
            return
        metric = self._metric(family, name, "gauge", help)
        key = _label_key(labels)
        current = metric.samples.get(key)
        if current is None or value > current:
            metric.samples[key] = value

    def observe(self, family: str, name: str, value: float,
                help: str = "",
                buckets: Optional[Tuple[float, ...]] = None,
                **labels: Any) -> None:
        """Record one histogram observation."""
        if not self.enabled:
            return
        metric = self._metric(
            family, name, "histogram", help, buckets or DEFAULT_BUCKETS
        )
        key = _label_key(labels)
        state = metric.samples.get(key)
        if state is None:
            state = {
                "counts": [0] * (len(metric.buckets or ()) + 1),
                "sum": 0.0,
                "count": 0,
            }
            metric.samples[key] = state
        state["sum"] += value
        state["count"] += 1
        for index, bound in enumerate(metric.buckets or ()):
            if value <= bound:
                state["counts"][index] += 1
                break
        else:
            state["counts"][-1] += 1  # the +Inf bucket

    # -- snapshot / merge -----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state of every family.

        The ``process`` family's ``peak_rss_kb`` gauge is refreshed
        here, so every snapshot carries the memory high-water mark next
        to the engine counters.
        """
        if self.enabled:
            self.set("process", "peak_rss_kb", peak_rss_kb(),
                     help="peak resident set size of this process (KB)")
        return {
            "schema": SNAPSHOT_SCHEMA,
            "families": {
                family: {
                    name: metric.to_dict()
                    for name, metric in sorted(metrics.items())
                }
                for family, metrics in sorted(self.families.items())
            },
        }

    def merge(self, snapshot: Optional[Mapping]) -> None:
        """Fold a snapshot (from another run or process) into this
        registry: counters and histogram states add, gauges take the
        maximum (every shipped gauge is a level or high-water mark, for
        which max is the honest cross-run aggregate)."""
        if not self.enabled or not snapshot:
            return
        for family, metrics in (snapshot.get("families") or {}).items():
            for name, data in metrics.items():
                kind = data.get("kind", "counter")
                buckets = tuple(data["buckets"]) if data.get("buckets") else None
                metric = self._metric(
                    family, name, kind, data.get("help", ""), buckets
                )
                for sample in data.get("samples", ()):
                    key = _label_key(sample.get("labels") or {})
                    value = sample.get("value")
                    if kind == "counter":
                        metric.samples[key] = metric.samples.get(key, 0) + value
                    elif kind == "gauge":
                        current = metric.samples.get(key)
                        if current is None or value > current:
                            metric.samples[key] = value
                    else:  # histogram
                        state = metric.samples.get(key)
                        if state is None:
                            metric.samples[key] = {
                                "counts": list(value["counts"]),
                                "sum": value["sum"],
                                "count": value["count"],
                            }
                        else:
                            counts = state["counts"]
                            for i, c in enumerate(value["counts"]):
                                if i < len(counts):
                                    counts[i] += c
                            state["sum"] += value["sum"]
                            state["count"] += value["count"]


#: The shared disabled registry: every instrument call is a no-op.
NULL_METRICS = MetricsRegistry(enabled=False)


def merge_snapshots(snapshots: List[Optional[Mapping]]) -> dict:
    """Aggregate several snapshots (e.g. one per report in a batch)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


def histogram_quantile(buckets: List[float], state: Mapping,
                       q: float) -> Optional[float]:
    """Estimate the ``q`` quantile of a histogram sample state.

    Same estimator as PromQL's ``histogram_quantile``: find the bucket
    the target rank falls into, then interpolate linearly within it.
    ``state`` is the per-sample histogram dict (``counts``/``count``,
    with per-bucket — not cumulative — counts and a final +Inf slot).
    Ranks landing in the +Inf bucket return the highest finite bound
    (the estimate is a floor, not a fabricated value); an empty
    histogram returns ``None``.
    """
    total = state.get("count", 0)
    counts = state.get("counts") or []
    if total <= 0 or not counts:
        return None
    rank = max(0.0, min(1.0, q)) * total
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            if index >= len(buckets):  # the +Inf bucket
                return float(buckets[-1]) if buckets else None
            lower = buckets[index - 1] if index > 0 else 0.0
            upper = buckets[index]
            return lower + (upper - lower) * ((rank - previous) / count)
    return float(buckets[-1]) if buckets else None


#: Quantiles summarized as gauges next to each histogram's buckets.
SUMMARY_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _merge_label_str(labels: Mapping[str, str], extra: Dict[str, str]) -> str:
    merged = dict(labels)
    merged.update(extra)
    return _format_labels(merged)


def to_prometheus(snapshot: Mapping, prefix: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Each histogram additionally gets ``_p50``/``_p90``/``_p99`` gauge
    summaries computed from its buckets
    (:func:`histogram_quantile`), so per-tenant latency is readable
    straight off a ``curl`` without a Prometheus server evaluating
    ``histogram_quantile()`` for you.
    """
    lines: List[str] = []
    for family, metrics in (snapshot.get("families") or {}).items():
        for name, data in metrics.items():
            kind = data.get("kind", "counter")
            full = f"{prefix}_{family}_{name}"
            if data.get("help"):
                lines.append(f"# HELP {full} {data['help']}")
            lines.append(f"# TYPE {full} {kind}")
            quantile_lines: Dict[str, List[str]] = {}
            for sample in data.get("samples", ()):
                labels = sample.get("labels") or {}
                value = sample.get("value")
                if kind == "histogram":
                    buckets = list(data.get("buckets") or ())
                    bounds = buckets + [math.inf]
                    cumulative = 0
                    for bound, count in zip(bounds, value["counts"]):
                        cumulative += count
                        le = "+Inf" if math.isinf(bound) else f"{bound:g}"
                        lines.append(
                            f"{full}_bucket"
                            f"{_merge_label_str(labels, {'le': le})}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{full}_sum{_format_labels(labels)} {value['sum']:g}"
                    )
                    lines.append(
                        f"{full}_count{_format_labels(labels)} {value['count']}"
                    )
                    for q, suffix in SUMMARY_QUANTILES:
                        estimate = histogram_quantile(buckets, value, q)
                        if estimate is None:
                            continue
                        quantile_lines.setdefault(suffix, []).append(
                            f"{full}_{suffix}{_format_labels(labels)}"
                            f" {estimate:g}"
                        )
                else:
                    lines.append(
                        f"{full}{_format_labels(labels)} {value:g}"
                    )
            for suffix, samples in quantile_lines.items():
                lines.append(f"# TYPE {full}_{suffix} gauge")
                lines.extend(samples)
    return "\n".join(lines) + "\n"
