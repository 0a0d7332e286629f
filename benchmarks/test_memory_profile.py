"""Memory profile artifact: peak RSS and graph sizes per pinned run.

Writes to ``REPRO_MEM_REPORT`` (default ``mem_profile.json``,
git-ignored; CI uploads it as an artifact so memory trends stay
inspectable across commits without gating merges):

* ``peak_rss_kb`` — the process high-water mark after the pinned
  tier-1 runs (``repro.obs.metrics.peak_rss_kb``, i.e. ``ru_maxrss``);
* per run: the final e-graph's e-node / e-class counts;
* ``metrics`` — the same numbers as a ``repro-metrics/1``
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot (peak RSS as
  the auto-populated ``process`` gauge, per-run store gauges labeled
  by run), so the memory profile speaks the one metrics schema the
  rest of the stack exports and can be merged/rendered like any other
  snapshot (e.g. ``to_prometheus``).
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import optimize_pair, selected_kernels
from repro.obs.metrics import MetricsRegistry, peak_rss_kb

#: (kernel, target) pairs profiled; the tier-1 marquee set.
PAIRS = (
    ("gemv", "blas"),
    ("vsum", "blas"),
    ("axpy", "blas"),
)

REPORT_SCHEMA = "repro-mem-profile/1"


@pytest.fixture(scope="module")
def mem_report():
    selected = set(selected_kernels())
    pairs = [(k, t) for k, t in PAIRS if k in selected]
    if not pairs:
        pytest.skip("REPRO_KERNELS excludes every profiled kernel")
    registry = MetricsRegistry()
    entries = {}
    for kernel, target in pairs:
        result = optimize_pair(kernel, target)
        egraph = result.egraph
        run = f"{kernel}/{target}"
        entries[run] = {
            "enodes": egraph.num_nodes,
            "eclasses": egraph.num_classes,
        }
        registry.set("store", "enodes", egraph.num_nodes,
                     help="e-nodes in the final graph", run=run)
        registry.set("store", "eclasses", egraph.num_classes,
                     help="canonical e-classes in the final graph", run=run)
    report = {
        "schema": REPORT_SCHEMA,
        # peak_rss_kb stays a top-level key for back-compat with
        # earlier artifact consumers; the metrics snapshot below
        # carries the same value as the process-family gauge.
        "peak_rss_kb": peak_rss_kb(),
        "entries": entries,
        "metrics": registry.snapshot(),
    }
    report_path = Path(os.environ.get("REPRO_MEM_REPORT", "mem_profile.json"))
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"\n[mem] profile written to {report_path}")
    return report


def test_peak_rss_recorded(mem_report):
    assert mem_report["peak_rss_kb"] > 0


def test_metrics_snapshot_carries_process_gauge(mem_report):
    """The registry snapshot must agree with the legacy top-level key
    (snapshot() refreshes the gauge after the legacy read, so it may
    only ever be equal or higher)."""
    families = mem_report["metrics"]["families"]
    samples = families["process"]["peak_rss_kb"]["samples"]
    assert samples[0]["value"] >= mem_report["peak_rss_kb"]
    assert set(families) >= {"process", "store"}

