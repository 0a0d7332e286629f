"""CI perf-regression gate: saturation cost and solution quality.

``benchmarks/baseline.json`` pins, per (kernel, target), the expected
best cost and a reference saturation wall time.  This module re-runs
each pinned pair (through the shared session, so runs are reused
across benchmark modules) and fails when

* **best cost regresses at all** — solution quality is deterministic,
  so any increase is a real regression, never noise; or
* **wall time regresses by more than 50%** vs the baseline
  (``REPRO_PERF_FACTOR`` overrides the 1.5 factor; ``0`` disables the
  wall-time gate for pathologically slow machines); or
* **a pinned run stopped at the time limit** — its steps, cost and
  wall then depend on machine load, so neither gate above can judge it.

The fresh numbers are always written to ``REPRO_PERF_REPORT`` (default
``perf_current.json`` in the working directory, git-ignored); CI
uploads that file as an artifact so wall-time trends stay inspectable
across commits without any of them gating a merge.

Refreshing the baseline after a legitimate change (a speedup to bank,
or an intentional cost-model/solution change): run

    REPRO_UPDATE_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_perf_regression.py -q

on a quiet machine with default limits (no ``REPRO_*`` knobs) and
commit the rewritten ``baseline.json`` — see CONTRIBUTING.md.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import optimize_pair, selected_kernels
from repro.saturation import StopReason

BASELINE_PATH = Path(__file__).parent / "baseline.json"
BASELINE_SCHEMA = "repro-perf-baseline/1"

#: Wall-time regression tolerance: fail beyond baseline * factor.
DEFAULT_FACTOR = 1.5


def _factor() -> float:
    return float(os.environ.get("REPRO_PERF_FACTOR", DEFAULT_FACTOR))


def _update_mode() -> bool:
    return os.environ.get("REPRO_UPDATE_BASELINE", "").strip() == "1"


def _load_baseline() -> dict:
    data = json.loads(BASELINE_PATH.read_text())
    assert data.get("schema") == BASELINE_SCHEMA, (
        f"unrecognized baseline schema {data.get('schema')!r}"
    )
    return data


def _wall(result) -> float:
    return sum(s.seconds for s in result.steps)


def _selected_entries(baseline: dict):
    """Baseline entries whose kernel survives REPRO_KERNELS filtering.

    Without the knob every pinned entry is gated — including kernels
    (like ``dot``) that are pinned for the gate but sit outside the
    table I suite that ``selected_kernels()`` defaults to.
    """
    if not os.environ.get("REPRO_KERNELS", "").strip():
        return dict(baseline["entries"])
    selected = set(selected_kernels())
    return {
        key: entry
        for key, entry in baseline["entries"].items()
        if key.split("/")[0] in selected
    }


@pytest.fixture(scope="module")
def fresh_runs():
    baseline = _load_baseline()
    entries = _selected_entries(baseline)
    if not entries:
        pytest.skip("REPRO_KERNELS excludes every baselined kernel")
    runs = {}
    for key in entries:
        kernel, target = key.split("/")
        runs[key] = optimize_pair(kernel, target)
    report = {
        "schema": BASELINE_SCHEMA,
        "entries": {
            key: {
                "best_cost": round(result.final.best_cost, 4),
                "wall_seconds": round(_wall(result), 3),
            }
            for key, result in runs.items()
        },
    }
    report_path = Path(os.environ.get("REPRO_PERF_REPORT", "perf_current.json"))
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"\n[perf] fresh numbers written to {report_path}")
    if _update_mode():
        baseline["entries"].update(report["entries"])
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"[perf] baseline refreshed at {BASELINE_PATH}")
    return baseline, runs


def test_best_cost_never_regresses(fresh_runs):
    baseline, runs = fresh_runs
    if _update_mode():
        pytest.skip("baseline refresh run")
    failures = []
    for key, result in runs.items():
        expected = baseline["entries"][key]["best_cost"]
        got = result.final.best_cost
        if got > expected + 1e-6:
            failures.append(f"{key}: best cost {got:.4f} > baseline {expected:.4f}")
    assert not failures, "; ".join(failures)


def test_wall_time_within_budget(fresh_runs):
    baseline, runs = fresh_runs
    if _update_mode():
        pytest.skip("baseline refresh run")
    factor = _factor()
    if factor <= 0:
        pytest.skip("wall-time gate disabled via REPRO_PERF_FACTOR")
    failures = []
    for key, result in runs.items():
        budget = baseline["entries"][key]["wall_seconds"] * factor
        wall = _wall(result)
        if wall > budget:
            failures.append(
                f"{key}: wall {wall:.1f}s > {budget:.1f}s "
                f"(baseline {baseline['entries'][key]['wall_seconds']:.1f}s "
                f"x {factor:g})"
            )
    assert not failures, "; ".join(failures)


def test_no_pinned_run_hit_the_time_limit(fresh_runs):
    _, runs = fresh_runs
    truncated = sorted(
        key for key, result in runs.items()
        if result.run.stop_reason == StopReason.TIME_LIMIT
    )
    assert not truncated, (
        "pinned runs stopped at the time limit, so their cost and wall "
        f"depend on machine load: {', '.join(truncated)}"
    )


def test_solutions_still_found(fresh_runs):
    """A run that silently stopped producing library calls would pass a
    cost gate recorded against an already-broken baseline; pin the
    shape of the solutions too."""
    _, runs = fresh_runs
    for key, result in runs.items():
        assert result.best_term is not None, key
        assert result.final.library_calls, key
