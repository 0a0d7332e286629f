"""Scheduler ablation: SimpleScheduler vs BackoffScheduler.

For each tier-1 kernel (gemv, vsum, axpy) against the BLAS target this
records, per scheduler, the peak e-node count, the time-to-best-cost
(cumulative step seconds until the best solution first appears), and
the per-phase time split, into ``scheduler_ablation.csv`` under
``benchmarks/out/`` (or ``out/subset/`` when a ``REPRO_*`` knob
degrades the run).

The acceptance bar for the backoff scheduler is set on gemv — the
paper's marquee BLAS derivation and by far the heaviest of the three:
with incremental e-matching it must extract the *same best-cost
solution* as the simple scheduler while doing *less search work* and
*not exceeding* the simple scheduler's peak e-node count.  Search work
is the summed per-rule ``matches_found``: the count the search time
stands for, deterministic where wall-clock seconds are not (the CSV
keeps ``search_s``).
"""

import io

import pytest

from repro.experiments import optimize_pair, selected_kernels

from conftest import write_artifact

ABLATION_KERNELS = ("gemv", "vsum", "axpy")
TARGET = "blas"
SCHEDULERS = ("simple", "backoff")


def _kernels():
    selected = set(selected_kernels())
    return [name for name in ABLATION_KERNELS if name in selected]


def _best_step(result):
    """First step record achieving the run's best cost."""
    best = min(s.best_cost for s in result.steps)
    for record in result.steps:
        if record.best_cost == best:
            return record
    return result.final  # pragma: no cover - best always exists


def _time_to_best(result) -> float:
    """Cumulative step seconds until the best cost first appears."""
    best = min(s.best_cost for s in result.steps)
    elapsed = 0.0
    for record in result.steps:
        elapsed += record.seconds
        if record.best_cost == best:
            return elapsed
    return elapsed  # pragma: no cover


@pytest.fixture(scope="module")
def ablation_runs():
    return {
        (kernel, scheduler): optimize_pair(
            kernel, TARGET, rule_scheduler=scheduler
        )
        for kernel in _kernels()
        for scheduler in SCHEDULERS
    }


def test_scheduler_ablation_csv(ablation_runs):
    out = io.StringIO()
    out.write(
        "kernel,target,scheduler,best_cost,best_step,time_to_best_s,"
        "search_s,apply_s,rebuild_s,extract_s,"
        "peak_enodes,final_enodes,steps,stop_reason\n"
    )
    for (kernel, scheduler), result in ablation_runs.items():
        phases = result.run.total_phases()
        best = _best_step(result)
        out.write(
            f"{kernel},{TARGET},{scheduler},{best.best_cost:.1f},"
            f"{best.step},{_time_to_best(result):.3f},"
            f"{phases.search:.3f},{phases.apply:.3f},"
            f"{phases.rebuild:.3f},{phases.extract:.3f},"
            f"{max(s.enodes for s in result.steps)},"
            f"{result.final.enodes},{result.run.num_steps},"
            f"{result.run.stop_reason}\n"
        )
    write_artifact("scheduler_ablation.csv", out.getvalue())


def test_backoff_matches_simple_best_cost(ablation_runs):
    """Backoff must never trade solution quality for speed on the
    tier-1 kernels."""
    for kernel in _kernels():
        simple = ablation_runs[(kernel, "simple")]
        backoff = ablation_runs[(kernel, "backoff")]
        assert backoff.final.best_cost == pytest.approx(
            simple.final.best_cost
        ), kernel
        assert backoff.final.library_calls == simple.final.library_calls, kernel


def _matches_found(result) -> int:
    return sum(stats.matches_found for stats in result.run.rule_stats.values())


def test_gemv_backoff_faster_within_simple_peak(ablation_runs):
    """The headline claim: on the gemv BLAS run backoff finds fewer
    matches in total (less search work) without exceeding simple's
    peak e-node count."""
    if "gemv" not in _kernels():
        pytest.skip("gemv excluded by REPRO_KERNELS")
    simple = ablation_runs[("gemv", "simple")]
    backoff = ablation_runs[("gemv", "backoff")]
    assert backoff.final.library_calls == {"gemv": 1}
    simple_peak = max(s.enodes for s in simple.steps)
    backoff_peak = max(s.enodes for s in backoff.steps)
    assert backoff_peak <= simple_peak
    assert _matches_found(backoff) < _matches_found(simple)
