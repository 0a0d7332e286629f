"""Tests for parallel e-matching (repro.saturation.parallel) and its
plumbing through Runner, Limits, Session, and the CLI.

The load-bearing property is *determinism*: a parallel run must be
byte-identical to a serial run — same per-step statistics, same
extracted solution text — because scheduling, dedup, admission, and
application all stay in the parent in canonical rule order; workers
only find matches.
"""

import pickle

import pytest

from repro.egraph import EGraph
from repro.egraph.analysis import ShapeAnalysis
from repro.egraph.rewrite import rewrite
from repro.ir import parse
from repro.ir.printer import pretty
from repro.kernels import registry
from repro.rules.dsl import padd, pconst, pmul, pv
from repro.saturation import Runner, fork_available, resolve_workers
from repro.saturation.parallel import ParallelSearch, _partition
from repro.targets import blas_target

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


def _run_kernel(kernel_name: str, workers: int, **limits):
    kernel = registry.get(kernel_name)
    target = blas_target()
    egraph = EGraph(ShapeAnalysis(kernel.symbol_shapes))
    root = egraph.add_term(kernel.term)
    runner = Runner(
        egraph, target.rules, search_workers=workers, **limits
    )
    return runner.run(root, cost_model=target.cost_model)


class TestPartition:
    def test_covers_all_tasks_without_duplicates(self):
        tasks = [(i, None) for i in range(10)]
        chunks = _partition(tasks, [1.0] * 10, 3)
        flat = sorted(index for chunk in chunks for index, _ in chunk)
        assert flat == list(range(10))

    def test_heavy_task_isolated(self):
        tasks = [(i, None) for i in range(4)]
        chunks = _partition(tasks, [100.0, 1.0, 1.0, 1.0], 2)
        heavy_chunk = next(c for c in chunks if any(i == 0 for i, _ in c))
        assert len(heavy_chunk) == 1  # the expensive rule rides alone

    def test_more_buckets_than_tasks(self):
        chunks = _partition([(0, None)], [1.0], 8)
        assert len(chunks) == 1


class TestResolveWorkers:
    def test_serial_requests_stay_serial(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    @needs_fork
    def test_parallel_request_honored_with_fork(self):
        assert resolve_workers(4) == 4

    def test_no_fork_means_serial(self, monkeypatch):
        monkeypatch.setattr(
            "repro.saturation.parallel.fork_available", lambda: False
        )
        assert resolve_workers(4) == 1


@needs_fork
class TestDeterminism:
    def test_small_rule_set_identical_run(self):
        def run(workers):
            eg = EGraph()
            root = eg.add_term(parse("(x + 0) * (y + 0)"))
            rules = [
                rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x")),
                rewrite("commute", pmul(pv("a"), pv("b")), pmul(pv("b"), pv("a"))),
            ]
            from repro.extraction import AstSizeCost
            return Runner(eg, rules, step_limit=6, search_workers=workers).run(
                root, cost_model=AstSizeCost()
            )

        serial, parallel = run(1), run(3)
        assert parallel.parallel_steps > 0
        for a, b in zip(serial.steps, parallel.steps):
            assert (a.enodes, a.eclasses, a.matches, a.unions) == (
                b.enodes, b.eclasses, b.matches, b.unions
            )
        assert pretty(serial.final.best_term) == pretty(parallel.final.best_term)
        assert serial.final.best_cost == parallel.final.best_cost

    def test_kernel_solution_byte_identical(self):
        serial = _run_kernel("memset", 1, step_limit=4, node_limit=4000)
        parallel = _run_kernel("memset", 2, step_limit=4, node_limit=4000)
        assert parallel.search_workers == 2
        assert parallel.parallel_steps > 0
        assert pretty(serial.final.best_term) == pretty(parallel.final.best_term)
        assert [s.enodes for s in serial.steps] == [s.enodes for s in parallel.steps]
        assert [s.matches for s in serial.steps] == [s.matches for s in parallel.steps]
        assert serial.stop_reason == parallel.stop_reason

    def test_per_rule_telemetry_equivalent(self):
        serial = _run_kernel("memset", 1, step_limit=3, node_limit=3000)
        parallel = _run_kernel("memset", 2, step_limit=3, node_limit=3000)
        for name, stats in serial.rule_stats.items():
            other = parallel.rule_stats[name]
            assert stats.matches_found == other.matches_found, name
            assert stats.matches_applied == other.matches_applied, name
            assert stats.unions == other.unions, name

    def test_search_cpu_accumulates(self):
        parallel = _run_kernel("memset", 2, step_limit=3, node_limit=3000)
        totals = parallel.total_phases()
        assert totals.search_cpu > 0.0
        assert totals.search_cpu == pytest.approx(
            sum(s.search_seconds for s in parallel.rule_stats.values()),
            rel=1e-6,
        )


class TestFallbacks:
    def test_no_fork_runs_serial(self, monkeypatch):
        monkeypatch.setattr(
            "repro.saturation.parallel.fork_available", lambda: False
        )
        result = _run_kernel("memset", 4, step_limit=3, node_limit=3000)
        assert result.search_workers == 1
        assert result.parallel_steps == 0
        assert result.final.library_calls == {"memset": 1}

    @needs_fork
    def test_broken_pool_falls_back_and_pins_serial(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def broken_pool(*args, **kwargs):
            raise BrokenProcessPool("simulated pool failure")

        monkeypatch.setattr(
            "repro.saturation.parallel.ProcessPoolExecutor", broken_pool
        )
        result = _run_kernel("memset", 2, step_limit=3, node_limit=3000)
        # The run completes serially with identical results.
        assert result.parallel_steps == 0
        assert result.final.library_calls == {"memset": 1}
        serial = _run_kernel("memset", 1, step_limit=3, node_limit=3000)
        assert pretty(serial.final.best_term) == pretty(result.final.best_term)

    @needs_fork
    def test_broken_pool_sets_flag_once(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        calls = []

        def broken_pool(*args, **kwargs):
            calls.append(1)
            raise BrokenProcessPool("simulated")

        monkeypatch.setattr(
            "repro.saturation.parallel.ProcessPoolExecutor", broken_pool
        )
        kernel = registry.get("memset")
        target = blas_target()
        egraph = EGraph(ShapeAnalysis(kernel.symbol_shapes))
        egraph.add_term(kernel.term)
        searcher = ParallelSearch(egraph, target.rules, workers=2)
        tasks = [(0, None), (1, None)]
        searcher.run_tasks(tasks, [1.0, 1.0], None)
        assert searcher.broken
        assert not searcher.active  # subsequent steps skip the pool
        searcher.run_tasks(tasks, [1.0, 1.0], None)
        assert len(calls) == 1  # the pool was only ever attempted once


class TestEGraphSnapshot:
    def test_pickle_round_trip_drops_derived_caches(self):
        kernel = registry.get("axpy")
        egraph = EGraph(ShapeAnalysis(kernel.symbol_shapes))
        root = egraph.add_term(kernel.term)
        egraph.prepare_search()
        assert hasattr(egraph, "_op_index_cache")
        clone = pickle.loads(pickle.dumps(egraph))
        assert not hasattr(clone, "_op_index_cache")
        assert not hasattr(clone, "_size_cache")
        assert clone.num_nodes == egraph.num_nodes
        assert clone.num_classes == egraph.num_classes
        assert clone.classes_by_op().keys() == egraph.classes_by_op().keys()
        assert pretty(clone.extract_smallest(root)) == pretty(
            egraph.extract_smallest(root)
        )

    def test_prepare_search_is_idempotent(self):
        egraph = EGraph()
        egraph.add_term(parse("x + 0"))
        egraph.prepare_search()
        index = egraph.classes_by_op()
        egraph.prepare_search()
        assert egraph.classes_by_op() is index  # cache reused, not rebuilt


class TestLimitsKnob:
    def test_env_and_validation(self, monkeypatch):
        from repro.api import Limits

        monkeypatch.setenv("REPRO_SEARCH_WORKERS", "3")
        assert Limits.from_env().search_workers == 3
        monkeypatch.delenv("REPRO_SEARCH_WORKERS")
        assert Limits.from_env().search_workers == 1
        with pytest.raises(ValueError):
            Limits(search_workers=0)

    def test_workers_excluded_from_cache_key(self):
        from repro.api import Limits

        assert Limits(search_workers=4).key() == Limits().key()

    def test_workers_serialized_in_dicts(self):
        from repro.api import Limits

        limits = Limits(search_workers=4)
        assert limits.to_dict()["search_workers"] == 4
        assert Limits.from_dict(limits.to_dict()) == limits
        # Pre-parallel dicts (no key) still load.
        legacy = {"step_limit": 8, "node_limit": 12_000, "time_limit": 120.0}
        assert Limits.from_dict(legacy).search_workers == 1


@needs_fork
class TestSessionAndCli:
    def test_session_parallel_report_matches_serial(self, tmp_path):
        from repro.api import Session

        session = Session()
        serial = session.optimize(
            "memset", "blas", step_limit=3, node_limit=3000
        )
        # search_workers is excluded from the cache key on purpose: the
        # parallel request is answered by the serial run's cache entry.
        parallel = session.optimize(
            "memset", "blas", step_limit=3, node_limit=3000, search_workers=2
        )
        assert parallel is serial

    def test_cli_flag_round_trips_into_limits(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "memset", "-t", "blas", "--steps", "3", "--nodes", "3000",
            "-w", "2", "-q",
        ])
        assert code == 0

    def test_cli_parallel_output_byte_identical_to_serial(self, tmp_path, capsys):
        """vsum/axpy bind shifted pattern variables, so the workers'
        snapshots serve the unshifted-candidate memo; every artifact must
        match the serial run byte for byte (progress lines up to their
        wall-clock column)."""
        import json
        import re

        from repro.cli import main

        out = tmp_path / "out"
        provenance = tmp_path / "provenance.json"

        def run(*workers):
            assert main([
                "vsum", "axpy", "-t", "blas", "--steps", "3",
                "--out", str(out), "--provenance", str(provenance), *workers,
            ]) == 0
            stdout = re.sub(r"\d+\.\ds ", "<s> ", capsys.readouterr().out)
            runs = json.loads(provenance.read_text())["runs"]
            files = {}
            for path in sorted(out.iterdir()):
                files[path.name] = path.read_bytes()
                path.unlink()
            return stdout, runs, files

        serial = run()
        parallel = run("--search-workers", "2", "--apply-workers", "2")
        assert "blas-overview.csv" in serial[2]
        assert parallel == serial
