"""Tests for the Session facade: caching, batching, custom targets,
and the legacy shim surface."""

import pytest

from repro.api import (
    Limits,
    OptimizationRequest,
    Session,
    TargetRegistry,
    target_registry,
)
from repro.api.session import _execute_payload
from repro.ir import pretty
from repro.ir.builders import build, lam, sym, v
from repro.ir.shapes import vector
from repro.kernels import registry as kernel_registry
from repro.targets.base import blas_target

FAST = Limits(step_limit=2, node_limit=500)
PAIRS = [
    ("memset", "blas"),
    ("vsum", "blas"),
    ("memset", "pytorch"),
    ("vsum", "pytorch"),
]


@pytest.fixture
def clone_target():
    """A custom target registered under a fresh name for the test."""

    def factory():
        target = blas_target()
        target.name = "test-blas-clone"
        return target

    target_registry.register("test-blas-clone", factory)
    yield "test-blas-clone"
    target_registry.unregister("test-blas-clone")


class TestOptimize:
    def test_repeat_returns_identical_object(self):
        session = Session(FAST)
        first = session.optimize("memset", "blas")
        second = session.optimize("memset", "blas")
        assert first is second
        assert session.runs == 1

    def test_distinct_limits_distinct_runs(self):
        session = Session(FAST)
        first = session.optimize("memset", "blas")
        second = session.optimize("memset", "blas", step_limit=1)
        assert first is not second
        assert session.runs == 2

    def test_kernel_and_target_objects_accepted(self):
        session = Session(FAST)
        kernel = kernel_registry.get("memset")
        result = session.optimize(kernel, blas_target())
        assert result.kernel_name == "memset"
        assert result.target_name == "blas"

    def test_limits_resolve_through_session(self):
        session = Session(Limits(step_limit=1, node_limit=400))
        result = session.optimize("memset", "blas")
        assert result.run.num_steps <= 1

    def test_unknown_names_fail_fast(self):
        session = Session(FAST)
        with pytest.raises(KeyError):
            session.optimize("not-a-kernel", "blas")
        with pytest.raises(ValueError, match="unknown target"):
            session.optimize("memset", "cuda")

    def test_identical_terms_share_saturation_but_keep_their_names(self):
        # jacobi1d and blur1d are distinct table-I kernels whose IR
        # terms are byte-identical (both uniform 3-point stencils), so
        # the content-addressed cache reuses one saturation run — but
        # each caller must get a result labeled with its own kernel.
        session = Session(FAST)
        first = session.optimize("jacobi1d", "blas")
        second = session.optimize("blur1d", "blas")
        assert session.runs == 1  # one saturation served both
        assert first.kernel_name == "jacobi1d"
        assert second.kernel_name == "blur1d"
        assert second.best_term == first.best_term
        assert session.optimize("blur1d", "blas") is second


class TestOptimizeMany:
    def test_batch_uses_the_process_pool(self, monkeypatch):
        session = Session(FAST)
        pooled = []
        original = session._execute_pool

        def spy(payloads, max_workers):
            pooled.append(len(payloads))
            return original(payloads, max_workers)

        monkeypatch.setattr(session, "_execute_pool", spy)
        reports = session.optimize_many(PAIRS)
        assert pooled == [len(PAIRS)]
        assert [r.kernel for r in reports] == [k for k, _ in PAIRS]
        assert [r.target for r in reports] == [t for _, t in PAIRS]
        assert all(r.ok for r in reports)
        assert all(not r.cache_hit for r in reports)
        assert session.runs == len(PAIRS)

    def test_second_invocation_is_all_cache_hits(self):
        session = Session(FAST)
        session.optimize_many(PAIRS)
        runs_after_first = session.runs
        again = session.optimize_many(PAIRS)
        assert all(r.cache_hit for r in again)
        assert session.runs == runs_after_first  # no re-saturation
        assert [(r.kernel, r.target, r.solution_summary) for r in again] == [
            (r.kernel, r.target, r.solution_summary)
            for r in session.optimize_many(PAIRS, parallel=False)
        ]

    def test_serial_and_parallel_agree(self):
        parallel = Session(FAST).optimize_many(PAIRS)
        serial = Session(FAST).optimize_many(PAIRS, parallel=False)
        assert [(r.solution, r.library_calls) for r in parallel] == [
            (r.solution, r.library_calls) for r in serial
        ]

    def test_single_run_matches_batch_report(self):
        session = Session(FAST)
        result = session.optimize("vsum", "blas")
        report = session.optimize_many([("vsum", "blas")])[0]
        assert report.cache_hit  # optimize() already populated the cache
        assert report.best_term == result.best_term
        assert report.seconds > 0  # real saturation time, not 0.0

    def test_identical_term_reports_keep_their_names(self):
        session = Session(FAST)
        reports = session.optimize_many(
            [("jacobi1d", "blas"), ("blur1d", "blas")], parallel=False
        )
        assert [r.kernel for r in reports] == ["jacobi1d", "blur1d"]
        assert session.runs == 1  # cold batch deduped by content key
        again = session.optimize_many([("jacobi1d", "blas")], parallel=False)[0]
        assert again.cache_hit
        assert again.kernel == "jacobi1d"

    def test_term_requests(self):
        request = OptimizationRequest(
            target="blas",
            term=pretty(build(8, lam(sym("xs")[v(0)]))),
            symbol_shapes={"xs": [8]},
            name="copy8",
        )
        session = Session(FAST)
        report = session.optimize_many([request], parallel=False)[0]
        assert report.ok
        assert report.kernel == "copy8"
        assert report.solution is not None

    def test_request_validation_fails_fast(self):
        session = Session(FAST)
        with pytest.raises(ValueError, match="unknown target"):
            session.optimize_many([("memset", "cuda")])
        with pytest.raises(KeyError):
            session.optimize_many([("nope", "blas")])
        with pytest.raises(TypeError):
            session.optimize_many(["memset"])

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        session = Session(FAST)

        def broken(payloads, max_workers):
            raise BrokenProcessPool("worker died")

        monkeypatch.setattr(session, "_execute_pool", broken)
        reports = session.optimize_many(PAIRS)
        assert all(r.ok for r in reports)
        assert [r.kernel for r in reports] == [k for k, _ in PAIRS]

    def test_persistent_pool_survives_batches(self):
        from repro.api.session import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        session = Session(FAST)
        assert not session.pool_warm
        assert session.start_pool(2)
        assert session.pool_warm
        try:
            # Single-request batches route through the warm pool too
            # (the `repro serve` job path) and the pool stays up.
            first = session.optimize_many([("memset", "blas")])
            second = session.optimize_many([("vsum", "blas")])
            assert first[0].ok and second[0].ok
            assert session.pool_warm
            assert session.start_pool(2)  # idempotent while warm
        finally:
            session.close_pool()
        assert not session.pool_warm

    def test_worker_errors_become_error_reports(self):
        payload = {
            "target": "blas",
            "limits": FAST.to_dict(),
            "term": "build 8 (λ",  # malformed IR
            "name": "broken",
        }
        report_dict = _execute_payload(payload, target_registry)
        assert report_dict["error"] is not None
        assert report_dict["kernel"] == "broken"


class TestCustomTargets:
    def test_custom_target_through_batch_path(self, clone_target):
        session = Session(FAST)
        reports = session.optimize_many(
            [("memset", clone_target), ("memset", "blas")]
        )
        assert all(r.ok for r in reports)
        # Same rules + cost model → identical solution via either name.
        assert reports[0].solution == reports[1].solution
        assert reports[0].target == clone_target

    def test_custom_target_single_run(self, clone_target):
        session = Session(FAST)
        result = session.optimize("memset", clone_target)
        assert result.target_name == clone_target
        assert result.library_calls == {"memset": 1}

    def test_unregistered_name_fails_in_both_entry_points(self):
        name = "test-unreg"
        target_registry.register(name, blas_target)
        try:
            session = Session(FAST)
            session.optimize("memset", name)
        finally:
            target_registry.unregister(name)
        with pytest.raises(ValueError, match="unknown target"):
            session.optimize("memset", name)
        with pytest.raises(ValueError, match="unknown target"):
            session.optimize_many([("memset", name)])

    def test_reregistration_invalidates_session_cache(self):
        from repro.targets.base import pure_c_target

        name = "test-rereg"

        def make_blas():
            target = blas_target()
            target.name = name
            return target

        def make_pure():
            target = pure_c_target()
            target.name = name
            return target

        target_registry.register(name, make_blas)
        try:
            session = Session(FAST)
            first = session.optimize("memset", name)
            assert first.library_calls == {"memset": 1}
            target_registry.register(name, make_pure, overwrite=True)
            second = session.optimize("memset", name)
            assert session.runs == 2  # stale cached result not served
            assert second.library_calls == {}
        finally:
            target_registry.unregister(name)

    def test_adhoc_target_entries_evicted_on_collection(self):
        import gc

        session = Session(FAST)
        target = blas_target()
        session.optimize("memset", target)
        session.optimize("memset", target)
        assert session.runs == 1  # second call answered from cache
        assert len(session.cache) > 0
        del target
        gc.collect()
        assert len(session.cache) == 0
        assert session._adhoc_tokens == {}
        assert session._adhoc_keys == {}

    def test_private_registry_sessions_stay_in_process(self):
        registry = TargetRegistry()
        registry.register("private-blas", blas_target)
        session = Session(FAST, registry=registry)
        reports = session.optimize_many(
            [("memset", "private-blas"), ("vsum", "private-blas")]
        )
        assert all(r.ok for r in reports)
        with pytest.raises(ValueError, match="unknown target"):
            session.optimize_many([("memset", "blas")])  # not in private registry

    def test_private_kernel_registry_sessions_stay_in_process(self):
        import dataclasses

        from repro.kernels.base import KernelRegistry

        kernels = KernelRegistry()
        kernels.register(dataclasses.replace(
            kernel_registry.get("memset"), name="my-memset"
        ))
        session = Session(FAST, kernels=kernels)
        reports = session.optimize_many(
            [("my-memset", "blas"), ("my-memset", "pytorch")]
        )
        assert all(r.ok for r in reports)
        assert [r.kernel for r in reports] == ["my-memset", "my-memset"]


class TestDiskCache:
    def test_reports_persist_across_sessions(self, tmp_path):
        first = Session(FAST, cache_dir=tmp_path)
        first.optimize_many(PAIRS, parallel=False)
        assert first.runs == len(PAIRS)
        assert len(list(tmp_path.glob("*.json"))) == len(PAIRS)

        second = Session(FAST, cache_dir=tmp_path)
        reports = second.optimize_many(PAIRS, parallel=False)
        assert all(r.cache_hit for r in reports)
        assert second.runs == 0  # answered entirely from disk
        assert second.cache.stats.disk_hits == len(PAIRS)

    def test_unreadable_entries_degrade_to_miss(self, tmp_path, monkeypatch):
        from pathlib import Path

        session = Session(FAST, cache_dir=tmp_path)
        session.optimize_many([("memset", "blas")], parallel=False)

        def racy_read(self, *args, **kwargs):
            # A concurrent session deleted the entry between the lookup
            # and the read.
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "read_text", racy_read)
        fresh = Session(FAST, cache_dir=tmp_path)
        reports = fresh.optimize_many([("memset", "blas")], parallel=False)
        assert reports[0].ok
        assert not reports[0].cache_hit

    def test_custom_targets_stay_off_disk(self, tmp_path):
        name = "test-gen-disk"

        def make():
            target = blas_target()
            target.name = name
            return target

        target_registry.register(name, make)
        try:
            # A registered name is a process-local binding: another
            # process may bind a different definition to the same name
            # over the same cache directory, so no custom target — not
            # even a first registration — reaches the disk tier...
            session = Session(FAST, cache_dir=tmp_path)
            session.optimize_many([("memset", name)], parallel=False)
            assert list(tmp_path.glob("*.json")) == []
            # ...and re-registering keeps it off disk too...
            target_registry.register(name, make, overwrite=True)
            session.optimize_many([("memset", name)], parallel=False)
            assert list(tmp_path.glob("*.json")) == []
            # ...but the in-memory tier still serves repeats.
            again = session.optimize_many([("memset", name)], parallel=False)[0]
            assert again.cache_hit
        finally:
            target_registry.unregister(name)

    def test_corrupt_entries_degrade_to_miss(self, tmp_path):
        session = Session(FAST, cache_dir=tmp_path)
        session.optimize_many([("memset", "blas")], parallel=False)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        fresh = Session(FAST, cache_dir=tmp_path)
        reports = fresh.optimize_many([("memset", "blas")], parallel=False)
        assert reports[0].ok
        assert not reports[0].cache_hit


class TestTimeTruncatedRunsStayUncached:
    """A run stopped by the wall clock depends on machine load, so it
    must be re-executed rather than served from either cache tier."""

    TRUNCATED = Limits(step_limit=4, node_limit=5000, time_limit=1e-9)

    def test_reports_rerun_and_never_reach_disk(self, tmp_path):
        session = Session(self.TRUNCATED, cache_dir=tmp_path)
        first = session.optimize_many([("vsum", "blas")], parallel=False)[0]
        assert first.ok and first.stop_reason == "time_limit"
        second = session.optimize_many([("vsum", "blas")], parallel=False)[0]
        assert not second.cache_hit
        assert session.runs == 2
        assert list(tmp_path.iterdir()) == []

    def test_results_rerun_and_never_reach_disk(self, tmp_path):
        session = Session(self.TRUNCATED, cache_dir=tmp_path)
        first = session.optimize("vsum", "blas")
        assert first.run.stop_reason == "time_limit"
        second = session.optimize("vsum", "blas")
        assert second is not first
        assert session.runs == 2
        assert list(tmp_path.iterdir()) == []


class TestLegacyShims:
    def test_module_level_optimize_matches_pipeline(self):
        import repro
        from repro.pipeline import optimize as pipeline_optimize

        kernel = kernel_registry.get("vsum")
        direct = pipeline_optimize(
            kernel, blas_target(), step_limit=3, node_limit=1500
        )
        shimmed = repro.optimize(
            kernel, repro.make_target("blas"), step_limit=3, node_limit=1500
        )
        assert shimmed.best_term == direct.best_term
        assert shimmed.library_calls == direct.library_calls

    def test_module_level_optimize_accepts_names(self):
        import repro

        result = repro.optimize("memset", "blas", step_limit=2, node_limit=500)
        assert result.kernel_name == "memset"
        assert result.library_calls == {"memset": 1}

    def test_module_level_optimize_term(self):
        import repro
        from repro.pipeline import optimize_term as pipeline_optimize_term

        term = build(8, lam(sym("xs")[v(0)] + sym("ys")[v(0)]))
        shapes = {"xs": vector(8), "ys": vector(8)}
        direct = pipeline_optimize_term(
            term, blas_target(), shapes, step_limit=3, node_limit=1500
        )
        shimmed = repro.optimize_term(
            term, "blas", shapes, step_limit=3, node_limit=1500
        )
        assert shimmed.best_term == direct.best_term

    def test_make_target_serves_registered_names(self, clone_target):
        import repro

        assert repro.make_target(clone_target).name == clone_target
