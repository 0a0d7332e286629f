"""Tests for request/report types and their JSON round-trips."""

import json

import pytest

from repro.api import (
    Limits,
    OptimizationReport,
    OptimizationRequest,
    report_cache_key,
    shapes_to_spec,
    spec_to_shapes,
)
from repro.ir.shapes import Array, Fn, Scalar, vector
from repro.ir.terms import Symbol


class TestShapeSpecs:
    def test_round_trip(self):
        shapes = {"xs": vector(8), "A": Array((4, 8)), "alpha": Scalar()}
        spec = shapes_to_spec(shapes)
        assert spec == {"A": [4, 8], "alpha": "scalar", "xs": [8]}
        assert spec_to_shapes(spec) == shapes

    def test_none_passthrough(self):
        assert shapes_to_spec(None) is None
        assert spec_to_shapes(None) is None

    def test_exotic_shapes_rejected(self):
        with pytest.raises(TypeError):
            shapes_to_spec({"f": Fn(Scalar(), Scalar())})


class TestOptimizationRequest:
    def test_kernel_request_round_trip(self):
        request = OptimizationRequest(kernel="gemv", target="blas", step_limit=5)
        clone = OptimizationRequest.from_json(request.to_json())
        assert clone == request

    def test_term_request_round_trip(self):
        request = OptimizationRequest(
            target="blas",
            term="build 8 (λ xs[•0])",
            symbol_shapes={"xs": [8]},
            name="copy8",
        )
        assert OptimizationRequest.from_json(request.to_json()) == request
        assert request.display_name == "copy8"

    def test_exactly_one_of_kernel_or_term(self):
        with pytest.raises(ValueError):
            OptimizationRequest(target="blas")
        with pytest.raises(ValueError):
            OptimizationRequest(target="blas", kernel="gemv", term="xs")

    def test_json_is_plain_data(self):
        data = json.loads(OptimizationRequest(kernel="gemv", target="blas").to_json())
        assert data == {"kernel": "gemv", "target": "blas"}


class TestOptimizationReport:
    def _report(self, **overrides) -> OptimizationReport:
        base = dict(
            kernel="gemv",
            target="blas",
            limits=Limits().to_dict(),
            solution="gemv(alpha, A, B, beta, C)",
            solution_summary="1 × gemv",
            library_calls={"gemv": 1},
            best_cost=123.5,
            steps=4,
            enodes=2345,
            stop_reason="saturated",
            seconds=1.25,
        )
        base.update(overrides)
        return OptimizationReport(**base)

    def test_json_round_trip(self):
        report = self._report()
        clone = OptimizationReport.from_json(report.to_json())
        assert clone == report

    def test_infinite_cost_round_trips(self):
        report = self._report(best_cost=float("inf"), solution=None,
                              solution_summary="(no library calls)")
        text = report.to_json()
        assert "Infinity" not in text  # strict JSON stays strict
        assert OptimizationReport.from_json(text).best_cost == float("inf")

    def test_from_result_and_best_term(self):
        from repro.api import Session

        session = Session(Limits(step_limit=2, node_limit=500))
        result = session.optimize("memset", "blas")
        report = OptimizationReport.from_result(result, Limits(2, 500, 120.0))
        assert report.kernel == "memset"
        assert report.library_calls == result.library_calls
        assert report.best_term == result.best_term  # parses back to the term
        assert report.ok

    def test_time_truncated_reports_are_not_deterministic(self):
        for stop_reason, expected in (
            ("saturated", True), ("step_limit", True),
            ("node_limit", True), ("time_limit", False),
        ):
            report = self._report(stop_reason=stop_reason)
            assert report.deterministic is expected
            data = json.loads(report.to_json())
            assert data["deterministic"] is expected
            clone = OptimizationReport.from_json(report.to_json())
            assert clone == report and clone.deterministic is expected

    def test_from_result_marks_a_time_limited_run(self):
        from repro.api import Session

        session = Session(Limits(step_limit=50, time_limit=1e-6))
        result = session.optimize("gemv", "blas")
        report = OptimizationReport.from_result(result, session.limits)
        assert report.stop_reason == "time_limit"
        assert report.deterministic is False
        assert json.loads(report.to_json())["deterministic"] is False

    def test_error_report(self):
        report = OptimizationReport.from_error(
            {"kernel": "gemv", "target": "blas", "limits": {}}, "boom"
        )
        assert not report.ok
        assert report.error == "boom"
        assert OptimizationReport.from_json(report.to_json()) == report

    def test_to_dict_serializes_like_a_deep_copy(self):
        from dataclasses import asdict

        from repro.api import Session

        session = Session(Limits(step_limit=2, node_limit=800, top_k=2,
                                 metrics=True))
        result = session.optimize("vsum", "blas")
        error = OptimizationReport.from_error(
            {"kernel": "gemv", "target": "blas", "limits": {"steps": 2}}, "boom")
        real = OptimizationReport.from_result(result, session.limits, 0.5)
        assert real.rule_stats and real.candidates and real.metrics
        for report in (real, error):
            deep = asdict(report)
            deep["best_cost"] = report.to_dict()["best_cost"]
            deep["deterministic"] = report.deterministic
            data = report.to_dict()
            assert json.dumps(data, sort_keys=True) == json.dumps(deep, sort_keys=True)
            assert report.to_json() == json.dumps(deep, sort_keys=True)
            # The top-level containers are copies of the report's.
            assert data["limits"] is not report.limits
            assert data["library_calls"] is not report.library_calls


class TestCacheKey:
    def test_stable_and_discriminating(self):
        key = report_cache_key("xs", {"xs": [8]}, "blas", (8, 12_000, 120.0))
        assert key == report_cache_key("xs", {"xs": [8]}, "blas", (8, 12_000, 120.0))
        assert key != report_cache_key("ys", {"xs": [8]}, "blas", (8, 12_000, 120.0))
        assert key != report_cache_key("xs", {"xs": [9]}, "blas", (8, 12_000, 120.0))
        assert key != report_cache_key("xs", {"xs": [8]}, "pytorch", (8, 12_000, 120.0))
        assert key != report_cache_key("xs", {"xs": [8]}, "blas", (9, 12_000, 120.0))
