"""Tests for per-rule / per-phase telemetry (repro.saturation.telemetry)
and its plumbing through runner, reports, and the CLI profile dump."""

import json

import pytest

from repro.egraph import EGraph
from repro.egraph.rewrite import rewrite
from repro.ir import parse
from repro.rules.dsl import padd, pconst, pmul, pv
from repro.saturation import (
    PhaseTimings,
    RuleStats,
    Runner,
    aggregate_rule_stats,
    rule_stats_from_dict,
    rule_stats_to_dict,
)


class TestRuleStats:
    def test_round_trip(self):
        stats = RuleStats("r", search_seconds=0.5, searches=3,
                          matches_found=10, matches_applied=4, unions=2,
                          apply_seconds=0.25, nodes_added=7,
                          effective_applications=3,
                          bans=1, banned_steps=5)
        assert RuleStats.from_dict(stats.to_dict()) == stats

    def test_apply_fields_add_and_aggregate(self):
        a = RuleStats("r", apply_seconds=0.5, nodes_added=2,
                      effective_applications=1)
        b = RuleStats("r", apply_seconds=0.25, nodes_added=3,
                      effective_applications=4)
        total = aggregate_rule_stats([{"r": a.to_dict()}, {"r": b.to_dict()}])
        assert total["r"]["apply_seconds"] == pytest.approx(0.75)
        assert total["r"]["nodes_added"] == 5
        assert total["r"]["effective_applications"] == 5
        # Profiles written before the fields existed still load.
        legacy = {k: v for k, v in a.to_dict().items()
                  if k not in ("apply_seconds", "nodes_added",
                               "effective_applications")}
        assert RuleStats.from_dict(legacy).effective_applications == 0

    def test_add_accumulates(self):
        a = RuleStats("r", searches=1, matches_found=2, unions=1)
        a.add(RuleStats("r", searches=2, matches_found=3, bans=1))
        assert a.searches == 3
        assert a.matches_found == 5
        assert a.bans == 1

    def test_mapping_round_trip_sorted(self):
        stats = {"b": RuleStats("b"), "a": RuleStats("a", searches=1)}
        data = rule_stats_to_dict(stats)
        assert list(data) == ["a", "b"]
        assert rule_stats_from_dict(data) == stats
        assert rule_stats_from_dict(None) == {}

    def test_aggregate(self):
        run1 = {"r": RuleStats("r", matches_found=2).to_dict()}
        run2 = {"r": RuleStats("r", matches_found=3).to_dict(),
                "s": RuleStats("s", unions=1).to_dict()}
        total = aggregate_rule_stats([run1, run2, None])
        assert total["r"]["matches_found"] == 5
        assert total["s"]["unions"] == 1


class TestPhaseTimings:
    def test_total_and_round_trip(self):
        phases = PhaseTimings(search=1.0, apply=2.0, rebuild=0.5, extract=0.25)
        assert phases.total == pytest.approx(3.75)
        assert PhaseTimings.from_dict(phases.to_dict()) == phases


class TestRunnerTelemetry:
    def _run(self):
        eg = EGraph()
        root = eg.add_term(parse("(x + 0) * (y + 0)"))
        rules = [
            rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x")),
            rewrite("commute", pmul(pv("a"), pv("b")), pmul(pv("b"), pv("a"))),
        ]
        from repro.extraction import AstSizeCost
        return Runner(eg, rules, step_limit=6).run(
            root, cost_model=AstSizeCost())

    def test_per_rule_stats_populated(self):
        result = self._run()
        assert set(result.rule_stats) == {"add-zero", "commute"}
        add_zero = result.rule_stats["add-zero"]
        assert add_zero.searches >= 1
        assert add_zero.matches_found >= 2
        assert add_zero.matches_applied >= 2
        assert add_zero.unions >= 2
        assert result.rule_stats["commute"].matches_applied >= 1

    def test_phase_timings_on_step_records(self):
        result = self._run()
        assert result.steps[0].phases is None  # step 0: nothing ran
        for record in result.steps[1:]:
            assert record.phases is not None
            assert record.phases.total <= record.seconds + 1e-6
        total = result.total_phases()
        assert total.search > 0.0
        assert total.extract > 0.0

    def test_search_cpu_accumulates(self):
        # search_cpu is the summed per-rule matching time; the rest of
        # the search phase (dedup, admission) is search - search_cpu.
        result = self._run()
        totals = result.total_phases()
        assert totals.search_cpu > 0.0
        assert totals.search_cpu == pytest.approx(
            sum(s.search_seconds for s in result.rule_stats.values()),
            rel=1e-6,
        )
        for record in result.steps[1:]:
            assert record.phases.search_cpu <= record.phases.search + 1e-6

    def test_apply_telemetry_matches_a_counting_apply(self, monkeypatch):
        # Count what Rule.apply does, call by call, and compare with the
        # per-rule fields the runner derives from blocks of the apply
        # list.
        from repro.egraph.rewrite import Rule
        from repro.egraph import intro_fst_tuple_rule

        counts = {}
        real_apply = Rule.apply

        def counting_apply(rule, egraph, match):
            version, nodes = egraph.version, egraph.num_nodes
            made = real_apply(rule, egraph, match)
            row = counts.setdefault(rule.name, [0, 0, 0, 0])
            row[0] += 1
            row[1] += egraph.version != version
            row[2] += egraph.num_nodes - nodes
            row[3] += made
            return made

        monkeypatch.setattr(Rule, "apply", counting_apply)
        eg = EGraph()
        root = eg.add_term(parse("(x + 0) * (y + 0)"))
        rules = [
            rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x")),
            rewrite("commute", pmul(pv("a"), pv("b")), pmul(pv("b"), pv("a"))),
            intro_fst_tuple_rule(max_candidates=2),
        ]
        result = Runner(eg, rules, step_limit=3).run(root)
        assert set(counts) == set(result.rule_stats)
        for name, (applied, effective, nodes, unions) in counts.items():
            stats = result.rule_stats[name]
            assert stats.matches_applied == applied
            assert stats.effective_applications == effective
            assert stats.nodes_added == nodes
            assert stats.unions == unions
            assert stats.apply_seconds > 0.0
        # The run did both kinds of work: no-op and effective matches,
        # and rules that add nodes besides rules that only merge.
        total = sum(row[0] for row in counts.values())
        assert 0 < sum(row[1] for row in counts.values()) < total
        assert counts["add-zero"][2] == 0
        assert counts["R-IntroFstTuple"][2] > 0
        applies = sum(s.apply_seconds for s in result.rule_stats.values())
        assert applies <= result.total_phases().apply + 1e-6

    def test_duplicate_rule_names_disambiguated(self):
        eg = EGraph()
        root = eg.add_term(parse("x + 0"))
        rule = rewrite("same", padd(pv("x"), pconst(0)), pv("x"))
        clone = rewrite("same", padd(pv("a"), pconst(0)), pv("a"))
        result = Runner(eg, [rule, clone], step_limit=3).run(root)
        assert set(result.rule_stats) == {"same", "same#2"}


class TestReportTelemetry:
    def test_report_carries_stats_and_phases(self):
        from repro.api import Limits, OptimizationReport
        from repro.kernels import registry
        from repro.pipeline import optimize
        from repro.targets import blas_target

        result = optimize(registry.get("memset"), blas_target(),
                          step_limit=3, node_limit=2000)
        report = OptimizationReport.from_result(result, Limits(3, 2000))
        assert report.scheduler == "simple"
        assert report.rule_stats
        assert any(s["matches_found"] > 0 for s in report.rule_stats.values())
        assert set(report.phase_seconds) == {
            "search", "apply", "rebuild", "extract", "search_cpu",
        }
        # The whole report still round-trips through JSON.
        restored = OptimizationReport.from_json(report.to_json())
        assert restored.rule_stats == report.rule_stats
        assert restored.phase_seconds == report.phase_seconds

    def test_legacy_report_dicts_still_load(self):
        from repro.api import OptimizationReport

        legacy = {
            "kernel": "gemv", "target": "blas", "limits": {},
            "solution": None, "solution_summary": "(no library calls)",
            "library_calls": {}, "best_cost": None, "steps": 2,
            "enodes": 10, "stop_reason": "saturated", "seconds": 0.1,
            "cache_hit": False, "error": None,
        }
        report = OptimizationReport.from_dict(legacy)
        assert report.rule_stats is None
        assert report.phase_seconds is None
        assert report.scheduler == "simple"


class TestCliRuleProfile:
    def test_profile_json_schema(self, tmp_path):
        from repro.cli import main

        profile_path = tmp_path / "profile.json"
        code = main([
            "memset", "-t", "blas", "--steps", "3", "--nodes", "2000",
            "--scheduler", "backoff", "--rule-profile", str(profile_path),
            "-q",
        ])
        assert code == 0
        profile = json.loads(profile_path.read_text())
        assert profile["schema"] == "repro-rule-profile/1"
        assert profile["limits"]["scheduler"] == "backoff"
        runs = profile["runs"]
        assert len(runs) == 1
        assert runs[0]["kernel"] == "memset"
        assert runs[0]["target"] == "blas"
        assert runs[0]["rule_stats"]
        aggregate = profile["aggregate"]
        assert any(s["matches_found"] > 0 for s in aggregate.values())
        assert all(
            set(s) >= {"search_seconds", "matches_found", "matches_applied",
                       "unions", "apply_seconds", "nodes_added",
                       "effective_applications", "bans", "banned_steps"}
            for s in aggregate.values()
        )
