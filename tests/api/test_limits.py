"""Tests for the unified Limits profile (repro.api.limits)."""

import pytest

from repro.api import Limits
from repro.pipeline import DEFAULT_LIMITS


class TestDefaults:
    def test_unified_profile(self):
        limits = Limits()
        assert limits.step_limit == 8
        assert limits.node_limit == 12_000
        assert limits.time_limit == 120.0

    def test_pipeline_defaults_derive_from_limits(self):
        assert DEFAULT_LIMITS == Limits().to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            Limits(step_limit=-1)
        with pytest.raises(ValueError):
            Limits(node_limit=0)
        with pytest.raises(ValueError):
            Limits(time_limit=0)


class TestEnvResolution:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEP_LIMIT", "3")
        monkeypatch.setenv("REPRO_NODE_LIMIT", "1234")
        monkeypatch.setenv("REPRO_TIME_LIMIT", "7.5")
        limits = Limits.from_env()
        assert limits == Limits(3, 1234, 7.5)

    def test_defaults_without_env(self, monkeypatch):
        for name in ("REPRO_STEP_LIMIT", "REPRO_NODE_LIMIT", "REPRO_TIME_LIMIT"):
            monkeypatch.delenv(name, raising=False)
        assert Limits.from_env() == Limits()

    def test_explicit_mapping(self):
        assert Limits.from_env({"REPRO_STEP_LIMIT": "2"}).step_limit == 2

    def test_pruning_knob(self):
        limits = Limits.from_env({"REPRO_RULE_PROFILE": "/tmp/p.json"})
        assert limits.rule_profile == "/tmp/p.json"
        # Empty string means unset, not "profile at path ''".
        assert Limits.from_env({"REPRO_RULE_PROFILE": ""}).rule_profile is None


class TestOverride:
    def test_partial_override(self):
        base = Limits()
        assert base.override(node_limit=99).node_limit == 99
        assert base.override(node_limit=99).step_limit == base.step_limit

    def test_noop_override_returns_self(self):
        base = Limits()
        assert base.override() is base

    def test_round_trip(self):
        limits = Limits(5, 600, 30.0)
        assert Limits.from_dict(limits.to_dict()) == limits

    def test_key_is_hashable(self):
        assert hash(Limits().key()) == hash(Limits().key())
        assert Limits(5, 600, 30.0).key() != Limits().key()
