"""Tests for the command-line evaluation driver (repro.cli)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestCli:
    def test_unknown_kernel_is_an_error(self, capsys):
        assert main(["not-a-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_small_run_writes_artifacts(self, tmp_path, capsys):
        code = main([
            "memset", "-t", "blas",
            "--steps", "3", "--nodes", "2000",
            "--out", str(tmp_path), "-q",
        ])
        assert code == 0
        overview = (tmp_path / "blas-overview.csv").read_text()
        assert overview.splitlines()[0] == "name,externs,steps,nodes"
        assert overview.splitlines()[1].startswith("memset,")
        assert (tmp_path / "blas-table.txt").exists()

    def test_run_flag_times_solutions(self, tmp_path):
        code = main([
            "memset", "-t", "blas",
            "--steps", "3", "--nodes", "2000",
            "--run", "--budget", "0.02",
            "--out", str(tmp_path), "-q",
        ])
        assert code == 0
        speedups = (tmp_path / "blas-speedups.csv").read_text()
        assert speedups.splitlines()[1].startswith("memset,")

    def test_progress_lines_printed(self, capsys):
        main(["memset", "-t", "blas", "--steps", "2", "--nodes", "1000"])
        out = capsys.readouterr().out
        assert "[blas] memset" in out

    def test_record_then_prune_round_trip(self, tmp_path, capsys):
        """The telemetry feedback loop: --rule-profile records a run,
        --prune-from-profile consumes the recording."""
        profile = tmp_path / "profile.json"
        assert main([
            "memset", "-t", "blas", "--steps", "3", "--nodes", "2000",
            "--rule-profile", str(profile), "-q",
        ]) == 0
        assert profile.exists()
        # Every rule's row carries rediscovered = found - fresh, summed
        # into the aggregate.
        data = json.loads(profile.read_text())
        rows = data["runs"][0]["rule_stats"]
        assert all(0 <= row["rediscovered"] <= row["matches_found"] for row in rows.values())
        assert sum(row["rediscovered"] for row in rows.values()) > 0
        assert data["aggregate"]["R-IntroLambda"]["rediscovered"] == (
            rows["R-IntroLambda"]["rediscovered"])
        assert main([
            "memset", "-t", "blas", "--steps", "3", "--nodes", "2000",
            "--prune-from-profile", str(profile), "-q",
        ]) == 0

    def test_prune_from_missing_profile_is_an_error(self, tmp_path, capsys):
        code = main([
            "memset", "-t", "blas", "--steps", "2", "--nodes", "1000",
            "--prune-from-profile", str(tmp_path / "nope.json"), "-q",
        ])
        assert code == 1
        assert "ProfileError" in capsys.readouterr().err


class TestTopConsole:
    """``repro top``: the render function with canned payloads, and
    one live ``--once`` frame against a real daemon."""

    HEALTH = {
        "uptime_seconds": 10.0, "version": "repro-serve/1",
        "package_version": "1.0", "queue_depth": 2,
        "jobs": {"queued": 2, "running": 1, "done": 4, "failed": 1},
        "pool": {"workers": 2, "warm": True},
        "cache": {"hits": 3, "misses": 1},
        "observability": {"events_emitted": 42},
    }
    SNAPSHOT = {
        "schema": "repro-metrics/1",
        "families": {"server": {
            "jobs_submitted_total": {"kind": "counter", "samples": [
                {"labels": {"tenant": "acme"}, "value": 5.0}]},
            "jobs_completed_total": {"kind": "counter", "samples": [
                {"labels": {"tenant": "acme", "status": "done"},
                 "value": 4.0},
                {"labels": {"tenant": "acme", "status": "failed"},
                 "value": 1.0}]},
            "job_seconds": {"kind": "histogram",
                            "buckets": [1.0, 2.0],
                            "samples": [{"labels": {"tenant": "acme"},
                                         "value": {"counts": [4, 0, 0],
                                                   "count": 4,
                                                   "sum": 2.0}}]},
        }},
    }

    def test_render_top_frame(self):
        from repro.cli import _render_top

        frame = _render_top(
            "http://x:1", self.HEALTH, self.SNAPSHOT,
            [{"trace_id": "t1", "tenant": "acme", "kernel": "dot",
              "target": "blas", "outcome": "done",
              "total_seconds": 0.5, "stop_reason": "saturated"}], 10)
        assert "queue depth 2" in frame
        assert "2 queued, 1 running, 4 done, 1 failed" in frame
        assert "2 workers (warm)" in frame
        assert "hit rate 75.0%" in frame
        assert "events emitted: 42" in frame
        assert "acme" in frame and "0.50" in frame  # rps = 5 / 10s
        assert "t1" in frame and "dot/blas" in frame
        assert "saturated" in frame

    def test_render_top_handles_missing_debug_access(self):
        from repro.cli import _render_top

        frame = _render_top("http://x:1", self.HEALTH, self.SNAPSHOT,
                            None, 10)
        assert "debug endpoint unavailable" in frame

    def test_render_top_empty_daemon(self):
        from repro.cli import _render_top

        frame = _render_top("http://x:1",
                            {"uptime_seconds": 0.0},
                            {"families": {}}, [], 10)
        assert "no jobs submitted yet" in frame

    def test_top_once_against_live_daemon(self, capsys):
        from repro.api.limits import Limits
        from repro.server import ServeConfig
        from repro.server.testing import serving

        config = ServeConfig(
            host="127.0.0.1", port=0, pool_workers=0, queue_workers=1,
            limits=Limits(step_limit=2, node_limit=1000, time_limit=30.0),
        )
        with serving(config) as server:
            assert main(["top", server.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert f"repro top — {server.url}" in out
        assert "queue depth" in out
        assert "recent requests" in out

    def test_top_unreachable_daemon_is_an_error(self, capsys):
        assert main(["top", "http://127.0.0.1:9", "--once"]) == 1
        assert "error:" in capsys.readouterr().err


class TestClosedPipe:
    def test_reader_closing_the_pipe_ends_the_run_quietly(self):
        """``python -m repro ... | head`` must not end in a
        BrokenPipeError traceback.  The read end is closed before the
        child writes anything, so its first write fails."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "memset", "-t", "blas",
             "--steps", "1", "--nodes", "800"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
