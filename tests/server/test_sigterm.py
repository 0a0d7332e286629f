"""``repro serve`` under SIGTERM: the daemon takes the Ctrl-C path, exits
0 and shuts its warm pool down, so no worker process outlives it."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api.limits import Limits
from repro.server import RemoteSession

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(),
    reason="lists child processes through /proc",
)


def _stat_fields(pid: int):
    """``/proc/<pid>/stat`` after the command name: state, ppid, …"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def _children(pid: int) -> set:
    children = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None and int(fields[1]) == pid:
                children.add(int(entry.name))
    return children


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _announced_url(daemon: subprocess.Popen) -> str:
    line = daemon.stdout.readline()
    assert line.startswith("repro serve: listening on "), line
    return line.split()[4]


def test_sigterm_stops_daemon_and_pool_workers(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    with open(tmp_path / "serve.log", "w") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool-workers", "1", "-q"],
            env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=log,
            text=True,
        )
    workers: set = set()
    try:
        url = _announced_url(daemon)
        remote = RemoteSession(url, limits=Limits(step_limit=2, node_limit=800))
        assert remote.healthz()["pool"]["warm"]
        # The fork pool starts its workers with the first job.
        assert remote.report(("memset", "blas")).ok
        workers = _children(daemon.pid)
        assert workers, "the warm pool forked no worker"

        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"pool workers outlived the daemon: "
                f"{sorted(pid for pid in workers if _alive(pid))}"
            )
            time.sleep(0.05)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        daemon.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
