"""tools/bench.py folds perfbench runs (result lines plus
``details.json``) of parent and change into a BENCH file: end-to-end
samples, per-pair seconds, signatures and op counts."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tool", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

_MACHINE = {"nproc": 2, "python": "3.11.7", "cpu_model": "test"}
_METRICS = [metric["name"] for metric in json.loads(
    (Path(bench.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]]


def _write_run(directory, side, seed, compile_s, rps, walls, slowdowns,
               signature, pairs=True):
    """One run's perfbench stdout and ``details.json``."""
    metrics = {name: {"value": 1.0, "unit": "x"} for name in _METRICS}
    metrics["compile_s"]["value"] = compile_s
    metrics["serve_rps"]["value"] = rps
    header = {"machine": _MACHINE, "workload": "tiny", "seed": seed, "trace": 0}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    (directory / f"{side}-{seed}.out").write_text(
        json.dumps(header) + "\n" + json.dumps(result) + "\n")
    details = {"seed": seed, "failures": []}
    if pairs:
        details["pairs"] = {"memset/blas@1": {
            "wall_s": walls, "cpu_s": walls, "slowdown": slowdowns}}
        details["signatures"] = {"memset/blas@1": [signature]}
    (directory / f"{side}-{seed}.details.json").write_text(json.dumps(details))


def test_folds_alternating_runs_into_one_workload_entry(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seed, (p, c) in enumerate([(2.0, 1.0), (2.0, 2.5), (2.4, 1.5)], 1):
        _write_run(runs, "parent", seed, p, 10.0, [2.0, 4.0, 3.0], [1.0, 2.0, 1.0], "aa")
        _write_run(runs, "change", seed, c, 10.0 + seed, [1.0], [1.0], "aa")
    # A run with no partner is left out.
    _write_run(runs, "parent", 9, 5.0, 1.0, [1.0], [1.0], "aa")
    out = tmp_path / "BENCH.json"
    assert bench.main(["--out", str(out), "--workload", "tiny",
                       "--runs", str(runs)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "repro-bench/2"
    entry = data["workloads"]["tiny"]
    assert entry["machine"] == _MACHINE
    assert entry["seeds"] == [1, 2, 3]
    assert entry["correct"] == {"parent": [True] * 3, "change": [True] * 3}
    assert set(entry["metrics"]) == set(_METRICS)
    compile_s = entry["metrics"]["compile_s"]
    assert compile_s["parent"] == [2.0, 2.0, 2.4]
    assert compile_s["change"] == [1.0, 2.5, 1.5]
    assert compile_s["parent_median"] == 2.0
    assert compile_s["change_median"] == 1.5
    assert compile_s["delta"] == pytest.approx(-0.25)
    assert compile_s["change_better_pairs"] == 2
    assert compile_s["parent_iqr"] == pytest.approx(0.2)
    # serve_rps is better higher: the change wins every pair.
    assert entry["metrics"]["serve_rps"]["change_better_pairs"] == 3
    # perfbench's reference: per run, the median of wall / slowdown.
    assert entry["pair_seconds"]["parent"] == {"memset/blas@1": [2.0, 2.0, 2.0]}
    assert entry["signatures"]["identical"] is True
    assert entry["signatures"]["change"] == {"memset/blas@1": ["aa"]}
    # One in-process saturation of the pair, on this checkout.
    ops = entry["op_counts"]["memset/blas@1"]
    assert set(ops) == set(bench.OP_FIELDS) | {"matches_admitted", "enodes"}
    assert (ops["matches_found"] >= ops["matches_admitted"] >= ops["matches_applied"]
            >= ops["effective_applications"])
    assert ops["effective_applications"] > 0 and ops["nodes_added"] > 0
    # The same saturation's in-process phase split, next to its counts.
    split = entry["phase_seconds"]["memset/blas@1"]
    assert set(split) == set(bench.PHASES)
    assert all(seconds >= 0.0 for seconds in split.values())
    assert sum(split.values()) > 0.0

    # A second workload folds into the same file; differing hashes show.
    other = tmp_path / "other"
    other.mkdir()
    _write_run(other, "parent", 1, 1.0, 1.0, [1.0], [1.0], "aa")
    _write_run(other, "change", 1, 1.0, 1.0, [1.0], [1.0], "bb")
    bench.main(["--out", str(out), "--workload", "other", "--runs", str(other)])
    data = json.loads(out.read_text())
    assert set(data["workloads"]) == {"tiny", "other"}
    assert data["workloads"]["other"]["signatures"]["identical"] is False


def test_served_mix_runs_have_no_pairs_or_signatures(tmp_path):
    for side in ("parent", "change"):
        _write_run(tmp_path, side, 1, 8.0, 20.0, [], [], "", pairs=False)
    entry = bench.fold(tmp_path)
    assert entry["metrics"]["compile_s"]["pairs"] == 1
    assert "pair_seconds" not in entry
    assert entry["signatures"]["identical"] is None
    assert entry["op_counts"] == {} and entry["phase_seconds"] == {}


def test_unpaired_runs_are_refused(tmp_path):
    _write_run(tmp_path, "parent", 1, 1.0, 1.0, [1.0], [1.0], "aa")
    _write_run(tmp_path, "change", 2, 1.0, 1.0, [1.0], [1.0], "aa")
    with pytest.raises(ValueError, match="no seed has both"):
        bench.fold(tmp_path)
