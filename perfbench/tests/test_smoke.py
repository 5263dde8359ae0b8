"""The harness end to end at ``--smoke`` sizes, and in a bare directory."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run(argv, cwd, timeout=170):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


def test_smoke_run_reports_every_workload_and_metric():
    start = time.monotonic()
    proc = _run(["perfbench/run.py", "--smoke"], ROOT)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]
    }
    assert expected <= set(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert elapsed < 20, f"smoke run took {elapsed:.1f}s"
    assert not (ROOT / "perfbench" / ".work").exists()


def test_traced_smoke_of_one_workload_reports_every_per_layer_metric(tmp_path):
    trace = tmp_path / "trace.json"
    proc = _run(
        ["perfbench/run.py", "--workload", "swarm_async", "--seed", "5", "--seconds", "1",
         "--trace", "1", "--smoke", "--trace-out", str(trace)], ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] is True
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert result["metrics"]["flsim.journal.kb"]["value"] > 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["name"] == "flsim.local_train" for e in events)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    proc = _run(
        ["perfbench/run.py", "--workload", "jfat_dense", "--seed", "1", "--seconds", "1",
         "--trace", "0"], tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
