"""``BENCHMARK.json`` against the builder's contract and the code's own tables."""

import json
import re
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER, TABLE
from perfbench.workloads import BUILDERS, SIZES, SMOKE_SIZES

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert len(text.encode()) <= 64 * 1024
    return json.loads(text)


def test_top_level_keys(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_command_and_paths(spec):
    assert spec["paths"] == ["perfbench"]
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p for p in spec["paths"])
    command = spec["command"]
    assert 1 <= len(command) <= 32 and all(len(c) <= 200 for c in command)
    assert command == ["python3", "perfbench/run.py"]
    assert (ROOT / command[1]).is_file()


def test_workloads(spec):
    workloads = spec["workloads"]
    assert 2 <= len(workloads) <= 8
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in workloads]
    assert names == list(SIZES) == list(SMOKE_SIZES) == list(BUILDERS)


def test_end_to_end_metrics(spec):
    metrics = spec["end_to_end"]
    assert 1 <= len(metrics) <= 16
    for m in metrics:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    by_name = {m["name"]: m for m in metrics}
    assert by_name["setup_s"]["unit"] == "s" and by_name["setup_s"]["better"] == "lower"
    assert by_name["setup_s"]["bound"] == max(m["bound"] for m in metrics)
    assert set(by_name) == {
        "setup_s", "wall_s", "samples_per_s", "op_p50_ms", "peak_rss_mb", "ok_ratio"
    }


def test_per_layer_metrics_are_the_catalogue(spec):
    metrics = spec["per_layer"]
    assert 1 <= len(metrics) <= 128
    for m in metrics:
        assert set(m) == {"name", "unit", "better"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    assert {m["name"]: (m["unit"], m["better"]) for m in metrics} == PER_LAYER


def test_names_are_used_once(spec):
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))


def test_wrapper_table_entries_are_well_formed():
    for entry in TABLE:
        assert entry["span"].split(".")[0] in (
            "flsim", "core", "attacks", "nn", "optim", "metrics", "hardware", "data", "models"
        )
        assert entry["module"].startswith("repro.")
        assert ("func" in entry) != ("cls" in entry and "method" in entry)
