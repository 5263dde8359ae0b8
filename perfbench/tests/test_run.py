"""The runner's own arithmetic and flag handling, without spawning a child."""

import pytest

from perfbench import run

NAMES = ["alpha", "beta"]


def _child(setup, ops, final_eval, tail, samples=100, rss=200.0):
    slices = [setup, *ops, final_eval, tail]
    return {
        "slices_s": slices, "wall_s": sum(slices), "setup_s": setup,
        "op_ms": [1e3 * op for op in ops], "run_s": sum(ops), "samples": samples,
        "peak_rss_mb": rss, "fingerprint_id": "f", "cpu_count": 2, "blas_threads": 2,
    }


def test_each_slice_counts_at_its_fastest_child():
    children = [
        _child(1.0, [0.2, 0.9, 0.4], 0.5, 0.1, rss=200.0),
        _child(3.0, [0.6, 0.3, 0.4], 0.7, 0.1, rss=210.0),
        _child(2.0, [0.2, 0.3, 0.8], 0.6, 0.2, rss=220.0),
    ]
    metrics, per_child = run.end_to_end(children, attempted=9, failed=0)
    assert metrics["wall_s"] == pytest.approx(1.0 + (0.2 + 0.3 + 0.4) + 0.5 + 0.1)
    assert metrics["samples_per_s"] == pytest.approx(100 / 0.9)
    assert metrics["op_p50_ms"] == pytest.approx(300.0)
    assert metrics["setup_s"] == 2.0 and metrics["peak_rss_mb"] == 210.0
    assert metrics["ok_ratio"] == 1.0
    assert per_child["wall_s"] == [c["wall_s"] for c in children]
    assert per_child["op_p50_ms"] == pytest.approx([400.0, 400.0, 300.0])


def test_outcome_flags_failed_ops_and_differing_children():
    good = _child(1.0, [0.2, 0.2], 0.1, 0.1)
    other = dict(_child(1.0, [0.2], 0.1, 0.1), fingerprint_id="g")
    result = run.outcome([good, other], attempted=4, failed=1, problems=["boom"])
    assert result["metrics"]["ok_ratio"] == 0.75
    text = " | ".join(result["problems"])
    assert "boom" in text and "fingerprints differ" in text
    assert "different numbers of ops" in text and "1 of 4 ops failed" in text
    empty = run.outcome([], attempted=3, failed=3, problems=[])
    assert empty["metrics"] == {} and "no child completed" in empty["problems"]


def _result(value, per_child, fingerprint="f"):
    return {"metrics": {"wall_s": value}, "per_child": {"wall_s": per_child},
            "fingerprint_id": fingerprint}


def test_repeat_check_verdicts(capsys):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    steady = [10.0, 10.1, 10.2, 10.3]
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert run.compare_sets(spec, {"w": _result(10.0, steady)}, {"w": _result(10.5, steady)}) == []
    assert run.compare_sets(spec, {"w": _result(10.0, steady)}, {"w": _result(12.0, noisy)}) == []
    assert "unresolved" in capsys.readouterr().out
    problems = run.compare_sets(
        spec, {"w": _result(12.0, steady)}, {"w": _result(10.0, steady, fingerprint="g")}
    )
    assert len(problems) == 2 and "fingerprint differs" in problems[0]
    assert "differ by 20.0%" in problems[1]
    missing = {"w": {"metrics": {}, "per_child": {}, "fingerprint_id": "f"}}
    assert "not measured" in run.compare_sets(spec, {"w": _result(1.0, steady)}, missing)[0]


def test_traced_and_trace_1_are_one_flag():
    for flags in (["--traced"], ["--trace", "1"], ["--workload", "beta", "--traced"]):
        assert run.parse_args(flags, NAMES).traced is True
    assert run.parse_args(["--workload", "beta", "--trace", "0"], NAMES).traced is False
    assert run.parse_args(["--workload", "beta", "--check-repeat"], NAMES).check_repeat


@pytest.mark.parametrize("flags", [
    ["--traced", "--check-repeat"],
    ["--trace", "1", "--check-repeat"],
    ["--trace-out", "t.json"],
    ["--workload", "gamma"],
    ["--repeats", "3"],
])
def test_flag_combinations_that_are_not_honoured_are_refused(flags):
    with pytest.raises(SystemExit) as refused:
        run.parse_args(flags, NAMES)
    assert refused.value.code == 2
