#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py                       # all workloads, interleaved passes
    python3 perfbench/run.py --workload jfat_dense --seed 3
    python3 perfbench/run.py --traced --trace-out trace.json
    python3 perfbench/run.py --check-repeat
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1   # as the driver calls it

Closed loop, one client: every workload runs in its own cold child process,
one child at a time, BLAS threads capped at min(2, cores).  End-to-end
metrics come from untraced children; ``--traced`` (the same as ``--trace 1``)
runs a child with span wrappers installed from ``perfbench/`` instead and
reports the per-layer metrics.  ``--workload`` narrows any of these to one
workload.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when any correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.dont_write_bytecode = True  # leave no __pycache__ behind in the checkout

from perfbench import stats  # noqa: E402

WORK = ROOT / "perfbench" / ".work"
CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 3
REPEATS = 2  # interleaved passes over the workloads; 1 with --workload or --smoke
BLAS_THREADS = min(2, os.cpu_count() or 1)


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Every child compiles from source and leaves no bytecode behind, so
    # the first child of a checkout is not slower than the rest.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class ChildFailed(Exception):
    pass


def spawn(argv: List[str], timeout: float = CHILD_TIMEOUT_S) -> Tuple[str, float, float]:
    """Run one process to completion; ``(stdout, t_spawn, wall_s)``.

    Raises :class:`ChildFailed` (with the stderr tail) on a non-zero exit or
    a timeout; the process is always reaped before returning.
    """
    t_spawn = _mono()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"timed out after {timeout:.0f}s: {' '.join(argv[1:])}")
    wall = _mono() - t_spawn
    if proc.returncode != 0:
        raise ChildFailed(
            f"exit {proc.returncode}: {' '.join(argv[1:])}\n{err.strip()[-2000:]}"
        )
    return out, t_spawn, wall


def spawn_child(mode: str, workdir: Path, *extra: str) -> Tuple[dict, float, float]:
    out, t_spawn, wall = spawn(
        [sys.executable, "-m", "perfbench.child", mode, "--workdir", str(workdir), *extra]
    )
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"child {mode} printed no result")
    return json.loads(lines[-1]), t_spawn, wall


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        WORK.mkdir(parents=True, exist_ok=True)
        self.path = WORK / f"{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it


# ---------------------------------------------------------------------------
# Cold children of one workload, and the end-to-end metrics they give
# ---------------------------------------------------------------------------

def run_child(name: str, seed: int, smoke: bool, workdir: Path, traced: bool = False,
              spans_out: Path = None) -> dict:
    """One cold child of ``name``; the payload plus the parent-side timings.

    ``slices_s`` cuts the child's wall-clock, spawn to exit, into set-up,
    each op, the final evaluation and the exit.
    """
    extra = ["--workload", name, "--seed", str(seed)]
    if smoke:
        extra.append("--smoke")
    if traced:
        extra.append("--traced")
    if spans_out is not None:
        extra += ["--spans-out", str(spans_out)]
    payload, t_spawn, wall = spawn_child("run", workdir, *extra)
    payload["wall_s"] = wall
    payload["setup_s"] = setup = payload["t_ready"] - t_spawn
    payload["slices_s"] = [
        setup, *(ms / 1e3 for ms in payload["op_ms"]),
        payload["timed_s"] - payload["run_s"], wall - setup - payload["timed_s"],
    ]
    return payload


def replay(workdir: Path, seed: int, smoke: bool) -> List[str]:
    """Verify the swarm_async journal left in ``workdir`` (untimed child)."""
    try:
        spawn_child("replay", workdir, "--seed", str(seed), *(["--smoke"] if smoke else []))
    except ChildFailed as error:
        return [f"journal replay failed: {error}"]
    return []


def measure(name: str, seed: int, seconds: float, smoke: bool = False,
            verify_journal: bool = False) -> dict:
    """Repeat cold untraced children of one workload for ``seconds``.

    At least ``MIN_CHILDREN`` children run while the budget lasts, then more
    only while another fits.  A child that dies counts all its ops as failed.
    """
    got = {"children": [], "attempted": 0, "failed": 0, "problems": []}
    children = got["children"]
    start = _mono()
    with Workdir() as workdir:
        while True:
            elapsed = _mono() - start
            longest = max((c["wall_s"] for c in children), default=0.0)
            if children and not (
                (len(children) < MIN_CHILDREN and elapsed < seconds)
                or elapsed + longest <= seconds
            ):
                break
            try:
                child = run_child(name, seed, smoke, workdir)
            except ChildFailed as error:
                from perfbench.workloads import expected_ops, sizes_for

                ops = expected_ops(name, sizes_for(name, smoke))
                got["attempted"] += ops
                got["failed"] += ops
                got["problems"].append(str(error))
                break
            children.append(child)
            got["attempted"] += child["attempted"]
            got["failed"] += child["failed"]
        if verify_journal and name == "swarm_async" and children:
            got["problems"] += replay(workdir, seed, smoke)
    return got


def end_to_end(children: List[dict], attempted: int, failed: int) -> Tuple[dict, dict]:
    """``(metrics, per_child)`` of one workload from its cold children.

    Every child does the same work slice by slice (same seed, same
    fingerprint), while the host runs up to 1.6x slower in bursts shorter
    than a child.  So each slice counts at the time of the child that ran it
    fastest: ``wall_s`` is the sum of those, ``samples_per_s`` and
    ``op_p50_ms`` come from the op slices among them.  ``setup_s`` and
    ``peak_rss_mb`` are medians over the children.  ``per_child`` holds each
    child's own reading of every metric, to show the host's noise.
    """
    best = [min(column) for column in zip(*(c["slices_s"] for c in children))]
    ops = best[1:-2]
    per_child = {
        "setup_s": [c["setup_s"] for c in children],
        "wall_s": [c["wall_s"] for c in children],
        "samples_per_s": [c["samples"] / c["run_s"] for c in children],
        "op_p50_ms": [statistics.median(c["op_ms"]) for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    metrics = {
        "setup_s": statistics.median(per_child["setup_s"]),
        "wall_s": sum(best),
        "samples_per_s": children[0]["samples"] / sum(ops),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "peak_rss_mb": statistics.median(per_child["peak_rss_mb"]),
        "ok_ratio": 1.0 - failed / attempted,
    }
    return metrics, per_child


def outcome(children: List[dict], attempted: int, failed: int, problems: List[str]) -> dict:
    """One workload's pooled children: metrics, fingerprint and failed checks."""
    problems = list(problems)
    fingerprints = sorted({c["fingerprint_id"] for c in children})
    if len(fingerprints) > 1:
        problems.append(f"fingerprints differ across children: {fingerprints}")
    if len({len(c["slices_s"]) for c in children}) > 1:
        problems.append("children ran different numbers of ops")
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    if not children:
        problems.append("no child completed")
    metrics, per_child = end_to_end(children, attempted, failed) if children else ({}, {})
    return {
        "metrics": metrics, "per_child": per_child, "children": len(children),
        "attempted": attempted, "failed": failed, "problems": problems,
        "fingerprint_id": fingerprints[0] if fingerprints else None,
        "cpu_count": children[0]["cpu_count"] if children else None,
        "blas_threads": children[0]["blas_threads"] if children else None,
    }


def run_set(names: List[str], args, label: str) -> Dict[str, dict]:
    """Interleaved passes over ``names`` (A B C D A B C D), pooled per workload."""
    repeats = 1 if args.workload or args.smoke else REPEATS
    pooled = {n: {"children": [], "attempted": 0, "failed": 0, "problems": []} for n in names}
    for repeat in range(repeats):
        for name in names:
            print(f"[{label}, pass {repeat + 1}/{repeats}] {name} ...", flush=True)
            got = measure(name, args.seed, args.seconds, args.smoke,
                          verify_journal=repeat == 0 and not args.workload)
            for key, value in got.items():
                pooled[name][key] += value
    return {name: outcome(**pooled[name]) for name in names}


def compare_sets(spec: dict, first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """``--check-repeat``: two sets of the same code must agree within the bounds.

    A metric that is out of bound while the children of either set spread
    wider than that bound is reported as unresolved, not as a failure: the
    host, not the code, moved it.
    """
    problems: List[str] = []
    for name, a in first.items():
        b = second[name]
        if a["fingerprint_id"] != b["fingerprint_id"]:
            problems.append(f"{name}: fingerprint differs between the two sets")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            if key not in a["metrics"] or key not in b["metrics"]:
                problems.append(f"{name}.{key}: not measured in both sets")
                continue
            va, vb = a["metrics"][key], b["metrics"][key]
            differ = max(0.0, stats.worse_by(va, vb, metric["better"]),
                         stats.worse_by(vb, va, metric["better"]))
            noise = max((stats.spread(s["per_child"][key]) for s in (a, b)
                         if key in s["per_child"]), default=0.0)
            verdict = ("ok" if differ <= bound
                       else "unresolved" if noise > bound else "OUT OF BOUND")
            print(f"repeat-check {name:16s} {key:14s} A {va:12.4f}  B {vb:12.4f}  "
                  f"differ {100 * differ:5.1f}%  bound {100 * bound:.0f}%  "
                  f"children spread {100 * noise:5.1f}%  {verdict}")
            if verdict == "OUT OF BOUND":
                problems.append(
                    f"{name}.{key}: two sets of the same code differ by "
                    f"{100 * differ:.1f}% > bound {100 * bound:.0f}%"
                )
    return problems


# ---------------------------------------------------------------------------
# The traced run and the workload-independent layer sections
# ---------------------------------------------------------------------------

def traced(name: str, seed: int, smoke: bool, want_events: bool) -> dict:
    """Untraced, traced, untraced: per-layer metrics + tracing overhead.

    The traced child runs between two untraced ones and is compared with
    their mean, so a slow drift of the host cancels to first order.
    """
    problems: List[str] = []
    events: List[dict] = []
    with Workdir() as workdir:
        spans_out = workdir / "spans.json" if want_events else None
        before = run_child(name, seed, smoke, workdir)
        spans = run_child(name, seed, smoke, workdir, traced=True, spans_out=spans_out)
        after = run_child(name, seed, smoke, workdir)
        if name == "swarm_async":
            problems += replay(workdir, seed, smoke)
        if spans_out is not None:
            with open(spans_out, encoding="utf-8") as f:
                events = json.load(f)["traceEvents"]
    children = (before, spans, after)
    if len({c["fingerprint_id"] for c in children}) > 1:
        problems.append(
            "tracing perturbed results: fingerprints untraced/traced/untraced = "
            + "/".join(c["fingerprint_id"] for c in children)
        )
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    layers = dict(spans["layers"])
    untraced_wall = (before["wall_s"] + after["wall_s"]) / 2.0
    layers["trace.overhead_ratio"] = spans["wall_s"] / untraced_wall - 1.0
    return {
        "layers": layers, "self_table": spans["self_table"], "problems": problems,
        "events": events, "fingerprint_id": spans["fingerprint_id"],
        "attempted": attempted, "failed": failed,
    }


def shared_layers(seed: int, smoke: bool) -> Tuple[Dict[str, float], List[str]]:
    """Kernel micro table, executor-backend sweep and cold CLI timings.

    None of these depends on the workload; a traced run of one workload
    still reports them, so that it reports every per-layer name.
    """
    flag = ["--smoke"] if smoke else []
    metrics: Dict[str, float] = {}
    notes: List[str] = []
    with Workdir() as workdir:
        micro, _, _ = spawn_child("micro", workdir, *flag)
        metrics.update(micro["metrics"])
        sweep, _, _ = spawn_child("sweep", workdir, "--seed", str(seed), *flag)
    for backend, ms in sweep["round_ms"].items():
        metrics[f"flsim.executor.{backend}.round_ms"] = ms
    metrics["flsim.executor.cpu_count"] = sweep["cpu_count"]
    notes += [f"flsim.executor.{k}: {v}" for k, v in sweep["notes"].items()]
    notes.append(
        f"executor sweep on {sweep['cpu_count']} cores, {sweep['blas_threads']} BLAS threads"
    )
    _, _, metrics["cli.import_s"] = spawn([sys.executable, "-c", "import repro.cli"])
    rounds = "2" if smoke else "8"
    for method in ("fedprophet", "jfat"):
        _, _, metrics[f"cli.train_wall_s.{method}"] = spawn(
            [sys.executable, "-m", "repro", "train", "--method", method,
             "--rounds", rounds, "--seed", str(seed)]
        )
    return metrics, notes


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_end_to_end(spec: dict, name: str, result: dict) -> None:
    for metric in spec["end_to_end"]:
        key = metric["name"]
        if key not in result["metrics"]:
            continue
        line = (f"{name:16s} {key:14s} {result['metrics'][key]:12.4f} {metric['unit']:10s}"
                f" ({metric['better']} is better)  bound {100 * metric['bound']:.0f}%")
        if key in result["per_child"]:
            s = stats.summarise(result["per_child"][key])
            line += (f"  per child: median {s['median']:.4f}  q1 {s['q1']:.4f}"
                     f"  q3 {s['q3']:.4f}  n={s['n']}")
        print(line)
    ratio = result["failed"] / max(1, result["attempted"])
    print(f"{name:16s} fail_ratio     {ratio:12.4f} ratio      (lower is better)"
          f"  {result['failed']}/{result['attempted']} ops")
    print(f"{name:16s} fingerprint    {result['fingerprint_id']}  "
          f"({result['children']} cold children, {result['cpu_count']} cores, "
          f"{result['blas_threads']} BLAS threads)")


def print_layers(name: str, layers: Dict[str, float]) -> None:
    from perfbench.layers import PER_LAYER

    for metric, value in sorted(layers.items()):
        unit, better = PER_LAYER[metric]
        print(f"{name:16s} {metric:40s} {value:14.4f} {unit:8s} ({better} is better)")


def print_self_table(name: str, rows: List[dict]) -> None:
    print(f"-- {name}: self time by span (share of the timed phase)")
    for row in rows:
        print(f"   {row['name']:24s} {100 * row['share']:6.1f}%  self {row['self_s']:8.3f} s"
              f"  total {row['total_s']:8.3f} s  calls {row['calls']}")


def emit(problems: List[str], attempted: int, failed: int, metrics: Dict[str, dict]) -> int:
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({"correct": not problems, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# The two runs: untraced (end-to-end metrics) and traced (per-layer metrics).
# With --workload a metric goes by its own name, otherwise by workload.metric.
# ---------------------------------------------------------------------------

def untraced_run(spec: dict, names: List[str], args) -> int:
    sets = [run_set(names, args, "set A" if args.check_repeat else "run")]
    if args.check_repeat:
        sets.append(run_set(names, args, "set B"))
    problems: List[str] = []
    metrics: Dict[str, dict] = {}
    for results in sets:
        for name, result in results.items():
            print_end_to_end(spec, name, result)
            problems += [f"{name}: {p}" for p in result["problems"]]
    for name, result in sets[0].items():
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key in result["metrics"]:
                metrics[key if args.workload else f"{name}.{key}"] = {
                    "value": result["metrics"][key], "unit": metric["unit"],
                }
    if args.check_repeat:
        problems += compare_sets(spec, *sets)
    every = [result for results in sets for result in results.values()]
    return emit(problems, sum(r["attempted"] for r in every),
                sum(r["failed"] for r in every), metrics)


def traced_run(spec: dict, names: List[str], args) -> int:
    from perfbench.layers import PER_LAYER
    from perfbench.tracer import write_chrome_trace

    shared, notes = shared_layers(args.seed, args.smoke)
    problems: List[str] = []
    events: List[dict] = []
    metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in shared.items()}
    attempted = failed = 0
    for pid, name in enumerate(names):
        result = traced(name, args.seed, args.smoke, want_events=args.trace_out is not None)
        attempted += result["attempted"]
        failed += result["failed"]
        problems += [f"{name}: {p}" for p in result["problems"]]
        missing = sorted(set(PER_LAYER) - set(shared) - set(result["layers"]))
        if missing:
            problems.append(f"{name}: per-layer metrics not produced: {missing}")
        events += [dict(event, pid=pid) for event in result["events"]]
        print_layers(name, {**shared, **result["layers"]})
        print_self_table(name, result["self_table"])
        print(f"{name:16s} fingerprint    {result['fingerprint_id']}")
        for key, value in result["layers"].items():
            metrics[key if args.workload else f"{name}.{key}"] = {
                "value": value, "unit": PER_LAYER[key][0],
            }
    for note in notes:
        print(f"note: {note}")
    if args.trace_out is not None:
        write_chrome_trace(str(args.trace_out), events)
        print(f"wrote {len(events)} trace events to {args.trace_out}")
    return emit(problems, attempted, failed, metrics)


def parse_args(argv, workloads: List[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="run this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one workload in one pass")
    parser.add_argument("--traced", action="store_true",
                        help="the traced, per-layer run instead of the untraced one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = --traced (the form the driver passes)")
    parser.add_argument("--trace-out", type=Path,
                        help="with --traced: write the spans as Chrome-trace JSON")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two untraced sets and fail if they disagree beyond the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one child per workload (harness self-test)")
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    if args.traced and args.check_repeat:
        parser.error("--check-repeat compares untraced sets; drop --traced/--trace 1")
    if args.trace_out is not None and not args.traced:
        parser.error("--trace-out needs --traced (or --trace 1)")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if args.workload is not None:
        names = [args.workload]
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    return (traced_run if args.traced else untraced_run)(spec, names, args)


if __name__ == "__main__":
    sys.exit(main())
