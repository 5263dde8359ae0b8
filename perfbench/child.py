"""The measured process: one workload, once, cold.

``python -m perfbench.child <mode> ...`` is spawned by ``run.py`` with
``PYTHONPATH`` pointing at ``src``.  Modes:

* ``run``     one workload (untraced, or ``--traced`` with span wrappers
              installed from ``perfbench/`` before anything is built)
* ``replay``  verify ``swarm_async``'s journal with ``replay_run`` (untimed)
* ``sweep``   one sync round per ``executor_backend`` on the swarm geometry
* ``micro``   the kernel micro-benchmark table

The last line of stdout is one JSON object.  Times shared with the parent
use ``CLOCK_MONOTONIC``, which is system-wide.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _blas_threads() -> int:
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def mode_run(args) -> int:
    import repro  # noqa: F401  (timed: part of set-up)
    import repro.baselines  # noqa: F401
    from perfbench import workloads as wl

    size = wl.sizes_for(args.workload, args.smoke)

    tracer = undo = None
    if args.traced:
        from perfbench import layers
        from perfbench.tracer import Tracer, install

        tracer = Tracer()
        undo = install(tracer, layers.TABLE)

    def on_op(op_idx: int) -> None:
        if tracer is not None:
            tracer.round_id = op_idx

    exp = wl.BUILDERS[args.workload](size, args.seed, args.workdir)
    try:
        if "modules" in size and len(exp.partition) != size["modules"]:
            raise RuntimeError(
                f"{args.workload}: partition has {len(exp.partition)} modules, "
                f"the frozen workload expects {size['modules']}"
            )
        t_ready = _mono()
        scaffold = tracer.span if tracer is not None else None
        if args.workload == "robust_eval":
            timed = wl.run_eval_passes(exp, size, args.seed, on_op, scaffold)
        else:
            timed = wl.run_training(exp, size, on_op, scaffold)
        fp = wl.fingerprint(exp, timed.results)
        facts = wl.facts(exp)
    finally:
        exp.close()
        if undo is not None:
            from perfbench.tracer import uninstall

            uninstall(undo)

    out = {
        "t_ready": t_ready,
        "run_s": timed.run_window[1] - timed.run_window[0],
        "timed_s": timed.timed_window[1] - timed.timed_window[0],
        "op_ms": timed.op_ms,
        "samples": timed.samples,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "fingerprint": fp,
        "fingerprint_id": wl.fingerprint_id(fp),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        from perfbench import layers
        from perfbench.tracer import (
            START, chrome_trace, self_time_table, write_chrome_trace,
        )

        out["layers"] = layers.layer_metrics(
            tracer, timed.op_ms, timed.run_window, timed.timed_window, facts
        )
        t0 = timed.timed_window[0]
        out["self_table"] = self_time_table(
            [s for s in tracer.spans if s[START] >= t0], out["timed_s"]
        )[:12]
        if args.spans_out:
            write_chrome_trace(
                args.spans_out, chrome_trace(tracer.spans, label=args.workload)
            )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def mode_replay(args) -> int:
    from repro.flsim import replay_run
    from perfbench import workloads as wl

    size = wl.sizes_for("swarm_async", args.smoke)
    journal = os.path.join(args.workdir, "run.jsonl")
    # Checkpoint events are verified too, so the replay rewrites them:
    # same basename (the events name it), its own directory.
    replay_dir = os.path.join(args.workdir, "replay")
    os.makedirs(replay_dir, exist_ok=True)
    report = replay_run(
        journal, lambda: wl.build_swarm_async(size, args.seed, replay_dir)
    )
    _emit({"events_verified": report.events_verified, "rounds": report.rounds,
           "merges": report.merges, "skipped_checkpoints": report.skipped_checkpoints})
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP = {
    "serial": dict(executor_backend="serial"),
    "thread2": dict(executor_backend="thread", round_parallelism=2),
    "process2": dict(executor_backend="process", round_parallelism=2),
    "batched_w1": dict(executor_backend="batched", fusion_width=1),
    "batched_w4": dict(executor_backend="batched", fusion_width=4),
    "batched_w8": dict(executor_backend="batched", fusion_width=8),
}
SWEEP_ROUNDS = 4  # the first warms replicas and pools; the median of the rest is reported


def mode_sweep(args) -> int:
    from perfbench import workloads as wl

    size = dict(wl.sizes_for("swarm_async", args.smoke), rounds=SWEEP_ROUNDS)
    rows, notes = {}, {}
    for label, engine in SWEEP.items():
        try:
            config = wl.swarm_config(size, args.seed, None, sync=True, **engine)
            exp = wl.build_swarm_async(size, args.seed, args.workdir, config=config)
        except (TypeError, ValueError) as refused:
            rows[label], notes[label] = 0.0, f"skipped: config refused ({refused})"
            continue
        try:
            timed = wl.run_training(exp, dict(size, final_eval_samples=8))
        finally:
            exp.close()
        rows[label] = statistics.median(timed.op_ms[1:])
    _emit({"round_ms": rows, "notes": notes, "cpu_count": os.cpu_count(),
           "blas_threads": _blas_threads()})
    return 0


# ---------------------------------------------------------------------------
# micro
# ---------------------------------------------------------------------------

def mode_micro(args) -> int:
    from perfbench import micro

    rounds, number = (3, 2) if args.smoke else (micro.ROUNDS, micro.NUMBER)
    _emit({"metrics": micro.metrics(micro.measure(rounds, number))})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("run", "replay", "sweep", "micro"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    return {"run": mode_run, "replay": mode_replay, "sweep": mode_sweep,
            "micro": mode_micro}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
