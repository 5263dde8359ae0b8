#!/usr/bin/env python
"""The measurement behind ``repro.nn.conv.STREAM_SCRATCH_BYTES``.

A streamed conv pass (every forward under ``no_param_grads`` and every input
gradient) builds its columns a piece of the batch at a time in one scratch
of that many bytes.  A smaller scratch holds fewer bytes and makes more,
smaller GEMM calls.  This script runs perfbench's ``jfat_dense`` and
``robust_eval`` timed phases (training plus final evaluation, or the
evaluation passes) at a range of scratch sizes, each in a fresh child
process, inline (no round workers, so one process's memory is all of
it), alternating the sizes ``--repeats`` times.  It prints, per workload and
size, the median of the timed phase's wall time and of the child's peak RSS
(``ru_maxrss``).  ``whole`` is a scratch no batch fills: every pass is one
piece, the batch-wide columns the streamed kernel replaced.

Usage: ``python scripts/conv_scratch_sweep.py [--repeats N] [--seed S]``
(about 3 minutes at the default 3 repeats on a 2-core host).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = {"32K": 32 << 10, "64K": 64 << 10, "256K": 256 << 10, "1M": 1 << 20,
         "4M": 4 << 20, "whole": 1 << 40}
WORKLOADS = ("jfat_dense", "robust_eval")


def child(workload: str, scratch: int, seed: int) -> dict:
    """One timed phase at one scratch size: wall seconds and peak RSS in MiB."""
    sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    from perfbench.workloads import BUILDERS, run_eval_passes, run_training, sizes_for
    from repro.flsim import executor
    from repro.nn import conv

    conv.STREAM_SCRATCH_BYTES = scratch
    executor.spare_cores = lambda: 0
    size = sizes_for(workload, smoke=False)
    with tempfile.TemporaryDirectory() as workdir:
        exp = BUILDERS[workload](size, seed, workdir)
        start = time.perf_counter()
        if workload == "robust_eval":
            run_eval_passes(exp, size, seed)
        else:
            run_training(exp, size)
        wall = time.perf_counter() - start
    return {"wall_s": wall, "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "BYTES"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child[0], int(args.child[1]), args.seed)))
        return
    runs = {(w, name): [] for w in WORKLOADS for name in SIZES}
    for _ in range(args.repeats):
        for (workload, name), got in runs.items():
            out = subprocess.run(
                [sys.executable, __file__, "--seed", str(args.seed),
                 "--child", workload, str(SIZES[name])],
                check=True, capture_output=True, text=True,
            ).stdout
            got.append(json.loads(out.splitlines()[-1]))
    print("| workload | scratch | wall s (median) | peak RSS MiB (median) |")
    print("|---|---|---|---|")
    for (workload, name), got in runs.items():
        wall = statistics.median(r["wall_s"] for r in got)
        rss = statistics.median(r["rss_mib"] for r in got)
        print(f"| {workload} | {name} | {wall:.3f} | {rss:.2f} |")


if __name__ == "__main__":
    main()
