#!/usr/bin/env python
"""Fusion width x geometry sweep: what stacking buys and what it costs.

The measurement behind ``STACKED_ACTIVATION_BUDGET`` (docs/benchmarks.md
§ PR 22).  One cold process per point: a 4-round JointFAT (5 local
iterations, PGD-2, no evaluation) on each geometry below, at
``fusion_width`` 1, 8 and the default (derived), reporting the run
loop's wall time, the process's peak RSS, the widest cohort stacked and
a digest of the final weights (equal across widths: fusion is
non-semantic).

Usage: ``python scripts/fusion_width_sweep.py [--repeats N] [--widths
1,8,auto]`` prints one markdown row per geometry; ``--point NAME --width
W`` is the child entry point.  The host is noisy: compare medians.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

# name: (model, width_mult | base_channels, image size, batch, clients a round)
POINTS = {
    "cnn8-8x8-b8-x16": ("cnn", 8, 8, 8, 16),
    "vgg.25-8x8-b8-x4": ("vgg", 0.25, 8, 8, 4),
    "vgg.25-8x8-b32-x4": ("vgg", 0.25, 8, 32, 4),
    "vgg.25-16x16-b32-x2": ("vgg", 0.25, 16, 32, 2),
    "vgg.25-16x16-b32-x4": ("vgg", 0.25, 16, 32, 4),
    "vgg.5-16x16-b32-x4": ("vgg", 0.5, 16, 32, 4),
    "vgg.5-32x32-b32-x4": ("vgg", 0.5, 32, 32, 4),
}


def run_point(name: str, width: str) -> dict:
    from repro.baselines import JointFAT
    from repro.data import make_cifar10_like
    from repro.flsim import FLConfig
    from repro.models import build_cnn, build_vgg

    kind, scale, size, batch, per_round = POINTS[name]
    shape = (3, size, size)
    if kind == "cnn":
        builder = lambda rng: build_cnn(2, 10, shape, base_channels=scale, rng=rng)  # noqa: E731
    else:
        builder = lambda rng: build_vgg("vgg11", 10, shape, width_mult=scale, rng=rng)  # noqa: E731
    engine = {} if width == "auto" else {"fusion_width": int(width)}
    cfg = FLConfig(
        num_clients=20, clients_per_round=per_round, local_iters=5,
        batch_size=batch, lr=0.08, rounds=4, train_pgd_steps=2, eval_every=0,
        seed=0, **engine,
    )
    task = make_cifar10_like(image_size=size, train_per_class=120, test_per_class=10, seed=0)
    with JointFAT(task, builder, cfg) as exp:
        widest = [1]
        plan = exp.executor.plan_cohorts

        def recording_plan(fn, items):
            cohorts = plan(fn, items)
            widest[0] = max(widest[0], max(map(len, cohorts)))
            return cohorts

        exp.executor.plan_cohorts = recording_plan
        start = time.perf_counter()
        exp.run()
        loop_s = time.perf_counter() - start
        sha = hashlib.sha256()
        for _key, value in sorted(exp.global_model.state_dict().items()):
            sha.update(value.tobytes())
    return {
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "widest": widest[0],
        "digest": sha.hexdigest()[:12],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--point", choices=sorted(POINTS))
    parser.add_argument("--width", default="auto")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--widths", default="1,8,auto")
    args = parser.parse_args()
    if args.point:
        print(json.dumps(run_point(args.point, args.width)))
        return
    widths = args.widths.split(",")
    print("| geometry | " + " | ".join(f"`{w}`: s / MiB (K)" for w in widths) + " | digest |")
    print("|---|" + "---|" * (len(widths) + 1))
    for name in POINTS:
        cells, digests = [], set()
        for width in widths:
            runs = [
                json.loads(subprocess.check_output(
                    [sys.executable, __file__, "--point", name, "--width", width]
                ))
                for _ in range(args.repeats)
            ]
            digests.update(r["digest"] for r in runs)
            times = ", ".join(f"{r['loop_s']:.2f}" for r in runs)
            cells.append(
                f"{statistics.median(r['loop_s'] for r in runs):.2f} [{times}] / "
                f"{statistics.median(r['peak_rss_mb'] for r in runs):.1f} "
                f"(K={runs[0]['widest']})"
            )
        digest = digests.pop() if len(digests) == 1 else "DIVERGED"
        print(f"| `{name}` | " + " | ".join(cells) + f" | {digest} |", flush=True)


if __name__ == "__main__":
    main()
