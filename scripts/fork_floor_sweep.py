"""Measure where a forked round worker starts to pay: the fork floor's basis.

For each point (model, geometry, batch, local iterations) a two-client jFAT
round trains either inline or with the second client on a forked worker
(the floor forced to 0).  Runs alternate inline / forked, so a slow phase
of a noisy host hits both; the table prints each side's median round time,
their ratio, and the modelled GFLOP of the worker's share (one client's
``training_flops_per_iteration × local_iters``).  ``FORK_FLOOR_FLOPS``
belongs between the largest share that loses and the smallest that wins.

    PYTHONPATH=src python scripts/fork_floor_sweep.py [--pairs 5] [--rounds 4]
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.baselines import JointFAT
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.flsim import executor as executor_module
from repro.models import build_cnn, build_vgg

#: (label, builder(size), image size, batch size, local iterations)
POINTS = [
    ("cnn 8x8 B8", lambda s: lambda rng: build_cnn(2, 10, (3, s, s), base_channels=8, rng=rng), 8, 8, 2),
    ("vgg 8x8 B8", lambda s: lambda rng: build_vgg("vgg11", 10, (3, s, s), width_mult=0.25, rng=rng), 8, 8, 1),
    ("vgg 8x8 B8", lambda s: lambda rng: build_vgg("vgg11", 10, (3, s, s), width_mult=0.25, rng=rng), 8, 8, 2),
    ("vgg 8x8 B8", lambda s: lambda rng: build_vgg("vgg11", 10, (3, s, s), width_mult=0.25, rng=rng), 8, 8, 4),
    ("vgg 8x8 B32", lambda s: lambda rng: build_vgg("vgg11", 10, (3, s, s), width_mult=0.25, rng=rng), 8, 32, 2),
    ("vgg 8x8 B32", lambda s: lambda rng: build_vgg("vgg11", 10, (3, s, s), width_mult=0.25, rng=rng), 8, 32, 6),
    ("vgg 16x16 B32", lambda s: lambda rng: build_vgg("vgg11", 10, (3, s, s), width_mult=0.25, rng=rng), 16, 32, 2),
]


def _round_ms(builder, image, batch, iters, rounds, forked, floor):
    task = make_cifar10_like(image_size=image, train_per_class=40, test_per_class=4, seed=0)
    cfg = FLConfig(
        num_clients=4, clients_per_round=2, local_iters=iters, batch_size=batch,
        lr=0.05, rounds=rounds, train_pgd_steps=2, eval_every=0, seed=0, fusion_width=1,
    )
    executor_module.FORK_FLOOR_FLOPS = 0.0 if forked else float("inf")
    try:
        with JointFAT(task, builder, cfg) as exp:
            flops = exp.client_flops
            start = time.perf_counter()
            exp.run()
            elapsed = time.perf_counter() - start
    finally:
        executor_module.FORK_FLOOR_FLOPS = floor
    return 1e3 * elapsed / rounds, flops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args()
    floor = executor_module.FORK_FLOOR_FLOPS
    print(f"spare cores: {executor_module.spare_cores()}; shipped floor {floor / 1e9:g} GFLOP")
    print("| point | iters | share GFLOP | inline ms/round | forked ms/round | forked / inline |")
    print("|---|---|---|---|---|---|")
    for label, make, image, batch, iters in POINTS:
        builder = make(image)
        times = {False: [], True: []}
        for _ in range(args.pairs):
            for forked in (False, True):
                ms, flops = _round_ms(builder, image, batch, iters, args.rounds, forked, floor)
                times[forked].append(ms)
        inline, forked = statistics.median(times[False]), statistics.median(times[True])
        print(f"| {label} | {iters} | {flops / 1e9:.3f} | {inline:.1f} | {forked:.1f} | "
              f"{forked / inline:.2f} |")


if __name__ == "__main__":
    main()
