"""Measure where round workers start to pay: the fork and exchange floors' basis.

Training points: for each (model, geometry, batch, local iterations) a
two-client jFAT round's group runs in a scope of its own, either inline
(the fork floor at infinity) or with the second client on a worker forked
for it (both floors forced to 0).  The share is one client's
``training_flops_per_iteration × local_iters``.

Evaluation points, at ``robust_eval``'s geometry (its set-up rounds train
the model): a plan of one attack — clean, PGD-3, PGD-20 or AutoAttack —
cut into two equal shards (the caller runs one, a worker the other), and
``robust_eval``'s own pass ([clean, PGD-20] inline, AutoAttack on the
worker), at 16, 64 and 128 samples.  Each is a scope of its own, forked
with the fork floor forced to 0 and split at the shipped exchange floor.
The share is the worker's modelled FLOPs (samples × forward FLOPs × the
attack's passes).

In-scope points, with no fork in the timing: inside a run scope whose
replica is already running, one group is either split between the two
processes (the exchange floor forced to 0) or run whole in each (forced
to infinity).  Training groups of 2-4 clients of the test suite's 8x8 CNN, of 2-16 at
``swarm_async``'s geometry (tiny CNN, B=8, 2 iterations) and of 2-4 at
``prophet_cascade``'s (VGG11x0.25 8x8, B=32, 6 iterations, jFAT's
full-model client), and
``prophet_cascade``'s per-round validation plan ([clean, PGD-3]) at 16-100
rows.  The share is the smaller process's modelled FLOPs.

Runs alternate inline / forked (whole / split), so a slow phase of a noisy
host hits both; each table prints each side's median time and their ratio.
``FORK_FLOOR_FLOPS`` belongs between the largest share that loses and the
smallest that wins, and ``EXCHANGE_FLOOR_FLOPS`` likewise in the last table.

    PYTHONPATH=src python scripts/fork_floor_sweep.py [--pairs 5] [--rounds 4]
                                                      [--in-scope-only]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from repro.baselines import JointFAT
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.flsim import executor as executor_module
from repro.hardware import forward_flops
from repro.metrics.evaluation import AttackSpec, EvalPlan
from repro.models import build_cnn, build_vgg

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import workloads  # noqa: E402  (robust_eval's sizes and set-up)

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
    with JointFAT(task, builder, cfg) as exp:
        fn, items = _round_group(exp)
        exchange = executor_module.EXCHANGE_FLOOR_FLOPS
        executor_module.FORK_FLOOR_FLOPS = 0.0 if forked else float("inf")
        executor_module.EXCHANGE_FLOOR_FLOPS = 0.0
        try:
            start = time.perf_counter()
            for _ in range(rounds):
                with exp.executor.scope(exp.client_flops * len(items)):
                    exp.executor.run_group(fn, items)
            elapsed = time.perf_counter() - start
        finally:
            executor_module.FORK_FLOOR_FLOPS = floor
            executor_module.EXCHANGE_FLOOR_FLOPS = exchange
        return 1e3 * elapsed / rounds, exp.client_flops


def _round_group(exp):
    """Round 0's work function and items (its sampled clients)."""
    clients, states = exp.sample_round(0)
    ctx = exp.async_round_context(0, clients, states)
    return exp.async_client_fn(ctx, exp.async_server_state()), list(zip(clients, states))


#: (label, the plan's attacks); eps and steps are robust_eval's.
EVAL_PLANS = [
    ("clean", lambda eps: (AttackSpec.clean(),)),
    ("PGD-3", lambda eps: (AttackSpec.pgd(eps, 3),)),
    ("PGD-20", lambda eps: (AttackSpec.pgd(eps, 20),)),
    ("AA", lambda eps: (AttackSpec.autoattack(eps, 20),)),
    ("robust_eval pass", lambda eps: EvalPlan.standard(eps, 20, with_autoattack=True).attacks),
]
EVAL_SAMPLES = (16, 64, 128)


def _eval_ms(exp, plan, forked, floor):
    executor_module.FORK_FLOOR_FLOPS = 0.0 if forked else float("inf")
    try:
        start = time.perf_counter()
        exp.run_eval(plan)
        return 1e3 * (time.perf_counter() - start)
    finally:
        executor_module.FORK_FLOOR_FLOPS = floor


def _eval_points(pairs, floor):
    size = workloads.sizes_for("robust_eval", smoke=False)
    executor_module.FORK_FLOOR_FLOPS = float("inf")  # set-up rounds inline: the model is the same
    try:
        exp = workloads.build_robust_eval(size, 0, None)
    finally:
        executor_module.FORK_FLOOR_FLOPS = floor
    model = exp.global_model
    fwd = forward_flops(model, model.in_shape)
    print("| plan | samples | share GFLOP | inline ms | forked ms | forked / inline |")
    print("|---|---|---|---|---|---|")
    for label, attacks_for in EVAL_PLANS:
        attacks = attacks_for(exp.config.eps0)
        for samples in EVAL_SAMPLES:
            # one attack: two equal shards; the pass: one shard an attack
            batch = samples // 2 if len(attacks) == 1 else samples
            plan = EvalPlan(attacks=attacks, batch_size=batch, max_samples=samples, seed=0)
            costs = [
                rows * fwd * attack.passes
                for attack in attacks
                for rows in ([batch, samples - batch] if len(attacks) == 1 else [samples])
            ]
            times = {False: [], True: []}
            for _ in range(pairs):
                for forked in (False, True):
                    times[forked].append(_eval_ms(exp, plan, forked, floor))
            inline, forked = statistics.median(times[False]), statistics.median(times[True])
            print(f"| {label} | {samples} | {costs[-1] / 1e9:.3f} | {inline:.1f} | "
                  f"{forked:.1f} | {forked / inline:.2f} |")
    exp.close()


#: In-scope training points: (workload whose geometry the clients take,
#: group sizes in clients); "tier-1" is the test suite's 8x8 CNN
#: (``build_cnn(3, 10, base_channels=4)``) at ``swarm_async``'s sizes.
SCOPE_POINTS = [("tier-1", (2, 4)), ("swarm_async", (2, 4, 8, 16)),
                ("prophet_cascade", (2, 4))]
VALIDATION_ROWS = (16, 32, 64, 100)


def _scope_experiment(name):
    """jFAT at a workload's geometry, with as many clients as the largest group."""
    size = workloads.sizes_for("swarm_async" if name == "tier-1" else name, smoke=False)
    size = dict(size, num_clients=16, clients_per_round=16)
    shape = (3, size["image_size"], size["image_size"])
    builder = workloads._vgg_builder(shape)
    if name == "swarm_async":
        builder = lambda rng: build_cnn(2, 10, shape, base_channels=8, rng=rng)  # noqa: E731
    elif name == "tier-1":
        builder = lambda rng: build_cnn(3, 10, shape, base_channels=4, rng=rng)  # noqa: E731
    cfg = FLConfig(**workloads._fl_kwargs(size, 0), rounds=1)
    return JointFAT(workloads._task(size, 0), builder, cfg)


def _split_ms(executor, run, split):
    """``run()``'s time in the caller, the group split or whole."""
    executor_module.EXCHANGE_FLOOR_FLOPS = 0.0 if split else float("inf")
    start = time.perf_counter()
    run()
    return 1e3 * (time.perf_counter() - start)


def _scope_points(pairs):
    """Both processes run this function in lockstep; only the caller prints."""
    print("| geometry | group | share GFLOP | whole ms | split ms | split / whole |")
    print("|---|---|---|---|---|---|")
    shipped = executor_module.FORK_FLOOR_FLOPS, executor_module.EXCHANGE_FLOOR_FLOPS
    executor_module.FORK_FLOOR_FLOPS = 0.0
    try:
        for name, sizes in SCOPE_POINTS:
            with _scope_experiment(name) as exp, exp.executor.scope(float("inf")):
                fn, items = _round_group(exp)
                exp.executor.run_group(fn, items[:2])  # forks the replica
                rows = [(f"{k} clients", lambda k=k: exp.executor.run_group(fn, items[:k]),
                         exp.client_flops * (k // 2)) for k in sizes]
                if name == "prophet_cascade":
                    model = exp.global_model
                    fwd = forward_flops(model, model.in_shape)
                    attacks = (AttackSpec.clean(), AttackSpec.pgd(exp.config.eps0, 3))
                    for n in VALIDATION_ROWS:
                        plan = EvalPlan(attacks=attacks, max_samples=n, seed=0)
                        rows.append((f"validation, {n} rows", lambda plan=plan: exp.run_eval(plan),
                                     n * fwd * attacks[0].passes))
                for label, run, share in rows:
                    times = {False: [], True: []}
                    for _ in range(pairs):
                        for split in (False, True):
                            times[split].append(_split_ms(exp.executor, run, split))
                    whole, split = statistics.median(times[False]), statistics.median(times[True])
                    print(f"| {name} | {label} | {share / 1e9:.3f} | {whole:.1f} | "
                          f"{split:.1f} | {split / whole:.2f} |")
    finally:
        executor_module.FORK_FLOOR_FLOPS, executor_module.EXCHANGE_FLOOR_FLOPS = shipped


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--in-scope-only", action="store_true",
                        help="only the last table (the exchange floor's)")
    args = parser.parse_args()
    floor = executor_module.FORK_FLOOR_FLOPS
    print(f"spare cores: {executor_module.spare_cores()}; shipped fork floor "
          f"{floor / 1e9:g} GFLOP, exchange floor "
          f"{executor_module.EXCHANGE_FLOOR_FLOPS / 1e9:g} GFLOP")
    if not args.in_scope_only:
        print("| point | iters | share GFLOP | inline ms/round | forked ms/round "
              "| forked / inline |")
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
        print()
        _eval_points(args.pairs, floor)
        print()
    _scope_points(args.pairs)


if __name__ == "__main__":
    main()
