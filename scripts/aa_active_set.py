#!/usr/bin/env python
"""AutoAttack's traffic, counted: what each ensemble member is handed.

The measurement behind docs/benchmarks.md § PR 23.  ``auto_attack_lite``
runs FGSM -> PGD -> APGD-CE on the points the member before left standing;
the eager ensemble it replaced (written out below) ran every member on the
whole batch while anything survived.  For both, per member: points
attacked / points newly flipped / milliseconds, summed over the shards of
one evaluation (the engine's shards and shard RNGs), on two models of the
``robust_eval`` geometry (VGG11x0.25, 8x8, JointFAT):

* ``chance``  2 rounds of training — the benchmark's case: FGSM flips
  nearly everything, the later members see a handful of points;
* ``robust``  trained until PGD-20 accuracy reaches ``--target`` (20 %), so
  a fifth of the batch reaches APGD and the saving is smaller.

Usage: ``python scripts/aa_active_set.py [--seed N] [--samples N]
[--smoke]`` prints one markdown table per model.  The host is noisy: read
the ms columns as ratios, the counts are exact.
"""

import argparse
import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import repro.attacks.autoattack as autoattack  # noqa: E402
from repro.attacks import ModelWithLoss, PGDConfig, apgd_attack, auto_attack_lite  # noqa: E402
from repro.attacks.fgsm import fgsm_attack  # noqa: E402
from repro.attacks.pgd import pgd_attack  # noqa: E402
from repro.baselines import JointFAT  # noqa: E402
from repro.data import make_cifar10_like  # noqa: E402
from repro.flsim import FLConfig  # noqa: E402
from repro.metrics import shard_rng  # noqa: E402
from repro.models import build_vgg  # noqa: E402
from repro.nn import no_param_grads  # noqa: E402

MEMBERS = ("fgsm_attack", "pgd_attack", "apgd_attack")
SHAPE = (3, 8, 8)
STEPS, RESTARTS, BATCH = 20, 2, 64
MAX_ROUNDS = 80  # seed 0 reaches 20 % PGD-20 accuracy in 34


def train(rounds: int, target: float, seed: int, smoke: bool):
    """JointFAT on the benchmark's geometry, stopped at ``target`` PGD-20 accuracy."""
    task = make_cifar10_like(
        image_size=8, train_per_class=20 if smoke else 120, test_per_class=24, seed=seed
    )
    cfg = FLConfig(
        num_clients=20, clients_per_round=4, local_iters=1 if smoke else 6,
        batch_size=32, lr=0.08, train_pgd_steps=2, rounds=rounds, seed=seed,
        eval_pgd_steps=STEPS, eval_every=2 if target else 0, eval_max_samples=150,
    )
    exp = JointFAT(
        task, lambda rng: build_vgg("vgg11", 10, SHAPE, width_mult=0.25, rng=rng), cfg
    )
    if target:
        def reached() -> bool:
            last = exp.history[-1].eval if exp.history else None
            return last is not None and last.pgd_acc >= target

        exp.run_finished = reached
    exp.run()
    return exp


def eager_ensemble(mwl, x, y, eps, rng, log):
    """The ensemble before PR 23: every member on the whole batch while any point survives."""
    members = (
        lambda: fgsm_attack(mwl, x, y, eps),
        lambda: pgd_attack(mwl, x, y, PGDConfig(eps=eps, steps=STEPS), rng=rng),
        lambda: apgd_attack(mwl, x, y, eps, steps=STEPS, restarts=RESTARTS, rng=rng),
    )
    remaining = np.ones(len(x), dtype=bool)
    for name, member in zip(MEMBERS, members):
        if not remaining.any():
            break
        start = time.perf_counter()
        adv = member()
        ms = 1e3 * (time.perf_counter() - start)
        flipped = (mwl.logits(adv).argmax(axis=1) != y) & remaining
        remaining &= ~flipped
        log[name] += np.array([len(x), flipped.sum(), ms])
    return int(remaining.sum())


def active_set(mwl, x, y, eps, rng, log):
    """This tree's ``auto_attack_lite``, its three members wrapped to count what they get."""
    originals = {name: getattr(autoattack, name) for name in MEMBERS}

    def wrap(name):
        def counted(model, xs, ys, *args, **kwargs):
            start = time.perf_counter()
            adv = originals[name](model, xs, ys, *args, **kwargs)
            ms = 1e3 * (time.perf_counter() - start)
            flipped = int((model.logits(adv).argmax(axis=1) != ys).sum())
            log[name] += np.array([len(xs), flipped, ms])
            return adv

        return counted

    for name in MEMBERS:
        setattr(autoattack, name, wrap(name))
    try:
        adv = auto_attack_lite(mwl, x, y, eps, steps=STEPS, restarts=RESTARTS, rng=rng)
    finally:
        for name, original in originals.items():
            setattr(autoattack, name, original)
    return int((mwl.logits(adv).argmax(axis=1) == y).sum())


def measure(exp, samples: int, seed: int):
    """One evaluation's AutoAttack shards, both ways; (log, points standing) per way."""
    x, y = exp.task.test.x[:samples], np.asarray(exp.task.test.y[:samples])
    mwl = ModelWithLoss(exp.global_model.eval())
    out = {}
    ways = (("active set", active_set), ("eager", eager_ensemble))
    for label, ensemble in ways + ways:  # the first lap warms buffers and BLAS; the second is kept
        log = {name: np.zeros(3) for name in MEMBERS}
        standing = 0
        with no_param_grads():  # as the engine's run_shard: one weight layout per evaluation
            for si, start in enumerate(range(0, len(x), BATCH)):
                sl = slice(start, start + BATCH)
                standing += ensemble(
                    mwl, x[sl], y[sl], exp.config.eps0, shard_rng(seed, 2, si), log
                )
        out[label] = (log, standing)
    with no_param_grads():
        clean = float((mwl.logits(x).argmax(axis=1) == y).mean())
    return out, clean, len(x)


def report(title: str, exp, samples: int, seed: int) -> None:
    out, clean, n = measure(exp, samples, seed)
    print(f"\n**{title}** — {len(exp.history)} rounds, {n} test points in shards of "
          f"{BATCH}, clean accuracy {clean:.3f}\n")
    print("| member | active set: attacked / flipped / ms | eager: attacked / flipped / ms |")
    print("|---|---|---|")
    cell = lambda row: f"{int(row[0])} / {int(row[1])} / {row[2]:.1f}"  # noqa: E731
    for name in MEMBERS:
        print(f"| `{name}` | " + " | ".join(cell(out[k][0][name]) for k in out) + " |")
    totals = {k: sum(out[k][0].values()) for k in out}
    print("| **all three** | " + " | ".join(cell(totals[k]) for k in out) + " |")
    accs = ", ".join(f"{k} {out[k][1]}/{n} = {out[k][1] / n:.3f}" for k in out)
    print(f"\naa accuracy: {accs}; robust fraction after FGSM "
          f"{1 - out['active set'][0]['fgsm_attack'][1] / n:.3f}; "
          f"ms ratio eager / active set {totals['eager'][2] / totals['active set'][2]:.2f}x",
          flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=192)
    parser.add_argument("--target", type=float, default=0.20,
                        help="PGD-20 accuracy the robust model is trained to")
    parser.add_argument("--smoke", action="store_true",
                        help="CI size: tiny training, one short shard, no accuracy target met")
    args = parser.parse_args()
    samples = 32 if args.smoke else args.samples
    with train(1 if args.smoke else 2, 0.0, args.seed, args.smoke) as exp:
        report("chance (the `robust_eval` model)", exp, samples, args.seed)
    with train(4 if args.smoke else MAX_ROUNDS, args.target, args.seed, args.smoke) as exp:
        reached = exp.history[-1].eval.pgd_acc if exp.history[-1].eval else None
        if not args.smoke and (reached is None or reached < args.target):
            raise SystemExit(f"PGD-{STEPS} accuracy {reached} after {len(exp.history)} "
                             f"rounds: below --target {args.target}")
        report(f"robust (jFAT until PGD-{STEPS} >= {args.target:.2f}, reached {reached})",
               exp, samples, args.seed)


if __name__ == "__main__":
    main()
