#!/usr/bin/env python
"""Threat-layer smoke: determinism of a defended adversarial run.

The CI ``threat-smoke`` job runs this script.  It checks the two load-
bearing corners of the threat contract (``docs/threat-model.md``):

1. a **label-flip + Krum** run is bit-identical fused and per item
   (attacker selection and robust aggregation are pure functions of
   ``(seed, round, cid)``, never of cohort composition);
2. an **inactive plan** (``byzantine_prob=0``) reproduces the clean run
   (no plan at all) bit for bit — the threat layer is free when off.

Both checks run sync and pipelined-async (``pipeline_depth=2``).
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.baselines import JointFAT  # noqa: E402
from repro.data import make_cifar10_like  # noqa: E402
from repro.flsim import FLConfig, ThreatPlan  # noqa: E402
from repro.models import build_cnn  # noqa: E402

TASK = make_cifar10_like(image_size=8, train_per_class=40, test_per_class=10, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _run(plan, rule, mode="sync", fusion_width=None):
    cfg = FLConfig(
        num_clients=8, clients_per_round=4, local_iters=3, batch_size=8,
        lr=0.02, rounds=4, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=0, seed=0,
        fusion_width=fusion_width,
        aggregation_mode=mode,
        pipeline_depth=2 if mode == "async" else 1,
        threat_plan=plan, aggregation_rule=rule,
    )
    exp = JointFAT(TASK, _builder, cfg)
    exp.run()
    return exp.global_model.state_dict()


def _identical(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def main() -> int:
    failures = []
    plan = ThreatPlan(seed=11, byzantine_prob=0.4, attack="label_flip")
    inactive = ThreatPlan(seed=11, byzantine_prob=0.0, attack="label_flip")
    for mode in ("sync", "async"):
        fused = _run(plan, "krum", mode=mode)
        per_item = _run(plan, "krum", mode=mode, fusion_width=1)
        ok = _identical(fused, per_item)
        print(f"[threat-smoke] {mode}: label_flip+krum fused==per-item: {ok}")
        if not ok:
            failures.append(f"{mode}: fused vs per-item mismatch")

        clean = _run(None, "fedavg", mode=mode)
        off = _run(inactive, "fedavg", mode=mode)
        ok = _identical(clean, off)
        print(f"[threat-smoke] {mode}: inactive plan == clean run: {ok}")
        if not ok:
            failures.append(f"{mode}: inactive plan diverges from clean run")

    if failures:
        print("[threat-smoke] FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("[threat-smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
