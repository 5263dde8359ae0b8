#!/usr/bin/env python
"""Population-engine smoke: O(cohort) scale and lazy/eager determinism.

The CI ``population-smoke`` job runs this script.  It checks the two
load-bearing claims of the population engine (``docs/architecture.md``):

1. a **1,000,000-client** lazy virtual-scheme run (cohort 10) completes
   in seconds — setup must not grow with the population, and the number
   of clients ever materialised must stay within the LRU capacity;
2. **lazy ≡ eager**: on a small population, a lazily materialised run is
   bit-identical to the eager one, sync and pipelined-async
   (``pipeline_depth=2``), and the bounded cache reproduces the
   unbounded one exactly.

``--heap`` checks O(cohort) *memory* instead: the same 1M-client config
runs 24 rounds under ``tracemalloc``, and the traced heap at the entry to
round 23 may exceed the one at the entry to round 2 by less than
``HEAP_GROWTH_KIB``.  The LRU fills over those rounds, so the check fails
as soon as a cached client holds more than its shard indices.
"""

import argparse
import os
import sys
import time
import tracemalloc

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.baselines import JointFAT  # noqa: E402
from repro.data import make_cifar10_like  # noqa: E402
from repro.flsim import FLConfig  # noqa: E402
from repro.models import build_cnn  # noqa: E402

TASK = make_cifar10_like(image_size=8, train_per_class=40, test_per_class=10, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _run(materialisation, cache_size=None, mode="sync", num_clients=8,
         scheme="auto", rounds=3):
    cfg = FLConfig(
        num_clients=num_clients, clients_per_round=4, local_iters=3,
        batch_size=8, lr=0.02, rounds=rounds, train_pgd_steps=2,
        eval_pgd_steps=2, eval_every=0, seed=0,
        aggregation_mode=mode,
        pipeline_depth=2 if mode == "async" else 1,
        population_scheme=scheme,
        client_materialisation=materialisation,
        client_cache_size=cache_size,
    )
    exp = JointFAT(TASK, _builder, cfg)
    exp.run()
    return exp.global_model.state_dict()


def _identical(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _million(rounds):
    return FLConfig(
        num_clients=1_000_000, clients_per_round=10, local_iters=2,
        batch_size=8, lr=0.02, rounds=rounds, train_pgd_steps=2,
        eval_pgd_steps=2, eval_every=0, seed=0,
        population_scheme="virtual", client_materialisation="lazy",
        samples_per_client=32,
    )


HEAP_GROWTH_KIB = 256
HEAP_ROUNDS = (2, 23)


def heap() -> int:
    """The traced heap may not grow between the entries to two late rounds."""
    tracemalloc.start()
    try:
        exp = JointFAT(TASK, _builder, _million(rounds=HEAP_ROUNDS[1] + 1))
        at_entry = {}
        sample_round = exp.sample_round

        def traced_sample_round(round_idx):
            at_entry[round_idx] = tracemalloc.get_traced_memory()[0]
            return sample_round(round_idx)

        exp.sample_round = traced_sample_round
        exp.run()
    finally:
        tracemalloc.stop()
    first, last = (at_entry[r] for r in HEAP_ROUNDS)
    growth_kib = (last - first) / 1024
    stats = exp.clients.stats()
    print(
        f"[population-smoke] 1M clients, traced heap at round {HEAP_ROUNDS[0]} "
        f"{first / 1024:,.0f} KiB -> round {HEAP_ROUNDS[1]} {last / 1024:,.0f} KiB "
        f"(+{growth_kib:,.0f} KiB; cache live {stats['live']} of "
        f"{exp.clients.cache_capacity})"
    )
    if growth_kib >= HEAP_GROWTH_KIB:
        print(f"[population-smoke] FAILED: heap grew {growth_kib:,.0f} KiB "
              f">= {HEAP_GROWTH_KIB} KiB")
        return 1
    print("[population-smoke] heap OK")
    return 0


def main() -> int:
    failures = []

    # 1. Population scale: a million-client run must be O(cohort).
    cfg = _million(rounds=2)
    t0 = time.perf_counter()
    exp = JointFAT(TASK, _builder, cfg)
    setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    exp.run()
    run_s = time.perf_counter() - t0
    stats = exp.clients.stats()
    capacity = exp.clients.cache_capacity
    print(
        f"[population-smoke] 1M clients: setup {setup_s:.3f}s, "
        f"run {run_s:.3f}s, materialised peak {stats['peak_live']} "
        f"(cache cap {capacity}), total_samples {exp.total_samples:,}"
    )
    if setup_s > 5.0:
        failures.append(f"1M-client setup took {setup_s:.1f}s (> 5s)")
    if capacity is not None and stats["peak_live"] > capacity:
        failures.append(
            f"1M-client run materialised {stats['peak_live']} clients, "
            f"over the cache capacity {capacity}"
        )

    # 2. Determinism: lazy == eager, bounded cache == unbounded.
    for mode in ("sync", "async"):
        eager = _run("eager", mode=mode)
        lazy = _run("lazy", mode=mode)
        ok = _identical(eager, lazy)
        print(f"[population-smoke] {mode}: eager == lazy: {ok}")
        if not ok:
            failures.append(f"{mode}: lazy run diverges from eager")

    tiny = _run("lazy", cache_size=4)
    unbounded = _run("lazy", cache_size=10**9)
    ok = _identical(tiny, unbounded)
    print(f"[population-smoke] cache_size=4 == unbounded: {ok}")
    if not ok:
        failures.append("bounded cache diverges from unbounded")

    virtual_eager = _run("eager", scheme="virtual", num_clients=32)
    virtual_lazy = _run("lazy", scheme="virtual", num_clients=32)
    ok = _identical(virtual_eager, virtual_lazy)
    print(f"[population-smoke] virtual scheme: eager == lazy: {ok}")
    if not ok:
        failures.append("virtual scheme: lazy diverges from eager")

    if failures:
        print("[population-smoke] FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("[population-smoke] OK")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--heap", action="store_true",
                        help="run the O(cohort) memory check instead")
    sys.exit(heap() if parser.parse_args().heap else main())
