"""The four benchmark workloads: what runs, at which frozen size, and why.

Each workload is one *cold* training (or evaluation) run of the repository
at a fixed size, so its wall-clock is directly comparable between two
commits.  ``--seed`` drives task synthesis, ``FLConfig.seed``, the fault
plan and the evaluation plans; the program under test only ever sees the
generated inputs.  Engine knobs (``executor_backend``, ``fusion_width``,
``*_parallelism``) stay at their defaults on purpose: a later change that
makes a different engine the default then shows as a gain here, and a
change that removes a knob cannot break the benchmark.

This module is imported by the child process only (it imports ``repro``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

# Frozen sizes.  One child runs one workload once; a measured run repeats
# the child for --seconds.  Tuned on the 2-core reference box so a child
# takes 6-11 s: three fit in a run and 92 runs fit the driver's time cap.
SIZES: Dict[str, Dict[str, Any]] = {
    "prophet_cascade": dict(
        image_size=8, train_per_class=120, num_clients=20, clients_per_round=4,
        local_iters=6, batch_size=32, pgd_steps=2, rounds_per_module=3,
        r_min_fraction=0.35, modules=4, val_samples=100, val_pgd_steps=3,
        final_eval_samples=100,
    ),
    "jfat_dense": dict(
        image_size=16, train_per_class=120, num_clients=20, clients_per_round=2,
        local_iters=5, batch_size=32, pgd_steps=2, rounds=4, final_eval_samples=64,
    ),
    "swarm_async": dict(
        image_size=8, train_per_class=120, num_clients=100_000, clients_per_round=16,
        local_iters=2, batch_size=8, pgd_steps=2, rounds=48, checkpoint_every=12,
        final_eval_samples=150,
    ),
    "robust_eval": dict(
        image_size=8, train_per_class=120, num_clients=20, clients_per_round=4,
        local_iters=6, batch_size=32, pgd_steps=2, pretrain_rounds=2,
        passes=3, eval_pgd_steps=20, eval_samples=64,
    ),
}

# --smoke: the same code paths at sizes that finish in about a second each.
SMOKE_SIZES: Dict[str, Dict[str, Any]] = {
    "prophet_cascade": dict(
        SIZES["prophet_cascade"], train_per_class=20, clients_per_round=2,
        local_iters=1, rounds_per_module=1, val_samples=16, final_eval_samples=16,
    ),
    "jfat_dense": dict(
        SIZES["jfat_dense"], train_per_class=20, local_iters=1, rounds=2,
        final_eval_samples=16,
    ),
    "swarm_async": dict(
        SIZES["swarm_async"], train_per_class=20, clients_per_round=4, rounds=4,
        checkpoint_every=2, final_eval_samples=16,
    ),
    "robust_eval": dict(
        SIZES["robust_eval"], train_per_class=20, clients_per_round=2, local_iters=1,
        pretrain_rounds=1, passes=2, eval_pgd_steps=2, eval_samples=16,
    ),
}

def sizes_for(name: str, smoke: bool) -> Dict[str, Any]:
    return dict((SMOKE_SIZES if smoke else SIZES)[name])


# ---------------------------------------------------------------------------
# The shared universe
# ---------------------------------------------------------------------------

def _task(size: Dict[str, Any], seed: int):
    from repro.data import make_cifar10_like

    return make_cifar10_like(
        image_size=size["image_size"],
        train_per_class=size["train_per_class"],
        test_per_class=max(20, size["train_per_class"] // 5),
        seed=seed,
    )


def _shape(size: Dict[str, Any]):
    return (3, size["image_size"], size["image_size"])


def _vgg_builder(shape) -> Callable:
    from repro.models import build_vgg

    return lambda rng: build_vgg("vgg11", 10, shape, width_mult=0.25, rng=rng)


def _scaled_device_sampler(shape):
    """The paper's CIFAR-10 device pool, shrunk to our backbone's scale.

    Our VGG is orders of magnitude smaller than the paper's VGG16, so
    against the raw pool nothing would swap and DMA would never bind.
    Memory and I/O shrink by the MemReq ratio, performance by the FLOPs
    ratio — the avail-memory/requirement regime then matches the paper's.
    """
    from repro.hardware import (
        Device, DeviceSampler, device_pool, forward_flops, mem_req_bytes,
    )
    from repro.models import build_vgg

    paper_shape = (3, 32, 32)
    paper = build_vgg("vgg16", 10, paper_shape)
    ours = _vgg_builder(shape)(np.random.default_rng(0))
    mem_ratio = mem_req_bytes(ours, shape, 32) / mem_req_bytes(paper, paper_shape, 64)
    flops_ratio = forward_flops(ours, shape) / forward_flops(paper, paper_shape)
    pool = [
        Device(d.name, d.perf_tflops * flops_ratio, d.mem_gb * mem_ratio,
               d.io_gbps * mem_ratio)
        for d in device_pool("cifar10")
    ]
    return DeviceSampler(pool, "balanced")


def _fl_kwargs(size: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return dict(
        num_clients=size["num_clients"], clients_per_round=size["clients_per_round"],
        local_iters=size["local_iters"], batch_size=size["batch_size"], lr=0.08,
        train_pgd_steps=size["pgd_steps"], eval_pgd_steps=5, eval_every=0, seed=seed,
    )


# ---------------------------------------------------------------------------
# Builders: seed + sizes -> a ready experiment
# ---------------------------------------------------------------------------

def build_prophet_cascade(size, seed, workdir):
    from repro.core import FedProphet, FedProphetConfig

    shape = _shape(size)
    # patience is out of reach so every stage runs its full rounds_per_module:
    # the amount of work is then a function of the sizes alone, not of how
    # the validation accuracy happens to move under this seed.
    config = FedProphetConfig(
        **_fl_kwargs(size, seed), rounds=10_000,
        rounds_per_module=size["rounds_per_module"], patience=10_000,
        r_min_fraction=size["r_min_fraction"], val_samples=size["val_samples"],
        val_pgd_steps=size["val_pgd_steps"],
    )
    return FedProphet(
        _task(size, seed), _vgg_builder(shape), config,
        device_sampler=_scaled_device_sampler(shape),
    )


def build_jfat_dense(size, seed, workdir):
    from repro.baselines import JointFAT
    from repro.flsim import FLConfig

    shape = _shape(size)
    config = FLConfig(**_fl_kwargs(size, seed), rounds=size["rounds"])
    return JointFAT(
        _task(size, seed), _vgg_builder(shape), config,
        device_sampler=_scaled_device_sampler(shape),
    )


def swarm_config(size, seed, journal_path: Optional[str], sync: bool = False, **engine):
    """``swarm_async``'s config; ``sync`` keeps the geometry for the backend sweep."""
    from repro.flsim import FaultPlan, FLConfig

    mode = (
        dict(aggregation_mode="sync")
        if sync
        else dict(aggregation_mode="async", pipeline_depth=2)
    )
    return FLConfig(
        **_fl_kwargs(size, seed), rounds=size["rounds"], **mode,
        aggregation_rule="median",
        fault_plan=FaultPlan(seed=seed, dropout_prob=0.1, straggler_prob=0.2,
                             flaky_prob=0.1),
        client_materialisation="lazy",
        journal_path=journal_path,
        checkpoint_every=size["checkpoint_every"] if journal_path else 0,
        **engine,
    )


def build_swarm_async(size, seed, workdir, config=None):
    from repro.baselines import JointFAT
    from repro.models import build_cnn

    shape = _shape(size)
    if config is None:
        config = swarm_config(size, seed, os.path.join(workdir, "run.jsonl"))
    return JointFAT(
        _task(size, seed),
        lambda rng: build_cnn(2, 10, shape, base_channels=8, rng=rng),
        config,
        device_sampler=_scaled_device_sampler(shape),
    )


def build_robust_eval(size, seed, workdir):
    from repro.baselines import JointFAT
    from repro.flsim import FLConfig

    shape = _shape(size)
    config = FLConfig(**_fl_kwargs(size, seed), rounds=size["pretrain_rounds"])
    exp = JointFAT(
        _task(size, seed), _vgg_builder(shape), config,
        device_sampler=_scaled_device_sampler(shape),
    )
    exp.run()  # set-up, not the timed phase: the model under evaluation
    return exp


BUILDERS = {
    "prophet_cascade": build_prophet_cascade,
    "jfat_dense": build_jfat_dense,
    "swarm_async": build_swarm_async,
    "robust_eval": build_robust_eval,
}


def expected_ops(name: str, size: Dict[str, Any]) -> int:
    """Ops a child attempts; charged as failed when a child dies."""
    if name == "robust_eval":
        return size["passes"]
    if name == "prophet_cascade":
        return size["modules"] * size["rounds_per_module"]
    return size["rounds"]


# ---------------------------------------------------------------------------
# The timed phase
# ---------------------------------------------------------------------------

@dataclass
class Timed:
    """What one timed phase measured and produced."""

    op_ms: List[float]
    samples: int
    attempted: int
    failed: int
    run_window: tuple       # the op loop (training, or the eval passes)
    timed_window: tuple     # op loop + final evaluation
    results: List[Any]      # EvalResults, in order


def run_training(exp, size, on_op: Optional[Callable[[int], None]] = None,
                 scaffold=None) -> Timed:
    """Train to completion, then ``final_eval``; one op = one federated round.

    Ops are timed between consecutive entries to ``sample_round`` — the
    per-round entry point every run loop shares — through an instance-level
    shim, so the untraced run needs no wrapper inside ``repro``.
    """
    clock = time.perf_counter
    marks: List[float] = []
    round_samples: Dict[int, int] = {}
    cfg = exp.config
    inner = exp.sample_round

    def sample_round(round_idx):
        marks.append(clock())
        if on_op is not None:
            on_op(round_idx)
        clients, states = inner(round_idx)
        round_samples[round_idx] = cfg.local_iters * sum(
            min(cfg.batch_size, c.num_samples) for c in clients
        )
        return clients, states

    exp.sample_round = sample_round
    scaffold = scaffold or contextlib.nullcontext
    t0 = clock()
    with scaffold("bench.run"):
        exp.run()
    t1 = clock()
    with scaffold("bench.final_eval"):
        final = exp.final_eval(size["final_eval_samples"])
    t2 = clock()
    del exp.sample_round

    # The first op starts with the run, so the ops tile the loop exactly.
    edges = [t0] + marks[1:] + [t1]
    op_ms = [1e3 * (b - a) for a, b in zip(edges, edges[1:])]
    aborted = {r.round for r in exp.history if r.aborted}
    samples = sum(n for r, n in round_samples.items() if r not in aborted)
    failed = len(aborted) - _scheduled_aborts(cfg.journal_path)
    if not _finite_state(exp) or not _finite_result(final):
        failed = len(marks)
    return Timed(op_ms, samples, len(marks), max(0, failed), (t0, t1), (t0, t2), [final])


def run_eval_passes(exp, size, seed, on_op=None, scaffold=None) -> Timed:
    """``passes`` full robustness evaluations; one op = one pass."""
    from repro.metrics.evaluation import EvalPlan

    clock = time.perf_counter
    scaffold = scaffold or contextlib.nullcontext
    results, op_ms = [], []
    t0 = clock()
    with scaffold("bench.run"):
        for i in range(size["passes"]):
            if on_op is not None:
                on_op(i)
            a = clock()
            plan = EvalPlan.standard(
                exp.config.eps0, pgd_steps=size["eval_pgd_steps"], with_autoattack=True,
                max_samples=size["eval_samples"], seed=seed + i,
            )
            results.append(exp.run_eval(plan))
            op_ms.append(1e3 * (clock() - a))
    t1 = clock()
    n = min(size["eval_samples"], len(exp.task.test))
    failed = sum(1 for r in results if not _finite_result(r))
    return Timed(op_ms, size["passes"] * n * 3, size["passes"], failed,
                 (t0, t1), (t0, t1), results)


def _scheduled_aborts(journal_path: Optional[str]) -> int:
    """Round aborts the fault plan itself scheduled (not failures)."""
    if not journal_path or not os.path.exists(journal_path):
        return 0
    count = 0
    with open(journal_path, encoding="utf-8") as f:
        for line in f:
            if '"faults"' in line:
                event = json.loads(line)
                count += bool(event.get("kind") == "faults" and event.get("aborted"))
    return count


def _finite_state(exp) -> bool:
    return all(np.isfinite(v).all() for v in exp.global_model.state_dict().values())


def _finite_result(result) -> bool:
    return all(
        v is None or (math.isfinite(v) and 0.0 <= v <= 1.0)
        for v in (result.clean_acc, result.pgd_acc, result.aa_acc)
    )


# ---------------------------------------------------------------------------
# Fingerprint: the simulated, host-noise-free outputs (the correctness check)
# ---------------------------------------------------------------------------

def fingerprint(exp, results) -> Dict[str, Any]:
    """Everything a host-speed change must leave bit-identical.

    Floats are kept as ``float.hex`` strings so equality is exact.
    """
    digest = hashlib.sha256()
    for key, value in sorted(exp.global_model.state_dict().items()):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    fp: Dict[str, Any] = {
        "weights_sha256": digest.hexdigest(),
        "clock_s": float(exp.clock_s).hex(),
        "compute_s": float(exp.total_compute_s).hex(),
        "access_s": float(exp.total_access_s).hex(),
        "rounds": len(exp.history),
        "accuracy": [
            [None if v is None else float(v).hex()
             for v in (r.clean_acc, r.pgd_acc, r.aa_acc)]
            for r in results
        ],
    }
    if hasattr(exp, "partition"):
        fp["partition"] = [list(r) for r in exp.partition.ranges]
        fp["eps_log"] = [float(e.eps).hex() for e in exp.pert_log]
        fp["eps_star"] = [float(e).hex() for e in exp.eps_star]
    return fp


def fingerprint_id(fp: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def facts(exp) -> Dict[str, Any]:
    """Exact counts the experiment keeps itself (inputs to ``layer_metrics``)."""
    pop = exp.clients.stats()
    lookups = pop["hits"] + pop["misses"]
    out: Dict[str, Any] = {
        "aborted": sum(1 for r in exp.history if r.aborted),
        "population_misses": pop["misses"],
        "population_hit_ratio": pop["hits"] / lookups if lookups else 0.0,
        "sim_time_s": exp.clock_s,
        "sim_compute_s": exp.total_compute_s,
        "sim_access_s": exp.total_access_s,
    }
    journal = exp.config.journal_path
    if journal and os.path.exists(journal):
        out["journal_bytes"] = os.path.getsize(journal)
    if hasattr(exp, "partition"):
        from repro.core.partitioner import partition_summary

        out["modules"] = len(exp.partition)
        largest = max(
            row["mem_bytes"]
            for row in partition_summary(exp.global_model, exp.partition, exp.mem)
        )
        out["sim_mem_reduction"] = 1.0 - largest / exp.r_max
        cache = getattr(exp, "prefix_cache", None)
        if cache is not None:
            out["prefix_hit_ratio"] = cache.stats()["hit_rate"]
    return out
