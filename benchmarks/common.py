"""Shared setup for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced,
NumPy-trainable scale (see docs/architecture.md).  This module
fixes the two workloads — a CIFAR-10-like task with a VGG backbone and a
Caltech-256-like task with a ResNet backbone — plus the device pools and
the method registry, so that all benches share one consistent universe.

Scale is controlled by the REPRO_BENCH_SCALE env var: "quick" (CI-sized,
default) or "full" (longer runs, sharper separations).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.baselines import (
    FedDFAT,
    FedDropAT,
    FedETAT,
    FedRBN,
    FedRolexAT,
    HeteroFLAT,
    JointFAT,
)
from repro.core import FedProphet, FedProphetConfig
from repro.data import make_caltech256_like, make_cifar10_like
from repro.data.synthetic import SyntheticImageTask
from repro.flsim import FLConfig
from repro.hardware import DeviceSampler, device_pool
from repro.models import build_cnn, build_resnet, build_vgg
from repro.nn import DualBatchNorm2d

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")


@dataclass(frozen=True)
class BenchScale:
    rounds: int
    prophet_rounds_per_module: int
    local_iters: int
    num_clients: int
    clients_per_round: int
    train_per_class: int
    pgd_steps: int
    eval_samples: int


SCALES = {
    "quick": BenchScale(
        rounds=30, prophet_rounds_per_module=16, local_iters=6, num_clients=20,
        clients_per_round=4, train_per_class=120, pgd_steps=2, eval_samples=150,
    ),
    "full": BenchScale(
        rounds=120, prophet_rounds_per_module=48, local_iters=8, num_clients=40,
        clients_per_round=8, train_per_class=200, pgd_steps=4, eval_samples=300,
    ),
}


def bench_scale() -> BenchScale:
    return SCALES[SCALE]


# ------------------------------------------------------------------------
# Workloads: the paper's two dataset/model pairs at reduced scale.
# ------------------------------------------------------------------------

CIFAR_SHAPE = (3, 8, 8)
CALTECH_SHAPE = (3, 12, 12)


def cifar_task(seed: int = 0) -> SyntheticImageTask:
    s = bench_scale()
    return make_cifar10_like(
        image_size=CIFAR_SHAPE[1],
        train_per_class=s.train_per_class,
        test_per_class=max(20, s.train_per_class // 5),
        seed=seed,
    )


def caltech_task(seed: int = 1) -> SyntheticImageTask:
    s = bench_scale()
    return make_caltech256_like(
        image_size=CALTECH_SHAPE[1],
        num_classes=16,
        train_per_class=max(30, s.train_per_class // 2),
        test_per_class=max(10, s.train_per_class // 10),
        seed=seed,
    )


def cifar_builder(rng: np.random.Generator):
    """Scaled VGG16-family backbone for the CIFAR-like workload."""
    return build_vgg("vgg11", 10, CIFAR_SHAPE, width_mult=0.25, rng=rng)


def cifar_builder_dual(rng: np.random.Generator):
    return build_vgg(
        "vgg11", 10, CIFAR_SHAPE, width_mult=0.25, rng=rng, bn_cls=DualBatchNorm2d
    )


def caltech_builder(rng: np.random.Generator):
    """Scaled ResNet34-family backbone for the Caltech-like workload."""
    return build_resnet("resnet10", 16, CALTECH_SHAPE, width_mult=0.25, rng=rng)


def caltech_builder_dual(rng: np.random.Generator):
    return build_resnet(
        "resnet10", 16, CALTECH_SHAPE, width_mult=0.25, rng=rng, bn_cls=DualBatchNorm2d
    )


def cifar_family():
    return {
        "cnn2": lambda rng: build_cnn(2, 10, CIFAR_SHAPE, base_channels=8, rng=rng),
        "vgg11": cifar_builder,
    }


def caltech_family():
    return {
        "cnn2": lambda rng: build_cnn(2, 16, CALTECH_SHAPE, base_channels=8, rng=rng),
        "resnet10": caltech_builder,
    }


WORKLOADS = {
    "cifar10": dict(
        task=cifar_task, builder=cifar_builder, dual_builder=cifar_builder_dual,
        family=cifar_family, shape=CIFAR_SHAPE, pool="cifar10",
    ),
    "caltech256": dict(
        task=caltech_task, builder=caltech_builder, dual_builder=caltech_builder_dual,
        family=caltech_family, shape=CALTECH_SHAPE, pool="caltech256",
    ),
}


# ------------------------------------------------------------------------
# Device pools, rescaled to the shrunken workloads.
#
# Our backbones are orders of magnitude smaller than the paper's VGG16 /
# ResNet34, so against the raw device pools nothing would ever swap and
# every latency effect would vanish.  We therefore shrink each device's
# memory and I/O bandwidth by the MemReq ratio and its performance by the
# FLOPs ratio between the scaled and the paper-scale backbone — the
# avail-memory / requirement and access / compute regimes then match the
# paper's exactly.
# ------------------------------------------------------------------------

from repro.hardware import Device, forward_flops, mem_req_bytes
from repro.models import build_resnet as _build_resnet_full
from repro.models import build_vgg as _build_vgg_full

_PAPER_SPECS = {
    # workload -> (builder of paper-scale model, input shape, batch size)
    "cifar10": (lambda: _build_vgg_full("vgg16", 10, (3, 32, 32)), (3, 32, 32), 64),
    "caltech256": (
        lambda: _build_resnet_full("resnet34", 256, (3, 224, 224)),
        (3, 224, 224),
        32,
    ),
}

_scaled_pools: Dict[str, list] = {}


def scaled_device_pool(workload: str) -> list:
    """The paper's device pool for this workload, shrunk to our scale."""
    if workload not in _scaled_pools:
        w = WORKLOADS[workload]
        paper_builder, paper_shape, paper_batch = _PAPER_SPECS[workload]
        paper_model = paper_builder()
        ours = w["builder"](np.random.default_rng(0))
        mem_ratio = mem_req_bytes(ours, w["shape"], 32) / mem_req_bytes(
            paper_model, paper_shape, paper_batch
        )
        flops_ratio = forward_flops(ours, w["shape"]) / forward_flops(
            paper_model, paper_shape
        )
        _scaled_pools[workload] = [
            Device(
                d.name,
                d.perf_tflops * flops_ratio,
                d.mem_gb * mem_ratio,
                d.io_gbps * mem_ratio,
            )
            for d in device_pool(w["pool"])
        ]
    return _scaled_pools[workload]


# ------------------------------------------------------------------------
# Method registry
# ------------------------------------------------------------------------

METHODS = [
    "jfat",
    "feddf-at",
    "fedet-at",
    "heterofl-at",
    "feddrop-at",
    "fedrolex-at",
    "fedrbn",
    "fedprophet",
]


def fl_config(seed: int = 0, **overrides) -> FLConfig:
    s = bench_scale()
    defaults = dict(
        num_clients=s.num_clients, clients_per_round=s.clients_per_round,
        local_iters=s.local_iters, batch_size=32, lr=0.08,
        rounds=s.rounds, train_pgd_steps=s.pgd_steps, eval_pgd_steps=5,
        eval_every=0, eval_max_samples=s.eval_samples, seed=seed,
    )
    defaults.update(overrides)
    return FLConfig(**defaults)


def prophet_config(seed: int = 0, **overrides) -> FedProphetConfig:
    s = bench_scale()
    defaults = dict(
        num_clients=s.num_clients, clients_per_round=s.clients_per_round,
        local_iters=s.local_iters, batch_size=32, lr=0.08,
        rounds=4 * s.rounds, train_pgd_steps=s.pgd_steps, eval_pgd_steps=5,
        eval_every=0, eval_max_samples=s.eval_samples, seed=seed,
        rounds_per_module=s.prophet_rounds_per_module,
        patience=max(5, s.prophet_rounds_per_module // 2),
        r_min_fraction=0.35, val_samples=100, val_pgd_steps=3,
    )
    defaults.update(overrides)
    return FedProphetConfig(**defaults)


def make_experiment(
    method: str,
    workload: str,
    heterogeneity: str = "balanced",
    seed: int = 0,
    config_overrides: Optional[dict] = None,
    prophet_overrides: Optional[dict] = None,
):
    """Instantiate any registered method on a registered workload."""
    w = WORKLOADS[workload]
    sampler = DeviceSampler(scaled_device_pool(workload), heterogeneity)
    overrides = dict(config_overrides or {})
    if method == "fedprophet":
        overrides.update(prophet_overrides or {})
        return FedProphet(
            w["task"](), w["builder"], prophet_config(seed, **overrides),
            device_sampler=sampler,
        )
    cfg = fl_config(seed, **overrides)
    if method == "jfat":
        return JointFAT(w["task"](), w["builder"], cfg, device_sampler=sampler)
    if method == "heterofl-at":
        return HeteroFLAT(w["task"](), w["builder"], cfg, device_sampler=sampler)
    if method == "feddrop-at":
        return FedDropAT(w["task"](), w["builder"], cfg, device_sampler=sampler)
    if method == "fedrolex-at":
        return FedRolexAT(w["task"](), w["builder"], cfg, device_sampler=sampler)
    if method == "feddf-at":
        return FedDFAT(
            w["task"](), w["family"](), cfg, device_sampler=sampler, distill_iters=16
        )
    if method == "fedet-at":
        return FedETAT(
            w["task"](), w["family"](), cfg, device_sampler=sampler, distill_iters=16
        )
    if method == "fedrbn":
        return FedRBN(w["task"](), w["dual_builder"], cfg, device_sampler=sampler)
    raise ValueError(f"unknown method {method!r}")


# Completed runs, shared across benchmark files in one pytest session so
# Table 2 and Figure 7 (same runs, different columns) execute only once.
_RUN_CACHE: Dict[tuple, tuple] = {}


def run_method(method: str, workload: str, heterogeneity: str = "balanced", seed: int = 0):
    """Run a method to completion; returns (experiment, final EvalResult).

    Results are memoised per (method, workload, heterogeneity, seed) for
    the lifetime of the process.
    """
    key = (method, workload, heterogeneity, seed)
    if key not in _RUN_CACHE:
        exp = make_experiment(method, workload, heterogeneity, seed)
        exp.run()
        result = exp.final_eval(max_samples=bench_scale().eval_samples)
        _RUN_CACHE[key] = (exp, result)
    return _RUN_CACHE[key]
