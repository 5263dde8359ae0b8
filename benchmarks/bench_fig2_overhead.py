"""Figure 2: local-training latency breakdown at paper scale.

Reproduces the motivation experiment: one client's local-training latency
on (a) VGG16/CIFAR-10 and (b) ResNet34/Caltech-256 under three regimes:

* "Suff. Mem"     — enough memory, no swapping;
* "Lim. w/ Swap"  — 20 % memory, end-to-end training with memory swapping;
* "Lim. w/o Swap" — 20 % memory, FedRolex-style sub-model (no swapping).

Expected shape (paper): with swapping, data-access time dominates the
total; the sub-model run removes data access at the cost of training only
a fraction of the model.  Everything here is analytic, so the *paper's
full-scale models* are used directly.
"""

from __future__ import annotations

import pytest

from repro.hardware import (
    Device,
    DeviceState,
    LatencyModel,
    MemoryModel,
    training_flops_per_iteration,
)
from repro.models import build_resnet, build_vgg
from repro.utils import format_table

PGD_STEPS = 10
ITERATIONS = 30


def _workloads():
    return [
        ("VGG16/CIFAR-10", build_vgg("vgg16", 10, (3, 32, 32)), (3, 32, 32), 64),
        (
            "ResNet34/Caltech-256",
            build_resnet("resnet34", 256, (3, 224, 224)),
            (3, 224, 224),
            32,
        ),
    ]


def _device(perf_tflops=2.0, io_gbps=1.5, mem_gb=64):
    d = Device("bench-device", perf_tflops, mem_gb, io_gbps)
    return d


def _breakdown(model, shape, batch):
    mem = MemoryModel(batch_size=batch)
    lat = LatencyModel()
    mem_req = mem.bytes_for(model, shape)
    flops = training_flops_per_iteration(model, shape, batch, PGD_STEPS)
    dev = _device()

    rows = []
    # Sufficient memory
    state = DeviceState(dev, avail_mem_bytes=2 * mem_req, avail_perf_flops=dev.perf_flops)
    rows.append(("Suff. Mem", lat.local_training_cost(state, flops, mem_req, ITERATIONS, PGD_STEPS)))
    # Limited memory with swapping (20% of requirement)
    state = DeviceState(dev, avail_mem_bytes=0.2 * mem_req, avail_perf_flops=dev.perf_flops)
    rows.append(("Lim. w/ Swap", lat.local_training_cost(state, flops, mem_req, ITERATIONS, PGD_STEPS)))
    # Limited memory, sub-model (no swap): FLOPs/mem scale with the width
    # ratio; a 0.2-memory sub-model has roughly 0.2x activations and ~0.04x
    # weight FLOPs, we take the activation-dominated 0.2x estimate.
    sub_flops = 0.2 * flops
    state = DeviceState(dev, avail_mem_bytes=0.2 * mem_req, avail_perf_flops=dev.perf_flops)
    rows.append(("Lim. w/o Swap", lat.local_training_cost(state, sub_flops, 0.2 * mem_req, ITERATIONS, PGD_STEPS)))
    return rows


def compute_figure2():
    out = {}
    for name, model, shape, batch in _workloads():
        out[name] = _breakdown(model, shape, batch)
    return out


def test_fig2_overhead(benchmark):
    data = benchmark.pedantic(compute_figure2, rounds=1, iterations=1)
    for name, rows in data.items():
        table = [
            (
                regime,
                round(c.compute_s, 2),
                round(c.access_s, 2),
                round(c.total_s, 2),
                f"{100 * c.access_s / max(c.total_s, 1e-12):.0f}%",
            )
            for regime, c in rows
        ]
        print()
        print(
            format_table(
                ["regime", "compute (s)", "data access (s)", "total (s)", "access share"],
                table,
                title=f"Figure 2 — {name} local-training latency breakdown",
            )
        )
        costs = dict(rows)
        # Paper shape: swapping makes data access dominate the latency...
        swap = costs["Lim. w/ Swap"]
        assert swap.access_s > swap.compute_s
        # ...and both alternatives are much faster than swapping.
        assert costs["Suff. Mem"].total_s < 0.5 * swap.total_s
        assert costs["Lim. w/o Swap"].total_s < 0.5 * swap.total_s
        # No swap regimes have zero data-access time.
        assert costs["Suff. Mem"].access_s == 0.0
        assert costs["Lim. w/o Swap"].access_s == 0.0
