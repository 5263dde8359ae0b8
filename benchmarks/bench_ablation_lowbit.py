"""Ablation: FedProphet + low-bit training (paper §8, future work).

The paper argues FedProphet is complementary to parameter-level
quantization: the partitioner operates at layer/block granularity, so
shrinking every tensor's storage width simply relaxes the memory
constraint and yields fewer, larger modules.  This bench quantifies that
interaction analytically at the paper's full scale: module counts and
worst-module footprints for fp32 / fp16 / int8 accounting.

Expected shape: module count is non-increasing in precision reduction;
at int8 the whole VGG16 fits in far fewer modules under the same R_min.
"""

from __future__ import annotations

import pytest

from repro.core.partitioner import full_model_mem_bytes, partition_model, segment_mem_bytes
from repro.hardware import MemoryModel
from repro.models import build_resnet, build_vgg
from repro.utils import format_table

MB = 1024**2
PRECISIONS = [("fp32", 4), ("fp16", 2), ("int8", 1)]


def compute_lowbit():
    workloads = [
        ("VGG16/CIFAR-10", build_vgg("vgg16", 10, (3, 32, 32)), (3, 32, 32), 64, 60 * MB),
        (
            "ResNet34/Caltech-256",
            build_resnet("resnet34", 256, (3, 224, 224)),
            (3, 224, 224),
            32,
            224 * MB,
        ),
    ]
    out = {}
    for name, model, shape, batch, r_min in workloads:
        rows = []
        for label, width in PRECISIONS:
            mem = MemoryModel(batch_size=batch, bytes_per_scalar=width)
            part = partition_model(model, r_min, mem)
            worst = max(segment_mem_bytes(model, a, b, mem) for a, b in part.ranges)
            rows.append((label, part.num_modules, worst, full_model_mem_bytes(model, mem)))
        out[name] = rows
    return out


def test_ablation_lowbit(benchmark):
    data = benchmark.pedantic(compute_lowbit, rounds=1, iterations=1)
    for name, rows in data.items():
        print()
        print(
            format_table(
                ["precision", "#modules", "worst module", "R_max"],
                [
                    (label, n, f"{worst / MB:.0f} MB", f"{rmax / MB:.0f} MB")
                    for label, n, worst, rmax in rows
                ],
                title=f"Low-bit x FedProphet partitioning — {name}",
            )
        )
        counts = [n for _, n, _, _ in rows]
        # Lower precision never needs more modules under the same budget.
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] < counts[0]
