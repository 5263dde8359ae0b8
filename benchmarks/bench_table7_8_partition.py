"""Tables 7–8: the model partitions of VGG16 and ResNet34 at paper scale.

Runs Algorithm 1 with the paper's R_min (60 MB for VGG16 at B=64, 224 MB
for ResNet34 at B=32) and prints the per-module layer lists, memory
requirements, and forward FLOPs — the direct analogue of the appendix
tables.  Expected shape: a handful of modules (paper: 7 each), every
multi-atom module under R_min.
"""

from __future__ import annotations

import pytest

from repro.core.partitioner import partition_model, partition_summary, segment_mem_bytes
from repro.hardware import MemoryModel
from repro.models import build_resnet, build_vgg
from repro.utils import format_table

MB = 1024**2


def compute_partitions():
    vgg = build_vgg("vgg16", 10, (3, 32, 32))
    mem_v = MemoryModel(batch_size=64)
    part_v = partition_model(vgg, 60 * MB, mem_v)

    r34 = build_resnet("resnet34", 256, (3, 224, 224))
    mem_r = MemoryModel(batch_size=32)
    part_r = partition_model(r34, 224 * MB, mem_r)
    return (vgg, mem_v, part_v), (r34, mem_r, part_r)


def _print_table(model, mem, partition, title):
    rows = []
    for r in partition_summary(model, partition, mem):
        rows.append(
            (
                r["module"],
                ", ".join(r["atoms"]),
                f"{r['mem_bytes'] / MB:.1f} MB",
                f"{r['flops_fwd'] / 1e9:.2f} G",
            )
        )
    print()
    print(format_table(["module", "layers", "MemReq", "FLOPs (fwd)"], rows, title=title))


def test_table7_8_partition(benchmark):
    (vgg, mem_v, part_v), (r34, mem_r, part_r) = benchmark.pedantic(
        compute_partitions, rounds=1, iterations=1
    )
    _print_table(vgg, mem_v, part_v, "Table 7 — VGG16 partition (R_min = 60 MB)")
    _print_table(r34, mem_r, part_r, "Table 8 — ResNet34 partition (R_min = 224 MB)")

    # Paper: both models partition into 7 modules; our memory model differs
    # in small constants, so accept the ballpark.
    assert 5 <= part_v.num_modules <= 10
    assert 5 <= part_r.num_modules <= 10
    # Every multi-atom module must respect the budget.
    for model, mem, part, r_min in [
        (vgg, mem_v, part_v, 60 * MB),
        (r34, mem_r, part_r, 224 * MB),
    ]:
        for a, b in part.ranges:
            if b - a > 1:
                assert segment_mem_bytes(model, a, b, mem) < r_min
