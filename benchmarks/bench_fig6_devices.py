"""Figure 6 (+ Tables 5–6): device samplings and memory consumption.

Upper panels: the balanced/unbalanced distributions of real-time available
memory and performance drawn from the paper's device pools.  Lower panels:
the training memory consumption of jFAT (whole model) vs FedProphet
(largest module + head), at the paper's full scale — the claimed ~80 %
memory reduction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partitioner import full_model_mem_bytes, partition_model, segment_mem_bytes
from repro.hardware import DeviceSampler, MemoryModel, device_pool
from repro.models import build_resnet, build_vgg
from repro.utils import format_table

GB = 1024**3
MB = 1024**2


def sample_distributions(pool_name: str, n: int = 500):
    out = {}
    for het in ("balanced", "unbalanced"):
        sampler = DeviceSampler(device_pool(pool_name), het)
        rng = np.random.default_rng(0)
        states = sampler.sample_many(n, rng)
        out[het] = dict(
            mem_gb=np.array([s.avail_mem_bytes / GB for s in states]),
            perf_tflops=np.array([s.avail_perf_flops / 1e12 for s in states]),
        )
    return out


def memory_consumption(model, shape, batch):
    mem = MemoryModel(batch_size=batch)
    r_max = full_model_mem_bytes(model, mem)
    partition = partition_model(model, 0.2 * r_max, mem)
    worst_module = max(
        segment_mem_bytes(model, a, b, mem) for a, b in partition.ranges
    )
    return r_max, worst_module, partition.num_modules


def compute_figure6():
    vgg = build_vgg("vgg16", 10, (3, 32, 32))
    r34 = build_resnet("resnet34", 256, (3, 224, 224))
    return {
        "cifar10": (sample_distributions("cifar10"), memory_consumption(vgg, (3, 32, 32), 64)),
        "caltech256": (
            sample_distributions("caltech256"),
            memory_consumption(r34, (3, 224, 224), 32),
        ),
    }


def test_fig6_devices(benchmark):
    data = benchmark.pedantic(compute_figure6, rounds=1, iterations=1)
    for workload, (dists, (r_max, worst, n_modules)) in data.items():
        rows = []
        for het, d in dists.items():
            rows.append(
                (
                    het,
                    f"{d['mem_gb'].mean():.2f}",
                    f"{d['mem_gb'].max():.2f}",
                    f"{d['perf_tflops'].mean():.2f}",
                    f"{d['perf_tflops'].max():.2f}",
                )
            )
        print()
        print(
            format_table(
                ["sampling", "mean mem (GB)", "max mem (GB)", "mean perf (TF)", "max perf (TF)"],
                rows,
                title=f"Figure 6 upper — {workload} device sampling",
            )
        )
        reduction = 1 - worst / r_max
        print(
            format_table(
                ["method", "mem (MB)"],
                [
                    ("jFAT (whole model)", f"{r_max / MB:.0f}"),
                    (f"FedProphet (max of {n_modules} modules)", f"{worst / MB:.0f}"),
                    ("reduction", f"{100 * reduction:.0f}%"),
                ],
                title=f"Figure 6 lower — {workload} training memory consumption",
            )
        )
        # Paper shape: unbalanced sampling yields weaker devices on average.
        assert dists["unbalanced"]["perf_tflops"].mean() < dists["balanced"]["perf_tflops"].mean()
        assert dists["unbalanced"]["mem_gb"].mean() < dists["balanced"]["mem_gb"].mean()
        # Paper claim: ~80% memory reduction (modules fit in 20% budget,
        # modulo one oversized module; accept >= 60%).
        assert reduction >= 0.6
