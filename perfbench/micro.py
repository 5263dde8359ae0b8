"""Kernel micro-benchmarks: a declarative (setup, statement) table.

Each statement is timed ``ROUNDS`` times, interleaved with all the others
(A B C A B C), ``NUMBER`` calls per sample, and reported as the median.
A separate ``tracemalloc`` pass records the bytes one call allocates at
peak.  Only public layer methods are called: a backward needs the forward
that fills its single-shot caches, so backward rows are measured as
(forward+backward) minus forward, both medians.

Shapes are the first conv of ``prophet_cascade`` (``small``: 3->16 channels
on 8x8) and the widest conv of ``jfat_dense`` (``dense``: 128->128 channels
on 2x2), batch 32, with the matching batch-norm and classifier shapes.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

ROUNDS = 15
NUMBER = 10
BATCH = 32
SHAPES = {"small": dict(c_in=3, c_out=16, hw=8), "dense": dict(c_in=128, c_out=128, hw=2)}
COHORT_WIDTHS = (1, 4, 8)


def _conv_ctx(shape):
    from repro.nn import Conv2d

    rng = np.random.default_rng(0)
    conv = Conv2d(shape["c_in"], shape["c_out"], 3, padding=1, rng=rng)
    x = rng.standard_normal((BATCH, shape["c_in"], shape["hw"], shape["hw"]))
    g = rng.standard_normal((BATCH, shape["c_out"], shape["hw"], shape["hw"]))
    return {"layer": conv, "x": x, "g": g}


def _bn_ctx(shape):
    from repro.nn import BatchNorm2d

    rng = np.random.default_rng(0)
    bn = BatchNorm2d(shape["c_out"])
    x = rng.standard_normal((BATCH, shape["c_out"], shape["hw"], shape["hw"]))
    return {"layer": bn, "x": x, "g": x.copy()}


def _linear_ctx(shape):
    from repro.nn import Linear

    rng = np.random.default_rng(0)
    features = shape["c_out"] * 8
    lin = Linear(features, 10, rng=rng)
    return {"layer": lin, "x": rng.standard_normal((BATCH, features)),
            "g": rng.standard_normal((BATCH, 10))}


def _fwd(c):
    c["layer"].forward(c["x"])


def _pair(c):
    layer = c["layer"]
    layer.forward(c["x"])
    layer.backward(c["g"])


def _fwd_input_grad_only(c):
    from repro.nn import attack_grad_scope

    with attack_grad_scope():
        c["layer"].forward(c["x"])


def _pair_input_grad_only(c):
    from repro.nn import attack_grad_scope

    layer = c["layer"]
    with attack_grad_scope():
        layer.forward(c["x"])
        layer.backward(c["g"])


def _swarm_model():
    from repro.models import build_cnn

    return build_cnn(2, 10, (3, 8, 8), base_channels=8, rng=np.random.default_rng(0))


def _cohort_ctx(k):
    model = _swarm_model()
    return {"model": model, "states": [model.state_dict()] * k}


def _install(c):
    from repro.nn.cohort import install_cohort

    install_cohort(c["model"], c["states"])


def _clear(c):
    from repro.nn.cohort import clear_cohort

    clear_cohort(c["model"])


def _extract(c):
    from repro.nn.cohort import extract_cohort

    extract_cohort(c["model"])


def _sgd_ctx():
    from repro.optim.sgd import SGD

    model = _swarm_model()
    for p in model.parameters():
        p.grad[...] = 0.01
    return {"opt": SGD(model.parameters(), lr=0.01, momentum=0.9, weight_decay=1e-4)}


def _sgd_step(c):
    c["opt"].step()


# (statement name, setup -> ctx, statement, before, after); before/after run
# untimed around every timed sample.
Entry = Tuple[str, Callable[[], Dict[str, Any]], Callable, Any, Any]


def table() -> List[Entry]:
    entries: List[Entry] = []
    for size, shape in SHAPES.items():
        entries += [
            (f"conv_fwd.{size}", lambda s=shape: _conv_ctx(s), _fwd, None, None),
            (f"conv_pair.{size}", lambda s=shape: _conv_ctx(s), _pair, None, None),
            (f"conv_fwd_ig.{size}", lambda s=shape: _conv_ctx(s), _fwd_input_grad_only, None, None),
            (f"conv_pair_ig.{size}", lambda s=shape: _conv_ctx(s), _pair_input_grad_only, None, None),
            (f"bn_fwd.{size}", lambda s=shape: _bn_ctx(s), _fwd, None, None),
            (f"bn_pair.{size}", lambda s=shape: _bn_ctx(s), _pair, None, None),
            (f"linear_fwdbwd.{size}", lambda s=shape: _linear_ctx(s), _pair, None, None),
        ]
    for k in COHORT_WIDTHS:
        entries += [
            (f"cohort_install.k{k}", lambda k=k: _cohort_ctx(k), _install, None, _clear),
            (f"cohort_extract.k{k}", lambda k=k: _cohort_ctx(k), _extract, _install, _clear),
        ]
    entries.append(("sgd_step", _sgd_ctx, _sgd_step, None, None))
    return entries


def measure(rounds: int = ROUNDS, number: int = NUMBER) -> Dict[str, Dict[str, float]]:
    """``{statement: {"us": median per-call time, "alloc_kb": peak alloc}}``."""
    clock = time.perf_counter
    prepared = [(name, setup(), stmt, before, after)
                for name, setup, stmt, before, after in table()]
    samples: Dict[str, List[float]] = {name: [] for name, *_ in prepared}

    def one_sample(ctx, stmt, before, after, calls) -> float:
        elapsed = 0.0
        for _ in range(calls):
            if before is not None:
                before(ctx)
            t0 = clock()
            stmt(ctx)
            elapsed += clock() - t0
            if after is not None:
                after(ctx)
        return elapsed / calls

    for name, ctx, stmt, before, after in prepared:  # warm-up, untimed
        one_sample(ctx, stmt, before, after, 2)
    for _ in range(rounds):
        for name, ctx, stmt, before, after in prepared:
            samples[name].append(one_sample(ctx, stmt, before, after, number))

    out: Dict[str, Dict[str, float]] = {}
    tracemalloc.start()
    try:
        for name, ctx, stmt, before, after in prepared:
            if before is not None:
                before(ctx)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            stmt(ctx)
            peak = tracemalloc.get_traced_memory()[1]
            if after is not None:
                after(ctx)
            out[name] = {"us": 1e6 * statistics.median(samples[name]),
                         "alloc_kb": max(0, peak - base) / 1024.0}
    finally:
        tracemalloc.stop()
    return out


def metrics(measured: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Statement medians -> the ``nn.micro.*`` / ``nn.cohort.*`` / ``optim.micro.*`` names."""
    from repro.hardware import forward_flops

    m: Dict[str, float] = {}
    for size, shape in SHAPES.items():
        def us(stmt):
            return measured[f"{stmt}.{size}"]["us"]

        def kb(stmt):
            return measured[f"{stmt}.{size}"]["alloc_kb"]

        rows = {
            "conv_fwd": (us("conv_fwd"), kb("conv_fwd")),
            "conv_bwd": (max(0.0, us("conv_pair") - us("conv_fwd")), kb("conv_pair")),
            "conv_bwd_input": (
                max(0.0, us("conv_pair_ig") - us("conv_fwd_ig")), kb("conv_pair_ig")),
            "bn_fwd": (us("bn_fwd"), kb("bn_fwd")),
            "bn_bwd": (max(0.0, us("bn_pair") - us("bn_fwd")), kb("bn_pair")),
            "linear_fwdbwd": (us("linear_fwdbwd"), kb("linear_fwdbwd")),
        }
        for kernel, (t_us, alloc) in rows.items():
            m[f"nn.micro.{kernel}.{size}.us"] = t_us
            m[f"nn.micro.{kernel}.{size}.alloc_kb"] = alloc
        conv = _conv_ctx(shape)["layer"]
        flops = BATCH * forward_flops(conv, (shape["c_in"], shape["hw"], shape["hw"]))
        m[f"nn.micro.conv_fwd.{size}.gflops_per_s"] = flops / (us("conv_fwd") * 1e-6) / 1e9
    for k in COHORT_WIDTHS:
        m[f"nn.cohort.install_us.k{k}"] = measured[f"cohort_install.k{k}"]["us"]
        m[f"nn.cohort.extract_us.k{k}"] = measured[f"cohort_extract.k{k}"]["us"]
    m["optim.micro.sgd_step.us"] = measured["sgd_step"]["us"]
    return m
