"""The layer-boundary wrapper table and the per-layer metrics it yields.

Layers are this repository's packages.  ``TABLE`` names, per layer, the
public callables a traced run wraps (``tracer.install``); ``layer_metrics``
turns the recorded spans and counters into the per-layer numbers listed in
``BENCHMARK.json``.  Every name in ``PER_LAYER`` is reported on every
workload — a layer a workload bypasses reads 0, which is itself the
"this workload does not exercise it" evidence.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Sequence

from perfbench import stats
from perfbench.tracer import END, NAME, PARENT, START, Tracer, aggregate, coverage


# ---------------------------------------------------------------------------
# Probes: counts and bytes recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _outermost(span) -> bool:
    parent = span[PARENT]
    return parent is None or parent[NAME] != span[NAME]


def _count_aggregated_bytes(states_of):
    """Probe adding the bytes of the client states one aggregation call merges."""

    def probe(tracer, span, args, kwargs, result):
        if _outermost(span):  # RobustAggregator delegates to weighted_average_states
            tracer.counters["flsim.aggregate.bytes"] += sum(
                v.nbytes for state in states_of(args) for v in state.values()
            )

    return probe


_probe_average = _count_aggregated_bytes(lambda args: args[0])
_probe_robust = _count_aggregated_bytes(lambda args: args[1])  # args[0] is self
_probe_masked = _count_aggregated_bytes(lambda args: (state for state, _mask, _w in args[1]))


def _probe_checkpoint(tracer, span, args, kwargs, result):
    tracer.counters["flsim.checkpoint.bytes"] += os.path.getsize(args[0])


def _probe_prefix_fetch(tracer, span, args, kwargs, result):
    cache = args[0]
    peak = tracer.counters["core.prefix_cache.peak_bytes"]
    tracer.counters["core.prefix_cache.peak_bytes"] = max(peak, cache.nbytes())


def _probe_pgd(tracer, span, args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs["config"]
    tracer.counters["attacks.pgd.steps"] += config.steps


_conv_flops: Dict[tuple, int] = {}


def _probe_conv_fwd(tracer, span, args, kwargs, result):
    # Analytic FLOPs of this call from the hardware model (per sample x N):
    # achieved FLOP/s is measured against the count the simulator charges.
    conv, x = args[0], args[1]
    key = (conv.in_channels, conv.out_channels, conv.kernel_size, conv.stride,
           conv.padding, conv.use_bias, x.shape[1:])
    per_sample = _conv_flops.get(key)
    if per_sample is None:
        from repro.hardware import forward_flops

        per_sample = _conv_flops[key] = forward_flops(conv, x.shape[1:])
    tracer.counters["nn.conv.fwd_flops"] += per_sample * x.shape[0]


def _eval_span_name(args) -> str:
    return "metrics.eval." + args[0].name


# ---------------------------------------------------------------------------
# The wrapper table
# ---------------------------------------------------------------------------

def _f(span, module, func, **extra):
    return {"span": span, "module": module, "func": func, **extra}


def _m(span, module, cls, method, **extra):
    return {"span": span, "module": module, "cls": cls, "method": method, **extra}


TABLE: List[dict] = [
    # flsim ------------------------------------------------------------------
    _m("flsim.sample", "repro.flsim.base", "FederatedExperiment", "sample_round"),
    _m("flsim.sample", "repro.flsim.population", "ClientPopulation", "client"),
    _m("flsim.sample", "repro.flsim.population", "ClientPopulation", "stats"),
    _f("flsim.local_train", "repro.flsim.local", "adversarial_local_train"),
    _f("flsim.local_train", "repro.flsim.local", "cohort_adversarial_local_train"),
    _f("flsim.snapshot", "repro.core.aggregator", "snapshot_segment"),
    _f("flsim.snapshot", "repro.core.aggregator", "restore_segment"),
    _m("flsim.snapshot", "repro.nn.module", "Module", "state_dict"),
    _m("flsim.snapshot", "repro.nn.module", "Module", "load_state_dict"),
    _f("flsim.aggregate", "repro.flsim.aggregation", "weighted_average_states",
       probe=_probe_average),
    _f("flsim.aggregate", "repro.flsim.aggregation", "masked_partial_average",
       probe=_probe_masked),
    _m("flsim.aggregate", "repro.flsim.robust_agg", "RobustAggregator", "aggregate",
       probe=_probe_robust),
    _m("flsim.scheduler", "repro.flsim.scheduler", "FLScheduler", "run_group"),
    _m("flsim.scheduler", "repro.flsim.scheduler", "FLScheduler", "submit_group"),
    _m("flsim.scheduler", "repro.flsim.executor", "RoundExecutor", "map"),
    _m("flsim.scheduler", "repro.flsim.scheduler", "CrossRoundPipeline", "dispatch"),
    _m("flsim.scheduler", "repro.flsim.scheduler", "CrossRoundPipeline", "advance_to"),
    _m("flsim.scheduler", "repro.flsim.scheduler", "CrossRoundPipeline", "drain_all"),
    _m("flsim.journal", "repro.flsim.journal", "RunJournal", "append"),
    _f("flsim.checkpoint", "repro.flsim.checkpoint", "write_checkpoint",
       probe=_probe_checkpoint),
    _m("flsim.eval", "repro.flsim.eval_executor", "EvalExecutor", "run"),
    # core -------------------------------------------------------------------
    _f("core.cascade_train", "repro.core.cascade", "cascade_local_train"),
    _m("core.cascade_eval", "repro.core.prophet", "FedProphet", "cascade_eval"),
    _f("core.eps_probe", "repro.core.cascade", "measure_output_perturbation"),
    _f("core.aggregate", "repro.core.aggregator", "aggregate_modules"),
    _f("core.aggregate", "repro.core.aggregator", "aggregate_heads"),
    _f("core.dma", "repro.core.dma", "assign_modules"),
    _f("core.partition", "repro.core.partitioner", "partition_model"),
    _m("core.prefix_cache", "repro.core.prefix_cache", "PrefixCache", "fetch",
       probe=_probe_prefix_fetch),
    _m("core.prefix_cache", "repro.core.prefix_cache", "PrefixCache", "fetch_stacked",
       probe=_probe_prefix_fetch),
    # attacks ----------------------------------------------------------------
    _f("attacks.pgd", "repro.attacks.pgd", "pgd_attack", probe=_probe_pgd),
    _f("attacks.pgd", "repro.attacks.pgd", "cohort_pgd_attack", probe=_probe_pgd),
    _f("attacks.apgd", "repro.attacks.autoattack", "apgd_attack"),
    _f("attacks.autoattack", "repro.attacks.autoattack", "auto_attack_lite"),
    # nn ---------------------------------------------------------------------
    _m("nn.conv.fwd", "repro.nn.conv", "Conv2d", "forward", probe=_probe_conv_fwd),
    _m("nn.conv.bwd", "repro.nn.conv", "Conv2d", "backward"),
    _f("nn.im2col", "repro.nn.functional", "im2col"),
    _f("nn.col2im", "repro.nn.functional", "col2im"),
    _m("nn.bn.fwd", "repro.nn.normalization", "BatchNorm2d", "forward"),
    _m("nn.bn.bwd", "repro.nn.normalization", "BatchNorm2d", "backward"),
    _m("nn.linear", "repro.nn.linear", "Linear", "forward"),
    _m("nn.linear", "repro.nn.linear", "Linear", "backward"),
    _m("nn.act", "repro.nn.activations", "ReLU", "forward"),
    _m("nn.act", "repro.nn.activations", "ReLU", "backward"),
    _m("nn.pool", "repro.nn.pooling", "MaxPool2d", "forward"),
    _m("nn.pool", "repro.nn.pooling", "MaxPool2d", "backward"),
    _m("nn.loss", "repro.nn.losses", "CrossEntropyLoss", "forward"),
    _m("nn.loss", "repro.nn.losses", "CrossEntropyLoss", "backward"),
    _m("nn.loss", "repro.nn.losses", "StrongConvexityLoss", "forward"),
    _m("nn.loss", "repro.nn.losses", "StrongConvexityLoss", "backward"),
    _m("nn.loss", "repro.nn.cohort", "CohortCrossEntropyLoss", "forward"),
    _m("nn.loss", "repro.nn.cohort", "CohortCrossEntropyLoss", "backward"),
    # optim, metrics, hardware, data, models ------------------------------------
    _m("optim.sgd.step", "repro.optim.sgd", "SGD", "step"),
    _m("metrics.eval", "repro.metrics.evaluation", "AttackSpec", "perturb",
       name_of=_eval_span_name),
    _m("hardware.cost", "repro.hardware.latency", "LatencyModel", "local_training_cost"),
    _m("hardware.cost", "repro.hardware.memory", "MemoryModel", "bytes_for"),
    _f("data.synth", "repro.data.synthetic", "make_cifar10_like"),
    _m("data.loader", "repro.data.dataset", "DataLoader", "__iter__", iter=True),
    _m("data.loader", "repro.data.dataset", "DataLoader", "iter_with_indices", iter=True),
    _f("models.build", "repro.models.vgg", "build_vgg"),
    _f("models.build", "repro.models.cnn", "build_cnn"),
]

NN_SPANS = ("nn.conv.fwd", "nn.conv.bwd", "nn.im2col", "nn.col2im", "nn.bn.fwd",
            "nn.bn.bwd", "nn.linear", "nn.act", "nn.pool", "nn.loss")


# ---------------------------------------------------------------------------
# Per-layer metric catalogue: name -> (unit, better)
# ---------------------------------------------------------------------------

def _catalogue() -> Dict[str, tuple]:
    c: Dict[str, tuple] = {}

    def add(unit, better, *names):
        for name in names:
            c[name] = (unit, better)

    add("count", "higher", "flsim.round.count")
    add("count", "lower", "flsim.round.aborted", "flsim.population.materialised",
        "flsim.local_train.calls", "attacks.pgd.calls", "optim.sgd.calls",
        "nn.calls_per_round", "core.modules")
    add("ms", "lower", "flsim.round.p90_ms")
    add("ratio", "higher", "flsim.population.hit_ratio", "core.prefix_cache.hit_ratio",
        "hardware.sim_mem_reduction", "trace.coverage")
    add("ratio", "lower", "attacks.pgd.train_share", "trace.overhead_ratio")
    add("s", "lower",
        "flsim.sample.self_s", "flsim.local_train.total_s", "flsim.snapshot.self_s",
        "flsim.aggregate.self_s", "flsim.scheduler.self_s", "flsim.journal.self_s",
        "flsim.checkpoint.self_s", "flsim.eval.total_s",
        "core.cascade_train.total_s", "core.cascade_eval.total_s",
        "core.eps_probe.total_s", "core.aggregate.self_s", "core.dma.self_s",
        "core.partition.setup_s", "core.prefix_cache.fetch_s",
        "attacks.pgd.total_s", "attacks.apgd.total_s", "attacks.autoattack.total_s",
        "nn.conv.fwd_s", "nn.conv.bwd_s", "nn.im2col.s", "nn.col2im.s",
        "nn.bn.fwd_s", "nn.bn.bwd_s", "nn.linear.s", "nn.act.s", "nn.pool.s",
        "nn.loss.s", "optim.sgd.step_s",
        "metrics.eval.clean_s", "metrics.eval.pgd_s", "metrics.eval.aa_s",
        "hardware.cost.self_s", "hardware.sim_time_s", "hardware.sim_compute_s",
        "hardware.sim_access_s",
        "data.synth_s", "data.loader.self_s", "models.build_s",
        "cli.import_s", "cli.train_wall_s.fedprophet", "cli.train_wall_s.jfat")
    add("MiB", "lower", "flsim.aggregate.mb", "flsim.checkpoint.mb",
        "core.prefix_cache.peak_mb")
    add("KiB", "lower", "flsim.journal.kb")
    add("us", "lower", "attacks.pgd.step_us", "optim.micro.sgd_step.us")
    add("GFLOP/s", "higher", "nn.conv.gflops_per_s")
    for backend in ("serial", "thread2", "process2", "batched_w1", "batched_w4",
                    "batched_w8"):
        add("ms", "lower", f"flsim.executor.{backend}.round_ms")
    add("count", "higher", "flsim.executor.cpu_count")
    for kernel in ("conv_fwd", "conv_bwd", "conv_bwd_input", "bn_fwd", "bn_bwd",
                   "linear_fwdbwd"):
        for size in ("small", "dense"):
            add("us", "lower", f"nn.micro.{kernel}.{size}.us")
            add("KiB", "lower", f"nn.micro.{kernel}.{size}.alloc_kb")
    for size in ("small", "dense"):
        add("GFLOP/s", "higher", f"nn.micro.conv_fwd.{size}.gflops_per_s")
    for k in (1, 4, 8):
        add("us", "lower", f"nn.cohort.install_us.k{k}", f"nn.cohort.extract_us.k{k}")
    return c


PER_LAYER: Dict[str, tuple] = _catalogue()


# ---------------------------------------------------------------------------
# Spans + counters + experiment state -> the in-run per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(
    tracer: Tracer,
    op_ms: Sequence[float],
    run_window: tuple,
    timed_window: tuple,
    facts: Dict[str, Any],
) -> Dict[str, float]:
    """The per-layer metrics one traced workload run produces.

    ``facts`` carries what the experiment itself counts exactly (aborted
    rounds, population/prefix-cache statistics, simulated clock, journal
    size); the tracer supplies every host-time number.
    """
    agg = aggregate(tracer.spans)
    counters = tracer.counters
    mib = 1024.0 * 1024.0

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    r0, r1 = run_window
    pgd_in_run = sum(
        s[END] - s[START] for s in tracer.spans
        if s[NAME] == "attacks.pgd" and r0 <= s[START] < r1
        and not _has_ancestor(s, "attacks.pgd")
    )
    pgd_steps = counters.get("attacks.pgd.steps", 0.0)
    conv_fwd = total("nn.conv.fwd")
    eval_total = total("flsim.eval")
    eval_pgd = total("metrics.eval.pgd")
    eval_aa = total("metrics.eval.aa")
    rounds = max(1, len(op_ms))
    return {
        "flsim.round.count": len(op_ms),
        "flsim.round.aborted": facts.get("aborted", 0),
        "flsim.round.p90_ms": stats.percentile(op_ms, 90) if op_ms else 0.0,
        "flsim.sample.self_s": self_s("flsim.sample"),
        "flsim.population.materialised": facts.get("population_misses", 0),
        "flsim.population.hit_ratio": facts.get("population_hit_ratio", 0.0),
        "flsim.local_train.total_s": total("flsim.local_train"),
        "flsim.local_train.calls": calls("flsim.local_train"),
        "flsim.snapshot.self_s": self_s("flsim.snapshot"),
        "flsim.aggregate.self_s": self_s("flsim.aggregate"),
        "flsim.aggregate.mb": counters.get("flsim.aggregate.bytes", 0.0) / mib,
        "flsim.scheduler.self_s": self_s("flsim.scheduler"),
        "flsim.journal.self_s": self_s("flsim.journal"),
        "flsim.journal.kb": facts.get("journal_bytes", 0) / 1024.0,
        "flsim.checkpoint.self_s": self_s("flsim.checkpoint"),
        "flsim.checkpoint.mb": counters.get("flsim.checkpoint.bytes", 0.0) / mib,
        "flsim.eval.total_s": eval_total,
        "core.cascade_train.total_s": total("core.cascade_train"),
        "core.cascade_eval.total_s": total("core.cascade_eval"),
        "core.eps_probe.total_s": total("core.eps_probe"),
        "core.aggregate.self_s": self_s("core.aggregate"),
        "core.dma.self_s": self_s("core.dma"),
        "core.partition.setup_s": total("core.partition"),
        "core.modules": facts.get("modules", 0),
        "core.prefix_cache.fetch_s": total("core.prefix_cache"),
        "core.prefix_cache.hit_ratio": facts.get("prefix_hit_ratio", 0.0),
        "core.prefix_cache.peak_mb": counters.get("core.prefix_cache.peak_bytes", 0.0) / mib,
        "attacks.pgd.total_s": total("attacks.pgd"),
        "attacks.pgd.calls": calls("attacks.pgd"),
        "attacks.pgd.step_us": 1e6 * total("attacks.pgd") / pgd_steps if pgd_steps else 0.0,
        "attacks.pgd.train_share": pgd_in_run / (r1 - r0) if r1 > r0 else 0.0,
        "attacks.apgd.total_s": total("attacks.apgd"),
        "attacks.autoattack.total_s": total("attacks.autoattack"),
        "nn.conv.fwd_s": conv_fwd,
        "nn.conv.bwd_s": total("nn.conv.bwd"),
        "nn.conv.gflops_per_s": (
            counters.get("nn.conv.fwd_flops", 0.0) / conv_fwd / 1e9 if conv_fwd else 0.0
        ),
        "nn.im2col.s": total("nn.im2col"),
        "nn.col2im.s": total("nn.col2im"),
        "nn.bn.fwd_s": total("nn.bn.fwd"),
        "nn.bn.bwd_s": total("nn.bn.bwd"),
        "nn.linear.s": total("nn.linear"),
        "nn.act.s": total("nn.act"),
        "nn.pool.s": total("nn.pool"),
        "nn.loss.s": total("nn.loss"),
        "nn.calls_per_round": sum(calls(n) for n in NN_SPANS) / rounds,
        "optim.sgd.step_s": total("optim.sgd.step"),
        "optim.sgd.calls": calls("optim.sgd.step"),
        # The eval engine's time outside the attacks: clean and prediction
        # forwards, subsampling, sharding and the reduce.
        "metrics.eval.clean_s": max(0.0, eval_total - eval_pgd - eval_aa),
        "metrics.eval.pgd_s": eval_pgd,
        "metrics.eval.aa_s": eval_aa,
        "hardware.cost.self_s": self_s("hardware.cost"),
        "hardware.sim_time_s": facts.get("sim_time_s", 0.0),
        "hardware.sim_compute_s": facts.get("sim_compute_s", 0.0),
        "hardware.sim_access_s": facts.get("sim_access_s", 0.0),
        "hardware.sim_mem_reduction": facts.get("sim_mem_reduction", 0.0),
        "data.synth_s": total("data.synth"),
        "data.loader.self_s": self_s("data.loader"),
        "models.build_s": total("models.build"),
        "trace.coverage": coverage(tracer.spans, timed_window),
    }


def _has_ancestor(span, name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False
