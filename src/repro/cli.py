"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``partition``  — run Algorithm 1 on a named architecture and print the
                 module table (paper Tables 7–8 style).
``devices``    — print a device pool and sampled real-time resources.
``train``      — run a federated experiment (FedProphet or a baseline)
                 on a synthetic workload and print the final metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing
from typing import List, Optional

import numpy as np

from repro.core import FedProphetConfig
from repro.flsim import FaultPlan, FLConfig, ThreatPlan

MB = 1024**2

#: The config fields ``repro train`` sets, in flag order.  Each flag's
#: type, default, choices and help are its field's declaration; the flag
#: is the field's name unless aliased, and the demo defaults below
#: shrink the paper's scale to a run of minutes.
_TRAIN_FIELDS = (
    "rounds", "num_clients", "clients_per_round", "local_iters", "batch_size", "lr",
    "train_pgd_steps", "seed", "fusion_width", "aggregation_mode", "max_staleness",
    "pipeline_depth", "eval_every", "journal_path", "checkpoint_every", "status_port",
    "eval_every_merge", "fault_plan", "threat_plan", "aggregation_rule", "trim_ratio",
    "krum_byzantine_f", "clip_norm", "client_timeout", "max_client_retries",
    "min_clients_per_round", "population_scheme", "client_materialisation",
    "client_cache_size", "samples_per_client", "availability_fraction",
    "availability_period",
)
_FLAG_ALIASES = {"num_clients": "clients", "train_pgd_steps": "pgd_steps",
                 "journal_path": "journal"}
_DEMO_DEFAULTS = dict(rounds=40, num_clients=20, clients_per_round=4, local_iters=5,
                      batch_size=32, lr=0.08, train_pgd_steps=2, eval_every=0)


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.core.partitioner import (
        full_model_mem_bytes,
        partition_model,
        partition_summary,
    )
    from repro.hardware import MemoryModel
    from repro.models import build_model
    from repro.utils import format_table

    shape = (3, args.image_size, args.image_size)
    model = build_model(args.model, args.classes, shape, width_mult=args.width_mult)
    mem = MemoryModel(batch_size=args.batch_size, bytes_per_scalar=args.bytes_per_scalar)
    r_max = full_model_mem_bytes(model, mem)
    r_min = args.r_min_mb * MB if args.r_min_mb else args.r_min_fraction * r_max
    partition = partition_model(model, r_min, mem)
    rows = [
        (
            r["module"],
            ", ".join(r["atoms"]),
            f"{r['mem_bytes'] / MB:.1f} MB",
            f"{r['flops_fwd'] / 1e9:.3f} G",
        )
        for r in partition_summary(model, partition, mem)
    ]
    print(
        format_table(
            ["module", "layers", "MemReq", "FLOPs (fwd)"],
            rows,
            title=(
                f"{args.model} @ {shape}, R_max = {r_max / MB:.1f} MB, "
                f"R_min = {r_min / MB:.1f} MB -> {partition.num_modules} modules"
            ),
        )
    )
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.hardware import DeviceSampler, device_pool
    from repro.utils import format_table

    pool = device_pool(args.pool)
    rows = [(d.name, f"{d.perf_tflops} TF", f"{d.mem_gb} GB", f"{d.io_gbps} GB/s") for d in pool]
    print(format_table(["device", "perf", "memory", "I/O bw"], rows,
                       title=f"device pool: {args.pool}"))
    sampler = DeviceSampler(pool, args.heterogeneity)
    rng = np.random.default_rng(args.seed)
    states = sampler.sample_many(args.samples, rng)
    mems = np.array([s.avail_mem_bytes / 1024**3 for s in states])
    perfs = np.array([s.avail_perf_flops / 1e12 for s in states])
    print(
        f"\n{args.samples} samples ({args.heterogeneity}): "
        f"avail mem {mems.mean():.2f}±{mems.std():.2f} GB, "
        f"avail perf {perfs.mean():.2f}±{perfs.std():.2f} TFLOPS"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.baselines import (
        FedDropAT,
        FedRBN,
        FedRolexAT,
        HeteroFLAT,
        JointFAT,
    )
    from repro.core import FedProphet
    from repro.data import make_cifar10_like
    from repro.hardware import DeviceSampler, device_pool
    from repro.models import build_vgg
    from repro.nn.normalization import DualBatchNorm2d

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if args.replay and not args.journal:
        print("error: --replay requires --journal", file=sys.stderr)
        return 2
    if args.replay and args.resume:
        print("error: --replay and --resume are mutually exclusive", file=sys.stderr)
        return 2
    fields = {name: getattr(args, _FLAG_ALIASES.get(name, name)) for name in _TRAIN_FIELDS}
    try:
        for name, plan in (("fault_plan", FaultPlan), ("threat_plan", ThreatPlan)):
            fields[name] = plan.parse(fields[name]) if fields[name] else None
        if args.method == "fedprophet":
            config = FedProphetConfig(
                rounds_per_module=max(4, args.rounds // 4), patience=max(3, args.rounds // 8),
                r_min_fraction=0.35, val_samples=80, val_pgd_steps=3,
                eval_pgd_steps=5, eval_max_samples=150, **fields,
            )
        else:
            config = FLConfig(eval_pgd_steps=5, eval_max_samples=150, **fields)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    shape = (3, args.image_size, args.image_size)
    task = make_cifar10_like(
        image_size=args.image_size, train_per_class=args.train_per_class,
        test_per_class=max(10, args.train_per_class // 5), seed=args.seed,
    )
    # FedRBN propagates robustness through dual batch-norm statistics, so
    # its backbone swaps every BN layer for DualBatchNorm2d.
    bn_cls = DualBatchNorm2d if args.method == "fedrbn" else None
    builder = lambda rng: build_vgg(
        "vgg11", 10, shape, width_mult=args.width_mult, rng=rng,
        **({"bn_cls": bn_cls} if bn_cls is not None else {}),
    )
    sampler = DeviceSampler(device_pool("cifar10"), args.heterogeneity)
    cls = {
        "fedprophet": FedProphet, "jfat": JointFAT, "heterofl": HeteroFLAT,
        "feddrop": FedDropAT, "fedrolex": FedRolexAT, "fedrbn": FedRBN,
    }[args.method]

    if args.replay:
        # Re-execute the journalled run in a scratch directory (same
        # journal basename, so re-emitted checkpoint events match
        # bit-for-bit) and verify every event against the recorded log;
        # the directory goes when this call returns.
        import tempfile

        scratch = tempfile.TemporaryDirectory(prefix="repro-replay-")
        config = dataclasses.replace(
            config, journal_path=os.path.join(scratch.name, os.path.basename(args.journal))
        )
    try:
        exp = cls(task, builder, config, device_sampler=sampler)
    except ValueError as error:  # construction only: a run's AggregationError is one too
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.replay:
        from repro.flsim.journal import JournalError
        from repro.flsim.replay import ReplayDivergence, replay_run

        with exp:
            try:
                report = replay_run(
                    os.path.abspath(args.journal), lambda: exp, verbose=args.verbose
                )
            except ReplayDivergence as err:
                print(f"replay FAILED: {err}", file=sys.stderr)
                return 1
            except JournalError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
        print(report.summary())
        return 0

    if exp.status_address:
        print(f"status endpoint: {exp.status_address}/status")
    if args.verbose:
        # The resolved engine settings (fusion width and its cause).
        print(exp.describe_parallelism())
    if args.resume:
        exp.resume(args.journal, verbose=args.verbose)
    else:
        exp.run(verbose=args.verbose)
    res = exp.final_eval(max_samples=150)
    print(
        f"\n{args.method}: clean {res.clean_acc:.2%}, PGD {res.pgd_acc:.2%}, "
        f"AA {res.aa_acc:.2%}; simulated time {exp.clock_s:.3g}s "
        f"(compute {exp.total_compute_s:.3g}s, access {exp.total_access_s:.3g}s)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="run Algorithm 1 and print the module table")
    p.add_argument("--model", default="vgg16")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--width-mult", type=float, default=1.0)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--bytes-per-scalar", type=int, default=4,
                   help="4=fp32 (paper), 2=fp16, 1=int8 low-bit training")
    p.add_argument("--r-min-mb", type=float, default=None)
    p.add_argument("--r-min-fraction", type=float, default=0.2)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("devices", help="inspect a device pool")
    p.add_argument("--pool", default="cifar10", choices=["cifar10", "caltech256"])
    p.add_argument("--heterogeneity", default="balanced", choices=["balanced", "unbalanced"])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_devices)

    p = sub.add_parser("train", help="run a federated experiment",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--method", default="fedprophet",
                   choices=["fedprophet", "jfat", "heterofl", "feddrop",
                            "fedrolex", "fedrbn"])
    p.add_argument("--heterogeneity", default="balanced", choices=["balanced", "unbalanced"])
    p.add_argument("--image-size", type=int, default=8)
    p.add_argument("--width-mult", type=float, default=0.25)
    p.add_argument("--train-per-class", type=int, default=80)
    declared = {f.name: f for f in dataclasses.fields(FLConfig)}
    hints = typing.get_type_hints(FLConfig)
    for name in _TRAIN_FIELDS:
        field = declared[name]
        # Optional[int] is a union with NoneType; str and the plan specs
        # stay strings.
        kind = next(t for t in typing.get_args(hints[name]) or (hints[name],)
                    if t is not type(None))
        p.add_argument(
            "--" + _FLAG_ALIASES.get(name, name).replace("_", "-"),
            type=kind if kind in (int, float) else None,
            default=_DEMO_DEFAULTS.get(name, field.default),
            choices=field.metadata["choices"], help=field.metadata["meaning"],
        )
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted run from --journal's last "
                        "checkpoint (bit-identical to the uninterrupted run)")
    p.add_argument("--replay", action="store_true",
                   help="deterministically re-execute the run recorded in "
                        "--journal and verify every journal event "
                        "bit-for-bit (exit 1 + a divergence report naming "
                        "the first mismatching seq on failure; pass the "
                        "original --checkpoint-every to verify checkpoint "
                        "events too, otherwise they are skipped)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_train)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
