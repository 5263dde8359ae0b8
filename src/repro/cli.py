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
import os
import sys
from typing import List, Optional

import numpy as np

MB = 1024**2


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
    from repro.core import FedProphet, FedProphetConfig
    from repro.data import make_cifar10_like
    from repro.flsim import FaultPlan, FLConfig, ThreatPlan
    from repro.hardware import DeviceSampler, device_pool
    from repro.models import build_vgg
    from repro.nn.normalization import DualBatchNorm2d

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
    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if args.replay and not args.journal:
        print("error: --replay requires --journal", file=sys.stderr)
        return 2
    if args.replay and args.resume:
        print("error: --replay and --resume are mutually exclusive", file=sys.stderr)
        return 2
    fault_plan = FaultPlan.parse(args.fault_plan) if args.fault_plan else None
    threat_plan = ThreatPlan.parse(args.threat_plan) if args.threat_plan else None
    common = dict(
        num_clients=args.clients, clients_per_round=args.clients_per_round,
        local_iters=args.local_iters, batch_size=args.batch_size, lr=args.lr,
        train_pgd_steps=args.pgd_steps, eval_pgd_steps=5, eval_every=args.eval_every,
        eval_max_samples=150, seed=args.seed,
        fusion_width=args.fusion_width,
        aggregation_mode=args.aggregation_mode, max_staleness=args.max_staleness,
        pipeline_depth=args.pipeline_depth,
        journal_path=args.journal, checkpoint_every=args.checkpoint_every,
        metrics_path=args.metrics, status_port=args.status_port,
        eval_every_merge=args.eval_every_merge,
        fault_plan=fault_plan, client_timeout=args.client_timeout,
        max_client_retries=args.max_client_retries,
        min_clients_per_round=args.min_clients_per_round,
        threat_plan=threat_plan, aggregation_rule=args.aggregation_rule,
        trim_ratio=args.trim_ratio, krum_byzantine_f=args.krum_byzantine_f,
        clip_norm=args.clip_norm,
        population_scheme=args.population_scheme,
        client_materialisation=args.client_materialisation,
        client_cache_size=args.client_cache_size,
        samples_per_client=args.samples_per_client,
        availability_fraction=args.availability_fraction,
        availability_period=args.availability_period,
    )
    def build(**overrides):
        fields = dict(common, **overrides)
        if args.method == "fedprophet":
            return FedProphet(
                task, builder,
                FedProphetConfig(rounds=args.rounds,
                                 rounds_per_module=max(4, args.rounds // 4),
                                 patience=max(3, args.rounds // 8),
                                 r_min_fraction=0.35,
                                 val_samples=80, val_pgd_steps=3, **fields),
                device_sampler=sampler,
            )
        cls = {
            "jfat": JointFAT, "heterofl": HeteroFLAT,
            "feddrop": FedDropAT, "fedrolex": FedRolexAT,
            "fedrbn": FedRBN,
        }[args.method]
        return cls(task, builder, FLConfig(rounds=args.rounds, **fields),
                   device_sampler=sampler)

    if args.replay:
        # Re-execute the journalled run in a scratch directory (same
        # journal basename, so re-emitted checkpoint events match
        # bit-for-bit) and verify every event against the recorded log.
        import tempfile

        from repro.flsim.replay import ReplayDivergence, replay_run

        scratch = tempfile.mkdtemp(prefix="repro-replay-")
        replay_journal = os.path.join(scratch, os.path.basename(args.journal))
        try:
            report = replay_run(
                os.path.abspath(args.journal),
                lambda: build(journal_path=replay_journal),
                verbose=args.verbose,
            )
        except ReplayDivergence as err:
            print(f"replay FAILED: {err}", file=sys.stderr)
            return 1
        print(report.summary())
        return 0

    exp = build()
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

    p = sub.add_parser("train", help="run a federated experiment")
    p.add_argument("--method", default="fedprophet",
                   choices=["fedprophet", "jfat", "heterofl", "feddrop",
                            "fedrolex", "fedrbn"])
    p.add_argument("--heterogeneity", default="balanced", choices=["balanced", "unbalanced"])
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--clients", type=int, default=20)
    p.add_argument("--clients-per-round", type=int, default=4)
    p.add_argument("--local-iters", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.08)
    p.add_argument("--pgd-steps", type=int, default=2)
    p.add_argument("--image-size", type=int, default=8)
    p.add_argument("--width-mult", type=float, default=0.25)
    p.add_argument("--train-per-class", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fusion-width", type=int, default=None,
                   help="max clients fused into one stacked cohort "
                        "(default auto: derived from the model's stacked "
                        "activation footprint, at most 8; an integer is "
                        "obeyed as given; 1 disables fusion)")
    p.add_argument("--aggregation-mode", default="sync", choices=["sync", "async"],
                   help="sync: round-barrier aggregation (bit-identical "
                        "reference); async: staleness-bounded merge in "
                        "simulated-arrival order (every method except the "
                        "distillation baselines)")
    p.add_argument("--max-staleness", type=int, default=4,
                   help="intra-round merge-event staleness bound for "
                        "--aggregation-mode async")
    p.add_argument("--pipeline-depth", type=int, default=1,
                   help="async mode: rounds allowed in flight at once; >1 "
                        "dispatches the next round's fast clients against "
                        "the latest merged server state while stragglers "
                        "finish (deterministic; 1 = classic round-drain)")
    p.add_argument("--eval-every", type=int, default=0,
                   help="evaluate every K rounds during training (default: 0 "
                        "= final eval only)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="write an append-only JSONL run journal to PATH "
                        "(config fingerprint, rounds, merges, evals, "
                        "checkpoints)")
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
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="atomically checkpoint run state every K rounds "
                        "(0 = off; requires --journal)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="stream per-round / per-merge-event / per-eval "
                        "JSONL metrics rows to PATH live during the run "
                        "(flushed per event — tail it mid-run)")
    p.add_argument("--status-port", type=int, default=None,
                   help="serve a read-only JSON status endpoint on "
                        "127.0.0.1:PORT (0 = ephemeral; GET /status, "
                        "/events, /health) for the duration of the run")
    p.add_argument("--eval-every-merge", type=int, default=0,
                   help="async mode: evaluate the merged server state "
                        "every K merge events (accuracy-vs-server-version "
                        "staleness curves; 0 = off)")
    p.add_argument("--fault-plan", default=None, metavar="SPEC",
                   help="seeded fault injection: inline JSON ('{...}') or a "
                        "path to a JSON file with FaultPlan fields "
                        "(dropout_prob, straggler_prob, flaky_prob, ...)")
    p.add_argument("--threat-plan", default=None, metavar="SPEC",
                   help="seeded adversarial clients: inline JSON ('{...}') or "
                        "a path to a JSON file with ThreatPlan fields (seed, "
                        "byzantine_prob, attack ∈ {label_flip, backdoor, "
                        "sign_flip, gaussian, model_replacement}, ...)")
    p.add_argument("--aggregation-rule", default="fedavg",
                   choices=["fedavg", "median", "trimmed_mean", "krum",
                            "multi_krum", "norm_clip"],
                   help="server aggregation rule; fedavg is the historical "
                        "weighted average, the rest are Byzantine-robust "
                        "(see docs/threat-model.md)")
    p.add_argument("--trim-ratio", type=float, default=0.2,
                   help="fraction trimmed from each tail per coordinate for "
                        "--aggregation-rule trimmed_mean")
    p.add_argument("--krum-byzantine-f", type=int, default=1,
                   help="assumed Byzantine count f for krum/multi_krum "
                        "neighbourhood scoring")
    p.add_argument("--clip-norm", type=float, default=None,
                   help="update-delta L2 clipping radius for "
                        "--aggregation-rule norm_clip (default: adaptive "
                        "median of the round's delta norms)")
    p.add_argument("--client-timeout", type=float, default=None,
                   help="simulated seconds before the server gives up on a "
                        "sampled client (faulty clients exceeding it are "
                        "dropped)")
    p.add_argument("--max-client-retries", type=int, default=2,
                   help="bounded retries for flaky clients (exponential "
                        "backoff in simulated time)")
    p.add_argument("--min-clients-per-round", type=int, default=1,
                   help="abort a round (deterministically) when the fault "
                        "plan leaves fewer survivors")
    p.add_argument("--population-scheme", default="auto",
                   choices=["auto", "partition", "virtual"],
                   help="client shard derivation: partition = legacy global "
                        "pass (bit-identical to historical runs), virtual = "
                        "per-client counter-derived shards with no global "
                        "pass (any population size), auto = partition while "
                        "the population fits the dataset")
    p.add_argument("--client-materialisation", default="eager",
                   choices=["eager", "lazy"],
                   help="eager: build every client at init (legacy); lazy: "
                        "materialise on first touch into a bounded LRU — "
                        "bit-identical results either way")
    p.add_argument("--client-cache-size", type=int, default=None,
                   help="LRU capacity for --client-materialisation lazy "
                        "(default: O(cohort); eviction cannot affect "
                        "results)")
    p.add_argument("--samples-per-client", type=int, default=None,
                   help="virtual-scheme shard size (default: derived from "
                        "the dataset and population size)")
    p.add_argument("--availability-fraction", type=float, default=None,
                   help="fraction of rounds each client is available "
                        "(deterministic per-client duty cycle; default: "
                        "always available)")
    p.add_argument("--availability-period", type=int, default=8,
                   help="length in rounds of the availability duty cycle "
                        "for --availability-fraction")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_train)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
