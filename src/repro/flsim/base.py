"""Shared federated-experiment scaffolding.

Every algorithm (jFAT, the memory-efficient baselines, FedProphet) derives
from :class:`FederatedExperiment`, which owns the pieces the paper keeps
constant across methods: the non-IID client population, per-round client
and device sampling, the simulated wall clock, learning-rate decay, and
periodic evaluation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks import ModelWithLoss
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import SyntheticImageTask
from repro.flsim.eval_executor import EvalExecutor, EvalTarget
from repro.flsim.executor import CohortFn, RoundExecutor, derived_fusion_width
from repro.flsim.aggregation import AggregationError
from repro.flsim.checkpoint import CHECKPOINT_FORMAT, config_fingerprint
from repro.flsim.faults import FaultPlan, RoundFaults
from repro.flsim.journal import RunRecorder
from repro.flsim.population import (
    MATERIALISATIONS,
    POPULATION_SCHEMES,
    ClientPopulation,
    FLClient,
)
from repro.flsim.robust_agg import AGGREGATION_RULES, RobustAggregator, masked_robust_average
from repro.flsim.scheduler import CrossRoundPipeline
from repro.flsim.threats import RoundThreats, ThreatPlan
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.flops import training_flops_per_iteration
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.hardware.memory import BYTES_PER_SCALAR, MemoryModel
from repro.hardware.profile import profile_module
from repro.metrics.evaluation import EvalPlan, EvalResult
from repro.models.atoms import CascadeModel


def config_field(default: Any, meaning: str, group: str = "semantic",
                 choices: Optional[Tuple[str, ...]] = None):
    """Declare a config field once: its default, its one-line meaning, its
    group and, where one exists, its table of choices.

    The group is ``"semantic"`` (hashed by the checkpoint fingerprint, so a
    resume or replay must keep it), ``"engine"`` (how the run executes,
    which cannot change a result) or ``"recorder"`` (where the run is
    recorded).  ``repro train``'s flags and ``docs/configuration.md`` read
    the same declaration.
    """
    return field(default=default,
                 metadata={"group": group, "meaning": meaning, "choices": choices})


@dataclass
class FLConfig:
    """Hyperparameters shared by all federated algorithms (paper §B.4).

    Defaults are the paper's values; experiments shrink ``rounds``,
    ``num_clients``, and ``train_pgd_steps`` to NumPy-friendly scales.
    Each field declares its meaning and group (:func:`config_field`);
    ``docs/configuration.md`` tabulates them, and ``docs/architecture.md``,
    ``docs/async-aggregation.md``, ``docs/fault-tolerance.md`` and
    ``docs/threat-model.md`` explain them in depth.

    The engine and recorder groups cannot change a result: fused cohorts
    reproduce cohorts of one bit for bit at any ``fusion_width``, every
    client is a deterministic function of the population seed however it
    is materialised or cached, and the journal, checkpoints and status
    endpoint only observe.  Every other field is semantic.  Whether a
    round is a barrier is derived — sync mode, or a round-gated
    experiment such as FedProphet, whose per-round ``cascade_eval`` feeds
    APA and the early stop — never configured.
    """

    num_clients: int = config_field(100, "Client population size (non-IID shards); ≥ 1.")
    clients_per_round: int = config_field(
        10, "Clients sampled uniformly each round; ≥ 1, clamped to num_clients with a warning.")
    local_iters: int = config_field(30, "Local SGD iterations per client per round; ≥ 0.")
    batch_size: int = config_field(64, "Local training batch size; ≥ 1.")
    lr: float = config_field(0.005, "Initial learning rate; finite and > 0.")
    momentum: float = config_field(0.9, "SGD momentum, in [0, 1).")
    weight_decay: float = config_field(1e-4, "SGD weight decay; finite and ≥ 0.")
    lr_decay: float = config_field(0.994, "Per-round multiplicative LR decay, in (0, 1].")
    rounds: int = config_field(500, "Communication rounds; ≥ 0.")
    train_pgd_steps: int = config_field(
        10, "PGD steps of the training inner maximisation; ≥ 0.")
    eps0: float = config_field(
        8.0 / 255.0, "ℓ∞ budget on the raw input (8/255); finite and ≥ 0 (0 is legal).")
    eval_pgd_steps: int = config_field(20, "PGD steps for robust evaluation; ≥ 0.")
    eval_every: int = config_field(
        10, "Evaluate every K rounds (0 = final eval only); FedProphet ignores it: each of "
            "its rounds carries the cascade validation that drives APA and the early stop.")
    eval_max_samples: int = config_field(
        256, "Sample cap for periodic evaluation; ≥ 0 (0 is legal and measures nothing).")
    eval_with_autoattack: bool = config_field(False, "Add AutoAttack-lite to periodic evals.")
    seed: int = config_field(0, "Root seed; all RNGs are counter-derived from it.")
    fusion_width: Optional[int] = config_field(
        None, "Max clients with equal fusion keys trained as one stacked cohort (None = "
              "derived from the stacked activation footprint, at most 8; 1 disables fusion).",
        group="engine")
    aggregation_mode: str = config_field(
        "sync", "sync is the round barrier; async merges updates as they land, in simulated-"
                "arrival order, staleness-bounded (every method but FedDF/FedET).",
        choices=("sync", "async"))
    max_staleness: int = config_field(
        4, "Merge-event staleness bound in async mode (0 at depth 1 is exactly sync FedAvg).")
    pipeline_depth: int = config_field(
        1, "Async rounds in flight at once; > 1 dispatches a round's fast clients against the "
           "latest merged state while stragglers finish (async only; FedProphet pins 1).")
    journal_path: Optional[str] = config_field(
        None, "Append-only JSONL run journal, flushed per event: the run's one record, live "
              "and durable.", group="recorder")
    checkpoint_every: int = config_field(
        0, "Atomic full-state checkpoint every K rounds, next to the journal (0 = off; "
           "requires journal_path).", group="recorder")
    status_port: Optional[int] = config_field(
        None, "Serve a read-only JSON status endpoint on 127.0.0.1 at this port "
              "(0 = ephemeral).", group="recorder")
    eval_every_merge: int = config_field(
        0, "Async mode: evaluate the merged server every K merge events, the accuracy-vs-"
           "version staleness curve (0 = off; refused for FedProphet).")
    fault_plan: Optional[FaultPlan] = config_field(
        None, "Seeded FaultPlan injecting deterministic client faults (a dict of its fields; "
              "on the CLI inline JSON or a JSON file path).")
    client_timeout: Optional[float] = config_field(
        None, "Simulated seconds the server waits on a sampled client before dropping it; "
              "finite and > 0 (None = wait for every client).")
    max_client_retries: int = config_field(
        2, "Bounded retries for flaky clients (exponential backoff, simulated time).")
    min_clients_per_round: int = config_field(
        1, "Abort the round deterministically when the surviving cohort is smaller.")
    threat_plan: Optional[ThreatPlan] = config_field(
        None, "Seeded ThreatPlan marking adversarial clients (a dict of its fields; on the "
              "CLI inline JSON or a JSON file path).")
    aggregation_rule: str = config_field(
        "fedavg", "Server aggregation rule: fedavg is the historical weighted average, the "
                  "rest are Byzantine-robust.", choices=AGGREGATION_RULES)
    trim_ratio: float = config_field(
        0.2, "Fraction trimmed from each tail per coordinate for trimmed_mean, in [0, 0.5).")
    krum_byzantine_f: int = config_field(
        1, "Assumed Byzantine count f for krum / multi_krum neighbourhood scoring.")
    clip_norm: Optional[float] = config_field(
        None, "L2 clipping radius for norm_clip update deltas; finite and > 0 (None = "
              "adaptive: the median of the round's delta norms).")
    population_scheme: str = config_field(
        "auto", "Client-shard derivation: partition (one global pass), virtual (per-client "
                "counter-derived shards, any population) or auto (partition while it fits).",
        choices=POPULATION_SCHEMES)
    client_materialisation: str = config_field(
        "eager", "eager builds every client at init; lazy builds each on first touch behind "
                 "an LRU cache.", group="engine", choices=MATERIALISATIONS)
    client_cache_size: Optional[int] = config_field(
        None, "Lazy-mode LRU capacity in clients (None = max(64, 4 × cohort × depth)).",
        group="engine")
    samples_per_client: Optional[int] = config_field(
        None, "Virtual scheme: shard size per client (None = derived from the dataset and "
              "population size; refused when the population resolves to partition).")
    availability_fraction: Optional[float] = config_field(
        None, "Fraction of rounds each client is available, a deterministic per-client duty "
              "cycle (None = always available).")
    availability_period: int = config_field(
        8, "Length in rounds of the availability duty cycle.")

    def __post_init__(self):
        for f in fields(self):
            choices = f.metadata["choices"]
            if choices is not None and getattr(self, f.name) not in choices:
                raise ValueError(
                    f"{f.name} must be one of {choices}, got {getattr(self, f.name)!r}"
                )
        sizes = {"num_clients": 1, "clients_per_round": 1, "local_iters": 0, "rounds": 0}
        for name, least in sizes.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("train_pgd_steps", "eval_pgd_steps", "eval_max_samples"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (math.isfinite(self.eps0) and self.eps0 >= 0):
            raise ValueError(f"eps0 must be finite and >= 0, got {self.eps0}")
        if self.clients_per_round > self.num_clients:
            warnings.warn(
                f"clients_per_round={self.clients_per_round} exceeds "
                f"num_clients={self.num_clients}; clamping to "
                f"{self.num_clients}",
                RuntimeWarning,
                stacklevel=2,
            )
            self.clients_per_round = self.num_clients
        if not (0 < self.lr_decay <= 1):
            raise ValueError("lr_decay must be in (0, 1]")
        if self.fusion_width is not None and self.fusion_width < 1:
            raise ValueError("fusion_width must be >= 1 (or None: derived)")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0 (0 = final eval only)")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.pipeline_depth > 1 and self.aggregation_mode != "async":
            raise ValueError(
                "pipeline_depth > 1 requires aggregation_mode='async' "
                "(cross-round dispatch merges updates out of round order)"
            )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 = off)")
        if self.checkpoint_every and not self.journal_path:
            raise ValueError(
                "checkpoint_every requires journal_path (checkpoints live "
                "next to the journal and resume() finds them through it)"
            )
        if self.status_port is not None and not (0 <= self.status_port <= 65535):
            raise ValueError("status_port must be in [0, 65535] (0 = ephemeral)")
        if self.eval_every_merge < 0:
            raise ValueError("eval_every_merge must be >= 0 (0 = off)")
        if self.eval_every_merge and self.aggregation_mode != "async":
            raise ValueError(
                "eval_every_merge requires aggregation_mode='async' (sync "
                "rounds have exactly one merge point; use eval_every)"
            )
        if isinstance(self.fault_plan, dict):
            self.fault_plan = FaultPlan(**self.fault_plan)
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan (or a dict of its fields), "
                f"got {type(self.fault_plan).__name__}"
            )
        if self.client_timeout is not None and not (
            math.isfinite(self.client_timeout) and self.client_timeout > 0
        ):
            raise ValueError(
                f"client_timeout must be finite and > 0 (or None), got {self.client_timeout}"
            )
        if self.max_client_retries < 0:
            raise ValueError("max_client_retries must be >= 0")
        if self.min_clients_per_round < 1:
            raise ValueError("min_clients_per_round must be >= 1")
        if isinstance(self.threat_plan, dict):
            self.threat_plan = ThreatPlan(**self.threat_plan)
        if self.threat_plan is not None and not isinstance(
            self.threat_plan, ThreatPlan
        ):
            raise ValueError(
                f"threat_plan must be a ThreatPlan (or a dict of its fields), "
                f"got {type(self.threat_plan).__name__}"
            )
        if not (0.0 <= self.trim_ratio < 0.5):
            raise ValueError("trim_ratio must be in [0, 0.5)")
        if self.krum_byzantine_f < 0:
            raise ValueError("krum_byzantine_f must be >= 0")
        if self.clip_norm is not None and not (
            math.isfinite(self.clip_norm) and self.clip_norm > 0
        ):
            raise ValueError(
                f"clip_norm must be finite and > 0 (or None for adaptive), got {self.clip_norm}"
            )
        if self.client_cache_size is not None and self.client_cache_size < 1:
            raise ValueError("client_cache_size must be >= 1 (or None)")
        if self.samples_per_client is not None and self.samples_per_client < 1:
            raise ValueError("samples_per_client must be >= 1 (or None)")
        if self.availability_fraction is not None and not (
            0.0 < self.availability_fraction <= 1.0
        ):
            raise ValueError("availability_fraction must be in (0, 1] (or None)")
        if self.availability_period < 1:
            raise ValueError("availability_period must be >= 1")


@dataclass
class RoundRecord:
    """History entry: clock state and (optionally) accuracy at a round.

    ``aborted`` marks a round the fault plan cancelled (surviving cohort
    below ``min_clients_per_round``): no training happened, the model is
    unchanged, and the clock advanced only by the server's timeout wait.
    """

    round: int
    sim_time_s: float
    compute_s: float
    access_s: float
    eval: Optional[EvalResult] = None
    aborted: bool = False


@dataclass(frozen=True)
class AsyncMergeEvent:
    """One applied merge event of an asynchronous run (observability).

    ``staleness`` is the total server lag the event merged at (merge
    events applied since the round's base version — equal to ``event``,
    the intra-round index, at ``pipeline_depth=1``); ``base_version`` is
    the server version the event's clients trained from, and
    ``sim_time_s`` the simulated time the merge applied.  Every field is
    derived from the simulated latency model, so logs compare equal
    run to run.
    """

    round: int
    event: int
    staleness: int
    client_ids: Tuple[int, ...]
    alpha: float
    base_version: int = 0
    sim_time_s: float = 0.0


@dataclass(frozen=True)
class MergeEvalRecord:
    """Accuracy of the merged server state at one server version.

    ``eval_every_merge`` samples the accuracy-vs-version staleness curve:
    ``version`` is the server's merge-event count *after* the triggering
    merge applied, ``round``/``event``/``staleness``/``sim_time_s``
    mirror that merge's :class:`AsyncMergeEvent`.  Like every async
    artefact, records compare equal run to run.
    """

    version: int
    round: int
    event: int
    staleness: int
    sim_time_s: float
    eval: EvalResult


@dataclass
class AsyncRoundContext:
    """The plan of one dispatched round: everything later hooks may read.

    Built *before* training by :meth:`FederatedExperiment.async_round_context`
    from pure functions of the cohort and device states (costs, weights,
    experiment extras like FedRBN's AT-affordability flags or FedProphet's
    DMA spans), so the work unit and the merge replay never depend on
    training output beyond the updates themselves.  ``weights`` default to
    each client's ``num_samples`` and ``round_weight`` to their sum;
    ``threats`` is the round's Byzantine verdict, set by the run loop.
    """

    round_idx: int
    clients: List[FLClient]
    states: List[Optional[DeviceState]]
    costs: List[LocalTrainingCost]
    weights: Optional[List[float]] = None
    round_weight: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    threats: Optional[RoundThreats] = None

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = [float(client.num_samples) for client in self.clients]
        if self.round_weight is None:
            self.round_weight = float(sum(self.weights))


class FederatedExperiment:
    """Base class running the communication-round loop on a simulated clock.

    An algorithm is stated **once**, as the ``async_*`` hook surface: the
    round plan (:meth:`async_round_context`: costs, weights, extras, built
    once per cohort before anybody trains), the work unit and the merge
    rule, both reading that plan.  :meth:`run`
    owns the one loop that drives it (:meth:`_run_rounds`): rounds on a
    :class:`~repro.flsim.scheduler.CrossRoundPipeline`, whose merge events
    replay the hooks in simulated-arrival order.  Rounds overlap up to
    ``pipeline_depth`` in async mode; a **barrier** round — sync mode, or
    a round-gated method in any mode — is dispatched and drained at once,
    in synchronous mode a single staleness-0 event over the whole cohort
    whose mixing rate is exactly 1, so ``max_staleness=0, pipeline_depth=1
    ≡ sync`` is an identity, not a coincidence.  Every method, FedDF/FedET
    distillation included, is such a statement.  A round-gated method
    (one that overrides :meth:`after_round`, i.e. FedProphet) advances its
    own state through :meth:`round_eval` / :meth:`after_round` /
    :meth:`run_finished` / :meth:`finish_run`, which the loop calls.
    """

    name = "base"
    #: Whether this algorithm's merge rule has an asynchronous,
    #: staleness-bounded formulation (``aggregation_mode="async"``).
    #: FedDF/FedET opt out: their server step distils the whole round's
    #: prototypes at once, so there is no per-update merge to stream.
    supports_async_aggregation = True

    def __init__(
        self,
        task: SyntheticImageTask,
        model_builder: Callable[[np.random.Generator], CascadeModel],
        config: FLConfig,
        device_sampler: Optional[DeviceSampler] = None,
        latency_model: Optional[LatencyModel] = None,
    ):
        self.task = task
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.model_builder = model_builder
        self.global_model = model_builder(np.random.default_rng(config.seed + 7))
        self.device_sampler = device_sampler
        self.latency_model = latency_model if latency_model is not None else LatencyModel()
        self.mem = MemoryModel(batch_size=config.batch_size)

        # seed + 13 is the historical partition stream: the "partition"
        # scheme reproduces the pre-engine eager shards bit for bit.
        self.clients = ClientPopulation(
            task.train,
            num_clients=config.num_clients,
            seed=config.seed + 13,
            scheme=config.population_scheme,
            materialisation=config.client_materialisation,
            cache_size=config.client_cache_size,
            samples_per_client=config.samples_per_client,
            availability_fraction=config.availability_fraction,
            availability_period=config.availability_period,
            cohort_size=config.clients_per_round,
            pipeline_depth=config.pipeline_depth,
        )
        self.total_samples = self.clients.total_samples

        self.clock_s = 0.0
        self.total_compute_s = 0.0
        self.total_access_s = 0.0
        self.history: List[RoundRecord] = []

        cls, base = type(self), FederatedExperiment
        missing = [
            hook for hook in ("async_client_fn", "async_round_context")
            if getattr(cls, hook) is getattr(base, hook)
        ]
        if missing:
            raise TypeError(
                f"{cls.__name__} states no algorithm: implement "
                f"{' and '.join(missing)} (run() derives the synchronous "
                f"round from the async_* hooks)"
            )
        if config.aggregation_mode == "async" and not self.supports_async_aggregation:
            raise ValueError(
                f"{type(self).__name__} does not support "
                f"aggregation_mode='async'; its aggregation rule has no "
                f"staleness-bounded formulation"
            )
        if self.round_gated and (config.pipeline_depth > 1 or config.eval_every_merge):
            raise ValueError(
                f"{cls.__name__} does not support pipeline_depth > 1 or "
                f"eval_every_merge: its after_round reads each round's eval "
                f"(e.g. cascade_eval feeding APA), so nothing may overlap the "
                f"next round and its async mode merges within a round"
            )
        width = config.fusion_width
        if width is None:
            width = derived_fusion_width(self.client_activation_bytes)
        self.executor = RoundExecutor(fusion_width=width, client_flops=self.client_flops)
        self.eval_executor = EvalExecutor(self.executor)
        self._async_workspaces: dict = {}
        #: Applied merge events of every asynchronous round, in merge order.
        self.async_log: List[AsyncMergeEvent] = []
        #: Merge-event-granularity eval samples (``eval_every_merge``).
        self.merge_evals: List[MergeEvalRecord] = []
        self._last_pipeline_stats: Optional[Dict[str, int]] = None
        # Fault-tolerance state: the current round's fault verdict and the
        # resume cursor installed by resume().
        self._round_faults: Optional[RoundFaults] = None
        self._resume_round: int = 0
        self._resume_async: Optional[Dict[str, Any]] = None
        # Threat state: the current round's Byzantine verdict and the
        # configured robust-aggregation rule (+ its per-merge stats sink,
        # drained into the journal by the run loop).
        self._round_threats: Optional[RoundThreats] = None
        self._robust = RobustAggregator.from_config(config)
        self._agg_stats: List[Dict[str, Any]] = []
        #: The run's journal, status tee and checkpoints (the status
        #: endpoint answers from here on, in state "init").
        self.recorder = RunRecorder(config.journal_path, config.status_port,
                                    self.describe_parallelism)

    # -- executor workspace -------------------------------------------------
    def _async_workspace(self, builder: Optional[Callable] = None) -> CascadeModel:
        """The private model an async work unit trains on, one per builder.

        Disjoint from the live global model: with cross-round pipelining
        the global model must stay free for round-boundary evaluation of
        the merged server state.  Work units restore their full base
        snapshot before training, so the workspace carries no state
        between units.  ``builder`` (default: ``model_builder``) picks the
        architecture: FedDF keeps one workspace per family member.
        """
        builder = builder or self.model_builder
        model = self._async_workspaces.get(builder)
        if model is None:
            model = self._async_workspaces[builder] = builder(
                np.random.default_rng(self.config.seed + 7)
            )
        return model

    # -- per-round helpers ---------------------------------------------------
    def lr_at(self, round_idx: int) -> float:
        return self.config.lr * (self.config.lr_decay**round_idx)

    def _client_rng(self, round_idx: int, cid: int) -> np.random.Generator:
        """The counter-derived RNG for one client's local training.

        A pure function of ``(seed, round, cid)`` — never of scheduling
        or cohort composition — which is the root of the engine-wide
        bit-identity contract.  Every experiment's work units (sync and
        async alike) must draw from this one formula; do not inline it.
        """
        cfg = self.config
        return np.random.default_rng(cfg.seed * 1_000_003 + round_idx * 1009 + cid)

    def sample_round(
        self, round_idx: int
    ) -> Tuple[List[FLClient], List[Optional[DeviceState]]]:
        """Uniformly sample C participating clients and their device states.

        Sampling is O(cohort) at any population size (see
        :meth:`ClientPopulation.sample_ids`; small populations keep the
        historical ``rng.choice`` draw bit for bit), restricted to the
        round's available clients when ``availability_fraction`` is set.
        Selected clients materialise through the population's LRU.

        With an active ``fault_plan``, the sampled cohort is then filtered
        to the fault survivors (the fault RNG is a separate seeded stream,
        so the experiment's own sampling draws are untouched — a disabled
        plan reproduces the fault-free run bit for bit).  An aborted round
        (survivors below ``min_clients_per_round``) returns the *sampled*
        cohort unfiltered; the run loop reads the verdict off
        ``_round_faults`` before training.
        """
        cfg = self.config
        ids = self.clients.sample_ids(self.rng, cfg.clients_per_round, round_idx)
        selected = [self.clients.client(int(i)) for i in ids]
        if self.device_sampler is None:
            states: List[Optional[DeviceState]] = [None] * len(selected)
        elif self.clients.scheme == "virtual":
            # Virtual clients own a persistent counter-derived device
            # identity; the partition scheme keeps the sequential
            # per-round draws for bit-compat with historical seeds.
            states = [
                self.device_sampler.state_for(self.clients.seed, round_idx, c.cid)
                for c in selected
            ]
        else:
            states = list(self.device_sampler.sample_many(len(selected), self.rng))
        self._round_faults = None
        plan = cfg.fault_plan
        if plan is not None and plan.active:
            # The timeout judges the *sampled* cohort's plan: the server
            # cannot know who will drop.
            estimates = (
                [c.total_s for c in self.async_round_context(round_idx, selected, states).costs]
                if cfg.client_timeout is not None
                else None
            )
            faults = plan.plan_round(
                round_idx,
                [c.cid for c in selected],
                estimates,
                client_timeout=cfg.client_timeout,
                max_retries=cfg.max_client_retries,
                min_clients=cfg.min_clients_per_round,
            )
            self._round_faults = faults
            self.recorder.record(
                "faults",
                round=round_idx,
                sampled=[c.cid for c in selected],
                dropped=faults.dropped_cids,
                retries={selected[i].cid: n for i, n in faults.retries.items()},
                aborted=faults.aborted,
            )
            if not faults.aborted:
                selected = [selected[i] for i in faults.survivors]
                states = [states[i] for i in faults.survivors]
        self._round_threats = None
        tplan = cfg.threat_plan
        aborted = self._round_faults is not None and self._round_faults.aborted
        if tplan is not None and tplan.active and not aborted:
            threats = tplan.plan_round(round_idx, [c.cid for c in selected])
            if threats.byzantine:
                self._round_threats = threats
                self.recorder.record(
                    "threats",
                    round=round_idx,
                    attack=threats.attack,
                    byzantine=list(threats.byzantine_cids),
                )
                if tplan.is_data_attack:
                    # Swap the Byzantine clients' shards for poisoned
                    # copies: every baseline then trains on them with no
                    # attack-specific code (num_samples is unchanged, so
                    # weights and costs stay honest-looking).
                    byz = set(threats.byzantine)
                    selected = [
                        FLClient(
                            cid=c.cid,
                            dataset=tplan.poison_dataset(
                                c.dataset, round_idx, c.cid,
                                self.task.num_classes,
                            ),
                        )
                        if i in byz
                        else c
                        for i, c in enumerate(selected)
                    ]
        self.recorder.record(
            "sample",
            round=round_idx,
            cids=[c.cid for c in selected],
            population=self.clients.num_clients,
            cache=self.clients.stats(),
        )
        return selected, states

    def _finish_aborted_round(self, round_idx: int, wait_s: Optional[float]) -> None:
        """Record an aborted round: no training, model unchanged.

        A round-barrier server sits out ``wait_s`` (``client_timeout``,
        when the round lost clients) before abandoning the round — pure
        data-access/waiting time; the cross-round pipeline never waits
        (``None``).
        """
        if wait_s is not None:
            self.clock_s += wait_s
            self.total_access_s += wait_s
        record = RoundRecord(
            round=round_idx,
            sim_time_s=self.clock_s,
            compute_s=self.total_compute_s,
            access_s=self.total_access_s,
            aborted=True,
        )
        self.history.append(record)
        self.recorder.record(
            "round", round=round_idx, sim_time_s=record.sim_time_s, aborted=True
        )
        self.after_round(record)

    # -- update-space threats + robust aggregation -----------------------------
    def _threat_wrap(
        self, ctx: AsyncRoundContext, fn: Callable, base: Dict[str, np.ndarray]
    ) -> Callable:
        """Wrap a train work unit so the round's Byzantine clients lie about
        their update.

        ``ctx.threats`` is the round's verdict; ``base`` is the round's
        training base (what the deltas are measured against); ``fn(item)``
        must take ``(client, device_state)`` items.  Honest rounds return
        ``fn`` unchanged, so an inactive plan costs nothing.  A
        :class:`~repro.flsim.executor.CohortFn` stays a ``CohortFn`` (same
        ``group_key``) — the poisoning applies to each client's extracted
        update after training, so cohort composition is unaffected.
        """
        plan, threats, round_idx = self.config.threat_plan, ctx.threats, ctx.round_idx
        if (
            plan is None
            or threats is None
            or not plan.is_update_attack
            or not threats.byzantine_cids
        ):
            return fn

        def poison(item, update):
            cid = item[0].cid
            if cid not in threats.byzantine_cids:
                return update
            return plan.poison_update(update, base, round_idx, cid)

        if isinstance(fn, CohortFn):

            def poisoned_cohort_fn(items):
                return [poison(item, update) for item, update in zip(items, fn.cohort_fn(items))]

            return CohortFn(poisoned_cohort_fn, group_key=fn.group_key)

        def poisoned_fn(item):
            return poison(item, fn(item))

        return poisoned_fn

    def robust_aggregate(
        self,
        states: Sequence[Dict[str, np.ndarray]],
        weights: Sequence[float],
        keys: Optional[Sequence[str]] = None,
        base: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Merge client states under the configured ``aggregation_rule``.

        The single funnel every baseline's state merge goes through (sync
        averages, async merge events, FedProphet per-module merges); rule
        stats are queued for the run loop's per-round ``agg`` journal
        event.  ``fedavg`` delegates to ``weighted_average_states``
        unchanged.
        """
        merged, stats = self._robust.aggregate(states, weights, keys=keys, base=base)
        if stats is not None:
            self._agg_stats.append(stats)
        return merged

    def robust_masked_average(
        self,
        global_state: Dict[str, np.ndarray],
        updates: Sequence[Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], float]],
    ) -> Dict[str, np.ndarray]:
        """Masked-partial-average funnel (the partial-training family)."""
        merged, stats = masked_robust_average(global_state, updates, self._robust)
        if stats is not None:
            self._agg_stats.append(stats)
        return merged

    def _drain_agg_stats(self) -> List[Dict[str, Any]]:
        stats, self._agg_stats = self._agg_stats, []
        return stats

    # -- main loop -------------------------------------------------------------
    @cached_property
    def client_activation_bytes(self) -> int:
        """``4·B·A`` of one client training the global model (§6.1, Eq. 7).

        What a fusion cohort stacks K of.  Read off the shape walker, so it
        costs no forward; sub-model baselines stack smaller pieces, for
        which the global model is the conservative stand-in.
        """
        model = self.global_model
        activations = profile_module(model, model.in_shape).activations
        return BYTES_PER_SCALAR * self.config.batch_size * activations

    @cached_property
    def client_flops(self) -> float:
        """Modelled training FLOPs of one client: ``local_iters`` PGD-AT
        iterations of the global model (the round workers' fork floor)."""
        model, cfg = self.global_model, self.config
        per_iter = training_flops_per_iteration(
            model, model.in_shape, batch_size=cfg.batch_size, pgd_steps=cfg.train_pgd_steps
        )
        return per_iter * cfg.local_iters

    def _model_costs(
        self, model: CascadeModel, pgd_steps: Optional[int] = None
    ) -> Tuple[float, float, Callable[[Optional[DeviceState]], LocalTrainingCost]]:
        """``(flops_per_iter, mem_req_bytes, cost_fn)`` for clients training ``model``.

        ``cost_fn(device_state)`` is the simulated latency of
        ``local_iters`` PGD-``pgd_steps`` iterations (default: the
        config's ``train_pgd_steps``) of ``model`` on that device — pure
        arithmetic over the device state; without a device sampler
        (``None`` state) a client costs nothing.
        """
        cfg = self.config
        steps = cfg.train_pgd_steps if pgd_steps is None else pgd_steps
        mem_req = self.mem.bytes_for(model, model.in_shape)
        flops = training_flops_per_iteration(
            model, model.in_shape, batch_size=cfg.batch_size, pgd_steps=steps
        )

        def cost(state: Optional[DeviceState]) -> LocalTrainingCost:
            if state is None:
                return LocalTrainingCost(0.0, 0.0)
            return self.latency_model.local_training_cost(
                state,
                training_flops=flops,
                mem_req_bytes=mem_req,
                iterations=cfg.local_iters,
                pgd_steps=steps,
            )

        return flops, mem_req, cost

    # -- aggregation hooks: the one statement of an algorithm -------------------
    # Every experiment implements this surface; :meth:`_run_rounds` drives
    # it event by event through the cross-round pipeline, a barrier round
    # being one drained at once.  Every hook must be a pure
    # function of its inputs (plus counter-derived RNGs) so the merge
    # replay stays bit-identical run to run.

    def async_round_context(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> AsyncRoundContext:
        """The round's plan, built once per cohort before anybody trains.

        Pure arithmetic over the cohort and its device states: each
        client's simulated latency (the pipeline fixes arrival order,
        merge schedule and dispatch times from it; a barrier round clocks
        itself with it; ``client_timeout`` drops on its ``total_s``, judged
        on the *sampled* cohort), aggregation weights (default: local data
        size) and whatever ``extra`` the work unit and merge rule read.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements no async_round_context"
        )

    def async_client_fn(
        self, ctx: AsyncRoundContext, base_state: Dict[str, np.ndarray]
    ) -> Callable:
        """The work unit for one round's clients (sync and async).

        ``ctx`` is the round's plan; ``base_state`` is a private copy of
        the server state at the round's base version.  The returned
        ``fn(item)`` must restore it into ``self._async_workspace()``
        (never the live global model — in-flight rounds share that
        workspace), train, and return the client's update.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements no async_client_fn"
        )

    def async_server_state(self) -> Dict[str, np.ndarray]:
        """The initial async server state: the live model's arrays, uncopied.

        Nothing writes into them before :meth:`async_finalize` copies the
        merged state in — clients train on the ``_async_workspace`` model
        and merges only rebind entries.  FedProphet (trains on the live
        model) and FedDF (distils into it mid-merge) override with a copy.
        """
        model = self.global_model
        return {**{n: p.data for n, p in model.named_parameters()}, **dict(model.named_buffers())}

    def async_merge_event(
        self,
        server: Dict[str, np.ndarray],
        ctx: AsyncRoundContext,
        members: List[int],
        updates: List[Any],
        staleness: int,
    ) -> float:
        """Merge one event's updates into ``server`` in place.

        ``updates`` is one-shot, in member order: fold it, or ``list()``
        it.  Default: full-model FedAsync (the event members' updates merged
        under the configured ``aggregation_rule`` — plain weighted
        average for ``fedavg`` — then mixed in at ``(event weight /
        round weight) / (1 + staleness)``), which is exact FedAvg for a
        single staleness-0 event.  ``norm_clip`` measures deltas against
        the server state *at merge time*, so a stale update's
        displacement is bounded where it actually lands.  Experiments
        with structured updates override (FedRBN's dual-BN statistics,
        the partial-training masked average).  Returns the applied
        mixing rate for the merge log.
        """
        from repro.core.aggregator import blend_into  # local: core imports flsim

        weights = [ctx.weights[i] for i in members]
        if ctx.round_weight <= 0:
            raise AggregationError("round weight must be positive")
        merged = self.robust_aggregate(updates, weights, base=server)
        alpha = (float(sum(weights)) / ctx.round_weight) / (1.0 + staleness)
        return blend_into(server, merged, alpha)

    def async_finalize(self, server: Dict[str, np.ndarray]) -> None:
        """Install the fully merged server state into the global model."""
        self.global_model.load_state_dict(server)

    def _merge_eval(self, server: Dict[str, np.ndarray], event: AsyncMergeEvent,
                    version: int) -> None:
        """Evaluate the merged server state at merge-event granularity.

        Runs between merges, loading ``server`` into the global model —
        safe mid-run because async work units train on the disjoint
        ``_async_workspace`` models.  Eval RNG streams are plan-derived
        (never ``self.rng``), so sampling the curve cannot perturb
        training results.
        """
        self.global_model.load_state_dict(server)
        record = MergeEvalRecord(version, event.round, event.event, event.staleness,
                                 event.sim_time_s, self.evaluate())
        self.merge_evals.append(record)
        payload = {**vars(record), **record.eval.as_dict()}
        del payload["eval"]
        self.recorder.record("merge_eval", **payload)

    def _run_rounds(self, rounds: int, verbose: bool = False) -> int:
        """The run loop: every round is a :class:`CrossRoundPipeline` round.

        Without a barrier one pipeline keeps up to ``pipeline_depth``
        rounds in flight, replays their merge events in simulated-arrival
        order into one server state, copies it as each round's base at
        dispatch, and records a round when its last event merges.  A
        **barrier** round — sync mode, or a round-gated experiment in any
        mode — is a depth-1 pipeline of its own, started at the run's
        clock and drained at once over a fresh :meth:`async_server_state`,
        which :meth:`async_finalize` installs before :meth:`round_eval`.
        It schedules its events on the *pre-fault* costs (a within-round
        merge logs ``base_version`` 0), advances the clock by the
        fault-scaled bottleneck and at least ``client_timeout`` when it
        lost clients (the excess is access time), turns an
        :class:`AggregationError` into an ``agg_abort`` and an aborted
        round over the round-start state, journals one ``agg`` event (no
        ``dispatch``/``merge``) and checkpoints ``global_state``.  Returns
        the number of rounds run.
        """
        cfg = self.config
        barrier = cfg.aggregation_mode == "sync" or self.round_gated
        resume, self._resume_async = self._resume_async, None
        t, self._resume_round = self._resume_round, 0
        if resume is not None:
            server = {k: v.copy() for k, v in resume["server"].items()}
            history_start = resume["history_start"]
            bottlenecks = dict(resume["bottlenecks"])
            base_compute = resume["base_compute"]
            base_access = resume["base_access"]
        else:
            server = None if barrier else self.async_server_state()
            history_start = len(self.history)
            # Per-round bottleneck costs, recorded at dispatch (pure
            # arithmetic) so completion order cannot scramble the
            # cumulative accounting.
            bottlenecks = {}
            base_compute, base_access = self.total_compute_s, self.total_access_s

        def cumulative_cost(last_round: int) -> Tuple[float, float]:
            """Cumulative compute/access through ``last_round``, in *round*
            order: a fast round r+1 may drain before straggler round r."""
            compute, access = base_compute, base_access
            for r in range(last_round + 1):
                cost = bottlenecks.get(r)
                if cost is not None:
                    compute += cost.compute_s
                    access += cost.access_s
            return compute, access

        def merge_event(ticket, members, updates, staleness):
            ctx: AsyncRoundContext = ticket.meta
            alpha = self.async_merge_event(server, ctx, members, updates, staleness)
            if cfg.aggregation_mode == "sync":
                return  # the whole cohort as one FedAvg event: nothing to log
            event = AsyncMergeEvent(
                round=ticket.round_idx,
                event=ticket.next_event,
                staleness=staleness,
                client_ids=tuple(ctx.clients[i].cid for i in members),
                alpha=alpha,
                base_version=ticket.base_version,
                sim_time_s=ticket.event_times[ticket.next_event],
            )
            self.async_log.append(event)
            if barrier:
                return  # the round's rule stats go out as its one "agg" event
            payload = {**asdict(event), "client_ids": list(event.client_ids)}
            agg_stats = self._drain_agg_stats()
            if agg_stats:
                payload["agg"] = agg_stats
            self.recorder.record("merge", **payload)
            if cfg.eval_every_merge:
                version = len(self.async_log)  # merges replay in order: the log counts them
                if version % cfg.eval_every_merge == 0:
                    self._merge_eval(server, event, version)
            self.recorder.observe_pipeline(pipeline.stats)

        def round_complete(ticket):
            if barrier:
                return  # the loop finishes a barrier round once its drain returns
            t, drain = ticket.round_idx, ticket.drain_time
            self.clock_s = max(self.clock_s, drain)
            compute, access = cumulative_cost(t)
            self.total_compute_s = max(self.total_compute_s, compute)
            self.total_access_s = max(self.total_access_s, access)
            self._complete_round(RoundRecord(t, drain, compute, access), verbose, server)
            self.recorder.observe_pipeline(pipeline.stats)  # `pipeline` is bound: it called us

        def new_pipeline() -> CrossRoundPipeline:
            return CrossRoundPipeline(
                self.executor,
                max_staleness=cfg.max_staleness if cfg.aggregation_mode == "async" else 0,
                depth=cfg.pipeline_depth,
                merge_event=merge_event,
                round_complete=round_complete,
                start_time=self.clock_s,
            )

        def fn_factory(ticket):
            # After the pre-dispatch merge replay the server sits at this
            # round's base version: copy it as the training base Byzantine
            # clients (the round's verdict, ``ticket.meta.threats``) lie against.
            ctx: AsyncRoundContext = ticket.meta
            base = {k: v.copy() for k, v in server.items()}
            return self._threat_wrap(ctx, self.async_client_fn(ctx, base), base)

        pipeline = new_pipeline()
        if resume is not None:
            pipeline.restore_state(resume["pipeline"], self._restore_async_meta)

        def play(t: int) -> None:
            """Sample round ``t`` and dispatch it — a barrier round also drains."""
            nonlocal server, pipeline
            clients, states = self.sample_round(t)
            faults, self._round_faults = self._round_faults, None
            threats, self._round_threats = self._round_threats, None
            # What a barrier waits for the clients it lost; the pipeline never waits.
            floor = faults.timeout_floor_s if barrier and faults is not None else None
            if faults is not None and faults.aborted:
                self._finish_aborted_round(t, floor)
                return
            # The survivors' plan (DMA's p_min depends on the cohort); its
            # merge rule reads the fault-scaled costs.
            ctx = self.async_round_context(t, clients, states)
            ctx.threats = threats
            costs = ctx.costs
            if faults is not None:
                ctx.costs = faults.scale_costs(costs)
            slowest = max(ctx.costs, key=lambda c: c.total_s, default=None)
            items = list(zip(clients, states))
            if barrier:
                server = self.async_server_state()
                # Merges interleave with the clients that still read the
                # training base.  A shallow copy keeps it immutable: merges
                # rebind the server's entries and never write into them.
                base = dict(server)
                fn = self._threat_wrap(ctx, self.async_client_fn(ctx, base), base)
                pipeline = new_pipeline()
                try:
                    pipeline.dispatch(
                        t, items, [c.total_s for c in costs], lambda ticket: fn, meta=ctx
                    )
                    pipeline.drain_all()
                    if not clients:  # still reaches the merge rule's typed refusal
                        self.async_merge_event(server, ctx, [], iter(()), 0)
                except BaseException as err:
                    self.async_finalize(base)  # the model as the round found it
                    if not isinstance(err, AggregationError):
                        raise
                    # Nothing to aggregate (every update rejected or
                    # dropped): a typed abort, not a crash.
                    self.recorder.record("agg_abort", round=t, error=str(err))
                    self._drain_agg_stats()
                    self._finish_aborted_round(t, floor)
                else:
                    self.async_finalize(server)
                    server = None  # installed: round_eval must not see a second copy live
                    compute = slowest.compute_s if slowest is not None else 0.0
                    access = slowest.access_s if slowest is not None else 0.0
                    if floor is not None and floor > compute + access:
                        access += floor - (compute + access)
                    self.clock_s += compute + access
                    self.total_compute_s += compute
                    self.total_access_s += access
                    agg_stats = self._drain_agg_stats()
                    if agg_stats:
                        self.recorder.record("agg", round=t, events=agg_stats)
                    record = RoundRecord(
                        t, self.clock_s, self.total_compute_s, self.total_access_s
                    )
                    self._complete_round(record, verbose)
            else:
                bottlenecks[t] = slowest
                ticket = pipeline.dispatch(
                    t, items, [c.total_s for c in ctx.costs], fn_factory, meta=ctx
                )
                self.recorder.record(
                    "dispatch",
                    round=t,
                    base_version=ticket.base_version,
                    dispatch_time=ticket.dispatch_time,
                    cids=[c.cid for c in clients],
                )

        while t < rounds and not self.run_finished():
            play(t)
            t += 1
            if cfg.checkpoint_every and t % cfg.checkpoint_every == 0:
                # Every process exports (it lands in-flight groups); the writer builds the rest.
                in_flight = None if barrier else pipeline.export_state(self._export_async_meta)
                self.recorder.checkpoint(t, lambda: self._checkpoint_payload(
                    t,
                    async_state=None if barrier else {
                        "server": {k: v.copy() for k, v in server.items()},
                        "history_start": history_start,
                        "base_compute": base_compute,
                        "base_access": base_access,
                        "bottlenecks": dict(bottlenecks),
                        "pipeline": in_flight,
                    },
                ))
                del in_flight  # it holds landed updates: none may outlive the write

        if not barrier:
            pipeline.drain_all()
            self.async_finalize(server)
        self._last_pipeline_stats = pipeline.stats()
        self.finish_run()
        tail = sorted(self.history[history_start:], key=lambda r: r.round)
        self.history[history_start:] = tail
        return t

    # -- evaluation engine -----------------------------------------------------
    def run_eval(
        self, plan: EvalPlan, dataset: Optional[ArrayDataset] = None
    ) -> EvalResult:
        """Submit an :class:`EvalPlan` over the global model (default dataset:
        the task's test split) to the sharded evaluation engine."""
        return self.eval_executor.run(
            plan,
            dataset if dataset is not None else self.task.test,
            EvalTarget(ModelWithLoss(self.global_model)),
        )

    def evaluate(self, max_samples: Optional[int] = None) -> EvalResult:
        """The periodic clean/PGD(/AutoAttack) evaluation of the global model
        (default sample cap: ``eval_max_samples``)."""
        cfg = self.config
        return self.run_eval(EvalPlan.standard(
            eps=cfg.eps0,
            pgd_steps=cfg.eval_pgd_steps,
            with_autoattack=cfg.eval_with_autoattack,
            max_samples=max_samples if max_samples is not None else cfg.eval_max_samples,
            seed=cfg.seed + 99,
        ))

    def describe_parallelism(self) -> str:
        """The resolved execution-engine settings, for verbose reporting."""
        cfg = self.config
        engine = self.executor.describe(
            cfg.rounds * cfg.clients_per_round * self.client_flops,
            None if cfg.fusion_width is not None else self.client_activation_bytes,
        )
        aggregation = f"aggregation: {cfg.aggregation_mode}"
        if cfg.aggregation_mode == "async":
            aggregation += (
                f" (max_staleness={cfg.max_staleness}, pipeline_depth={cfg.pipeline_depth})"
            )
        return f"[{self.name}] " + "; ".join([engine, self.clients.describe(), aggregation])

    def close(self) -> None:
        """Close the journal and the status service."""
        self.recorder.close()

    def __enter__(self) -> "FederatedExperiment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- journalling, checkpointing, resume ------------------------------------
    @property
    def status_address(self) -> Optional[str]:
        """The live status endpoint's base URL (None when off)."""
        return self.recorder.address

    def _fingerprint(self) -> str:
        return config_fingerprint(self.config, self.name)

    def _run_start_payload(self) -> Dict[str, Any]:
        """The ``run_start`` event body (a fresh run's, a resumed one's)."""
        pop = self.clients
        return dict(
            fingerprint=self._fingerprint(),
            experiment=self.name,
            rounds=self.config.rounds,
            mode=self.config.aggregation_mode,
            population=pop.num_clients,
            cohort=self.config.clients_per_round,
            scheme=pop.scheme,
            materialisation=pop.materialisation,
            cache_capacity=pop.cache_capacity,
        )

    def _checkpoint_payload(self, next_round: int, async_state: Optional[dict]) -> Dict[str, Any]:
        """Everything the run loop needs to continue bit-identically.

        ``async_state`` carries the cross-round pipeline's extra
        bookkeeping; after a barrier round the global model holds the whole
        server state, so it is snapshotted directly.
        """
        return {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self._fingerprint(),
            "next_round": next_round,
            "mode": self.config.aggregation_mode,
            "rng_state": self.rng.bit_generator.state,
            "clock_s": self.clock_s,
            "total_compute_s": self.total_compute_s,
            "total_access_s": self.total_access_s,
            "history": list(self.history),
            "async_log": list(self.async_log),
            "merge_evals": list(self.merge_evals),
            "global_state": (
                {k: v.copy() for k, v in self.global_model.state_dict().items()}
                if async_state is None
                else None
            ),
            "async": async_state,
            "experiment": self.checkpoint_state(),
        }

    def _restore_from_checkpoint(self, payload: Dict[str, Any]) -> None:
        self.rng.bit_generator.state = payload["rng_state"]
        self.clock_s = payload["clock_s"]
        self.total_compute_s = payload["total_compute_s"]
        self.total_access_s = payload["total_access_s"]
        self.history[:] = payload["history"]
        self.async_log[:] = payload["async_log"]
        # Additive field: checkpoints written before merge-eval existed
        # restore to an empty curve.
        self.merge_evals[:] = payload.get("merge_evals", [])
        if payload["async"] is None:
            self.global_model.load_state_dict(payload["global_state"])
        else:
            self._resume_async = payload["async"]
        self._resume_round = payload["next_round"]
        # Additive field (absent before PR 21, None for most methods).
        if payload.get("experiment") is not None:
            self.load_checkpoint_state(payload["experiment"])

    def checkpoint_state(self) -> Optional[Dict[str, Any]]:
        """Picklable run state kept outside the global model: the checkpoint's
        ``experiment`` entry (FedProphet's stage and heads, FedDF's prototypes)."""
        return None

    def load_checkpoint_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`checkpoint_state`, on a freshly built experiment."""

    def _export_async_meta(self, ctx: AsyncRoundContext) -> Dict[str, Any]:
        """Flatten a round context for pickling (clients/states by id).

        Device states are consumed at dispatch (costs, weights, extra are
        all derived before training), so the snapshot keeps only what the
        merge rule reads: client ids, costs, weights, and ``extra``.
        ``threats`` is not kept: an exported ticket has landed every
        update, so its work unit is never rebuilt.
        """
        return {
            "round_idx": ctx.round_idx,
            "cids": [c.cid for c in ctx.clients],
            "costs": [(c.compute_s, c.access_s) for c in ctx.costs],
            "weights": list(ctx.weights),
            "round_weight": ctx.round_weight,
            "extra": ctx.extra,
        }

    def _restore_async_meta(self, data: Dict[str, Any]) -> AsyncRoundContext:
        return AsyncRoundContext(
            round_idx=data["round_idx"],
            clients=[self.clients[cid] for cid in data["cids"]],
            states=[None] * len(data["cids"]),
            costs=[LocalTrainingCost(*c) for c in data["costs"]],
            weights=list(data["weights"]),
            round_weight=data["round_weight"],
            extra=data["extra"],
        )

    def resume(
        self,
        journal_path: Optional[str] = None,
        rounds: Optional[int] = None,
        verbose: bool = False,
    ) -> List[RoundRecord]:
        """Continue an interrupted run from its journal's last checkpoint.

        Call on a **freshly constructed** experiment with the same
        semantic config (the journal's fingerprint is checked; fusion
        width, client cache size and sink paths may differ — the
        determinism contract makes them irrelevant).  Produces
        bit-identical final weights, history, and merge log to the
        uninterrupted run.  A journal with no checkpoint yet simply
        restarts the (deterministic) run from round zero.
        """
        path = journal_path if journal_path is not None else self.config.journal_path
        if path is None:
            raise ValueError("resume needs a journal path (argument or config)")
        if self.history:
            raise RuntimeError("resume must be called on a fresh experiment")
        self.recorder.resume(path, self._run_start_payload(), self._restore_from_checkpoint,
                             self.config)
        return self.run(rounds, verbose)

    def run(self, rounds: Optional[int] = None, verbose: bool = False) -> List[RoundRecord]:
        """Run up to ``rounds`` rounds (default: the config's).

        Every mode runs the one loop, :meth:`_run_rounds`.  A round is a
        barrier — dispatched and drained before the next one starts — in
        sync mode and for a round-gated experiment; otherwise rounds
        overlap up to ``pipeline_depth``.  The two are not equivalent
        under faults even at depth 1: the barrier waits out
        ``client_timeout``, the pipeline never waits.  The run is one
        executor scope: its round workers, if its modelled work earns them,
        fork once and replay the run beside this process (see
        :meth:`~repro.flsim.executor.RoundExecutor.scope`).
        """
        rounds = rounds if rounds is not None else self.config.rounds
        self.recorder.start(self._run_start_payload())
        # What the run's round workers are forked against: the modelled
        # training work left (rounds × cohort × one client's FLOPs).
        work = max(0, rounds - self._resume_round) * self.config.clients_per_round
        try:
            with self.executor.scope(work * self.client_flops):
                rounds_run = self._run_rounds(rounds, verbose)
        except BaseException:
            self.recorder.abort()
            raise
        self.recorder.record("run_end", rounds=rounds_run, clock_s=self.clock_s)
        return self.history

    # -- round hooks: how a round-gated method advances its own state ---------
    def round_eval(
        self, record: RoundRecord, server: Optional[Dict[str, np.ndarray]] = None
    ) -> Dict[str, Any]:
        """Evaluate a finished round into ``record.eval`` (or leave it ``None``).

        Default: the periodic ``eval_every`` evaluation.  ``server`` is
        the cross-round pipeline's merged state (it never lives in the
        global model until an eval or the end of the run needs it there);
        a barrier round has installed its merged state already.
        Returns extra fields for the round's journal event and verbose line.
        """
        cfg = self.config
        if cfg.eval_every and (record.round + 1) % cfg.eval_every == 0:
            if server is not None:
                self.global_model.load_state_dict(server)
            record.eval = self.evaluate()
        return {}

    def after_round(self, record: RoundRecord) -> None:
        """A round was recorded (trained *or* aborted) — before its
        checkpoint, so what this advances :meth:`checkpoint_state` snapshots.
        Overriding it makes every round a barrier (:attr:`round_gated`)."""

    @property
    def round_gated(self) -> bool:
        """Whether :meth:`after_round` is overridden: it then reads each round's
        eval, so the next round may not start before it."""
        return type(self).after_round is not FederatedExperiment.after_round

    def run_finished(self) -> bool:
        """Stop before the budget is spent (asked before each round)."""
        return False

    def finish_run(self) -> None:
        """The run ended; report what a resume must *not* see."""

    def _complete_round(
        self,
        record: RoundRecord,
        verbose: bool,
        server: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        """Evaluate a finished round, record and journal it (``server``: the
        cross-round pipeline's merged state; a barrier round passes none).
        An evaluated round journals its ``eval`` event just before its
        ``round`` event, and prints one line when ``verbose`` (an unmeasured
        column as ``-``)."""
        extra = self.round_eval(record, server=server)
        if record.eval is not None:
            accs = record.eval.as_dict()
            self.recorder.record("eval", round=record.round, **accs)
            if verbose:
                cols = [f"{k.removesuffix('_acc')}={'-' if v is None else format(v, '.3f')}"
                        for k, v in accs.items()]
                cols.append(f"time={record.sim_time_s:.3g}s")
                cols += [f"{k}={v}" for k, v in extra.items()]
                print(f"[{self.name}] round {record.round + 1}: " + " ".join(cols))
        self.history.append(record)
        self.recorder.record(
            "round",
            round=record.round,
            **extra,
            sim_time_s=record.sim_time_s,
            compute_s=record.compute_s,
            access_s=record.access_s,
            aborted=False,
        )
        self.after_round(record)

    def final_eval(self, max_samples: Optional[int] = None) -> EvalResult:
        """Clean, PGD and AutoAttack accuracy of the final model (the ``aa``
        column is one spec: its members each attack the survivors of the last)."""
        cfg = self.config
        return self.run_eval(EvalPlan.standard(
            eps=cfg.eps0,
            pgd_steps=cfg.eval_pgd_steps,
            with_autoattack=True,
            max_samples=max_samples,
            seed=cfg.seed + 999,
        ))
