"""Shared federated-experiment scaffolding.

Every algorithm (jFAT, the memory-efficient baselines, FedProphet) derives
from :class:`FederatedExperiment`, which owns the pieces the paper keeps
constant across methods: the non-IID client population, per-round client
and device sampling, the simulated wall clock, learning-rate decay, and
periodic evaluation.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks import ModelWithLoss
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import SyntheticImageTask
from repro.flsim.eval_executor import EvalExecutor, EvalTarget
from repro.flsim.executor import (
    DEFAULT_FUSION_WIDTH,
    FORK_FLOOR_FLOPS,
    STACKED_ACTIVATION_BUDGET,
    CohortFn,
    RoundExecutor,
    derived_fusion_width,
    spare_cores,
)
from repro.flsim.aggregation import AggregationError
from repro.flsim.faults import FaultPlan, RoundFaults
from repro.flsim.journal import JournalError, RunJournal
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


@dataclass
class FLConfig:
    """Hyperparameters shared by all federated algorithms (paper §B.4).

    Defaults are the paper's values; experiments shrink ``rounds``,
    ``num_clients``, and ``train_pgd_steps`` to NumPy-friendly scales.

    The round execution engine
    (:class:`repro.flsim.executor.RoundExecutor`) trains a round's clients
    as independent work units: the caller runs the head of the cohort
    plan and, when a share models more than ``FORK_FLOOR_FLOPS`` of
    training, one forked round worker per spare core runs the tail — no
    setting, and no bit of the result, depends on it.  Homogeneous clients
    fuse into stacked cohorts
    (per-client weight slabs against a ``(K·B, ...)`` activation layout —
    see :mod:`repro.nn.cohort`); a heterogeneous client is a cohort of
    one.  ``fusion_width=None`` (default) derives the cohort width from the
    model's stacked activation footprint — ``1 MiB // (4·B·A)`` clamped
    to ``[1, 8]``, so small tensors stack up to 8 wide and large ones
    train alone (:func:`repro.flsim.executor.derived_fusion_width`) —
    an explicit integer is obeyed as given, and ``fusion_width=1``
    disables fusion (every client a cohort of one on the serial layout,
    which fused cohorts reproduce bit for bit).

    ``aggregation_mode`` selects how client updates reach the server:
    ``"sync"`` (default) is the classic round barrier — bit-identical to
    the pre-scheduler engine; for every method it *is* the async rule
    with the whole cohort as one staleness-0 merge event, a depth-1
    pipeline round drained at once (:meth:`FederatedExperiment.run`);
    ``"async"`` (every method but FedDF/FedET, whose distillation step
    has no staleness-bounded form) merges
    updates as they land, in simulated-arrival order, with FedAsync
    staleness attenuation bounded by ``max_staleness`` merge events —
    deterministic and seed-reproducible because arrival order derives
    from the simulated latency model, never from wall-clock scheduling.

    ``pipeline_depth`` (async mode only) lifts the round boundary itself:
    with depth *D* up to *D* rounds are in flight at once — round *r+1*'s
    fast clients dispatch against the latest merged server state while
    round *r*'s stragglers are still training
    (:class:`repro.flsim.scheduler.CrossRoundPipeline`).  Each round's
    clients train from the server state at the round's *base version*
    (the merge-event count at its simulated dispatch time), and merges
    still replay in simulated-arrival order, so any depth is
    seed-reproducible; ``pipeline_depth=1`` with
    ``max_staleness=0`` is synchronous FedAvg (the same single event).
    FedProphet pins depth to 1: its per-round ``cascade_eval`` feeds APA
    and early-stop, putting a hard evaluation point on every round
    boundary, so each of its rounds is a barrier (its async mode instead
    merges per-module within the round).  Whether a round is a barrier is
    derived — sync mode, or a round-gated experiment — never configured.

    **Fault tolerance** (see ``docs/fault-tolerance.md``):
    ``journal_path`` writes an append-only JSONL event log of the run;
    ``checkpoint_every`` atomically snapshots the full run state every K
    rounds next to the journal (``<journal>.ckpt``), and
    :meth:`FederatedExperiment.resume` restarts from the last checkpoint
    **bit-identically** to an uninterrupted run (every method; state kept
    outside the global model rides along).  ``fault_plan`` injects seeded,
    deterministic client faults (dropout / straggler / flaky-with-retry);
    ``client_timeout`` bounds how long the synchronous server waits
    (timed-out clients are dropped — judged on each method's pre-training
    cost model, which every shipped method has; an experiment without
    one refuses the field at construction), ``max_client_retries`` bounds flaky
    retries, and a round whose surviving cohort falls below
    ``min_clients_per_round`` aborts deterministically (no training, an
    ``aborted`` history record).

    **Population engine** (see ``docs/architecture.md``):
    ``population_scheme`` picks how client shards are derived —
    ``"partition"`` is the legacy global partition pass (bit-identical to
    every pre-engine run), ``"virtual"`` derives each client's shard,
    sample count, and device profile from counter-derived
    ``(population seed, cid)`` streams with no global pass (O(cohort)
    memory and setup at any population size), and ``"auto"`` (default)
    picks ``partition`` while ``num_clients <= len(train)`` and
    ``virtual`` beyond it.  ``client_materialisation`` is an independent
    axis: ``"eager"`` (default) builds every :class:`FLClient` at init,
    ``"lazy"`` materialises on first touch into a bounded LRU of
    ``client_cache_size`` (None = O(cohort) default) — eviction cannot
    affect results, so lazy runs are bit-identical to eager ones.
    ``samples_per_client`` fixes the virtual shard size (None = derived;
    refused under ``partition``); ``availability_fraction`` /
    ``availability_period`` give every client a deterministic periodic
    duty cycle that cohort sampling respects (see ``docs/fault-tolerance.md``).

    **Observability** (see ``docs/fault-tolerance.md``): the journal is
    the live event stream (flushed per event, so it can be tailed
    mid-run); ``status_port`` serves a read-only JSON status
    endpoint (current round, server version, simulated clock,
    fault/threat/cache counters) on a loopback HTTP server — port 0
    binds an ephemeral port, exposed as ``experiment.status_address``.
    It is pure observability and non-semantic (it cannot affect
    results).  ``eval_every_merge`` (async mode on the cross-round
    pipeline) evaluates the merged server state every K merge *events* — the
    accuracy-vs-server-version staleness curves — recorded in
    ``experiment.merge_evals`` and journalled as ``merge_eval`` events;
    it is semantic (it changes the journal and the merge-eval record).

    ``threat_plan`` injects seeded Byzantine clients (label-flip /
    backdoor data poisoning, sign-flip / Gaussian / model-replacement
    update poisoning — see :class:`repro.flsim.threats.ThreatPlan`);
    ``aggregation_rule`` picks the server's defence
    (:mod:`repro.flsim.robust_agg`): ``fedavg`` (default, bit-identical
    to the historical engine), ``median``, ``trimmed_mean`` (with
    ``trim_ratio``), ``krum``/``multi_krum`` (with ``krum_byzantine_f``),
    or ``norm_clip`` (with ``clip_norm``; None = adaptive median-norm
    radius).
    """

    num_clients: int = 100
    clients_per_round: int = 10
    local_iters: int = 30
    batch_size: int = 64
    lr: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: float = 0.994
    rounds: int = 500
    train_pgd_steps: int = 10
    eps0: float = 8.0 / 255.0
    eval_pgd_steps: int = 20
    eval_every: int = 10
    eval_max_samples: int = 256
    eval_with_autoattack: bool = False
    seed: int = 0
    fusion_width: Optional[int] = None
    aggregation_mode: str = "sync"
    max_staleness: int = 4
    pipeline_depth: int = 1
    journal_path: Optional[str] = None
    checkpoint_every: int = 0
    status_port: Optional[int] = None
    eval_every_merge: int = 0
    fault_plan: Optional[FaultPlan] = None
    client_timeout: Optional[float] = None
    max_client_retries: int = 2
    min_clients_per_round: int = 1
    threat_plan: Optional[ThreatPlan] = None
    aggregation_rule: str = "fedavg"
    trim_ratio: float = 0.2
    krum_byzantine_f: int = 1
    clip_norm: Optional[float] = None
    population_scheme: str = "auto"
    client_materialisation: str = "eager"
    client_cache_size: Optional[int] = None
    samples_per_client: Optional[int] = None
    availability_fraction: Optional[float] = None
    availability_period: int = 8

    def __post_init__(self):
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
        for name in ("train_pgd_steps", "eval_pgd_steps"):
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
        if self.aggregation_mode not in ("sync", "async"):
            raise ValueError(
                f"aggregation_mode must be 'sync' or 'async', "
                f"got {self.aggregation_mode!r}"
            )
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
        if self.client_timeout is not None and self.client_timeout <= 0:
            raise ValueError("client_timeout must be > 0 (or None)")
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
        if self.aggregation_rule not in AGGREGATION_RULES:
            raise ValueError(
                f"aggregation_rule must be one of {AGGREGATION_RULES}, "
                f"got {self.aggregation_rule!r}"
            )
        if not (0.0 <= self.trim_ratio < 0.5):
            raise ValueError("trim_ratio must be in [0, 0.5)")
        if self.krum_byzantine_f < 0:
            raise ValueError("krum_byzantine_f must be >= 0")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0 (or None for adaptive)")
        if self.population_scheme not in POPULATION_SCHEMES:
            raise ValueError(
                f"population_scheme must be one of {POPULATION_SCHEMES}, "
                f"got {self.population_scheme!r}"
            )
        if self.client_materialisation not in MATERIALISATIONS:
            raise ValueError(
                f"client_materialisation must be one of {MATERIALISATIONS}, "
                f"got {self.client_materialisation!r}"
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
    """Everything an async merge rule may need about one dispatched round.

    Built *before* training from pure functions of the sampled clients
    and device states (costs, weights, experiment extras like FedRBN's
    AT-affordability flags), so the merge replay never depends on
    training output beyond the updates themselves.
    """

    round_idx: int
    clients: List[FLClient]
    states: List[Optional[DeviceState]]
    costs: List[LocalTrainingCost]
    weights: List[float]
    round_weight: float
    extra: Dict[str, Any] = field(default_factory=dict)


class FederatedExperiment:
    """Base class running the communication-round loop on a simulated clock.

    An algorithm is stated **once**, as the ``async_*`` hook surface
    (work unit, pre-training costs, weights, merge rule), and :meth:`run`
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
        if cls.async_client_fn is base.async_client_fn:
            raise TypeError(
                f"{cls.__name__} states no algorithm: implement the async_* "
                f"hooks (async_client_fn, async_client_costs; run() derives "
                f"the synchronous round from them)"
            )
        if (
            config.client_timeout is not None
            and cls.fault_client_costs is base.fault_client_costs
            and cls.async_client_costs is base.async_client_costs
        ):
            raise ValueError(
                f"{cls.__name__} has no pre-training cost model "
                f"(async_client_costs / fault_client_costs), so client_timeout="
                f"{config.client_timeout!r} could never drop a client; set "
                f"client_timeout=None"
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
        # Fault-tolerance state: the open journal, the current round's fault
        # verdict, and the resume cursor installed by resume().
        self._journal: Optional[RunJournal] = None
        self._round_faults: Optional[RoundFaults] = None
        self._resume_round: int = 0
        self._resume_async: Optional[Dict[str, Any]] = None
        # Threat state: the current round's Byzantine verdict and the
        # configured robust-aggregation rule (+ its per-merge stats sink,
        # drained into the journal by the run loop).
        self._round_threats: Optional[RoundThreats] = None
        self._robust = RobustAggregator.from_config(config)
        self._agg_stats: List[Dict[str, Any]] = []
        # Live observability: every _jlog event tees into the status
        # service.  Created at init so the endpoint is reachable (state
        # "init") before run() starts.
        self._metrics = None
        if config.status_port is not None:
            from repro.flsim.service import MetricsService

            self._metrics = MetricsService(
                status_port=config.status_port,
                parallelism=self.describe_parallelism(),
            )

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
            estimates = (
                self.fault_client_costs(round_idx, selected, states)
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
            self._jlog(
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
                self._jlog(
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
        self._jlog(
            "sample",
            round=round_idx,
            cids=[c.cid for c in selected],
            population=self.clients.num_clients,
            cache=self.clients.stats(),
        )
        return selected, states

    def fault_client_costs(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> List[float]:
        """Per-client latency estimate (total seconds) for ``client_timeout``.

        Computed for the *sampled* cohort before anybody trains or drops
        (the timeout decision must be pure); defaults to
        :meth:`async_client_costs`.  An experiment with neither is refused
        at construction when ``client_timeout`` is set.
        """
        return [c.total_s for c in self.async_client_costs(round_idx, clients, states)]

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
        self._jlog(
            "round", round=round_idx, sim_time_s=record.sim_time_s, aborted=True
        )
        self.after_round(record)

    # -- update-space threats + robust aggregation -----------------------------
    def _threat_wrap(
        self,
        round_idx: int,
        fn: Callable,
        base: Dict[str, np.ndarray],
        threats: Optional[RoundThreats] = None,
    ) -> Callable:
        """Wrap a train work unit so Byzantine clients lie about their update.

        ``base`` is the round's training base (what the deltas are
        measured against); ``fn(item)`` must take ``(client,
        device_state)`` items.  Honest rounds return ``fn`` unchanged, so
        an inactive plan costs nothing.  A :class:`~repro.flsim.executor.
        CohortFn` stays a ``CohortFn`` (same ``group_key``)
        — the poisoning applies to each client's extracted update after
        training, so cohort composition is unaffected.
        """
        plan = self.config.threat_plan
        threats = threats if threats is not None else self._round_threats
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
    def _round_context(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
        costs: List[LocalTrainingCost],
    ) -> AsyncRoundContext:
        """What the merge rule may read about a round, fixed before training."""
        weights = self.async_client_weights(clients, states)
        return AsyncRoundContext(
            round_idx=round_idx,
            clients=clients,
            states=states,
            costs=costs,
            weights=weights,
            round_weight=float(sum(weights)),
            extra=self.async_round_extra(round_idx, clients, states),
        )

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

    def async_client_fn(
        self, round_idx: int, base_state: Dict[str, np.ndarray]
    ) -> Callable:
        """The work unit for one round's clients (sync and async).

        ``base_state`` is a private copy of the server state at the
        round's base version; the returned ``fn(item)`` must restore it
        into ``self._async_workspace()`` (never the live global model —
        in-flight rounds share that workspace), train, and return the
        client's update.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements no async_client_fn"
        )

    def async_client_costs(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> List[LocalTrainingCost]:
        """Per-client simulated latency, computed *before* training.

        Pure arithmetic over the device states: the pipeline needs the
        costs up front to fix arrival order, merge schedule, and dispatch
        times; a barrier round clocks itself with them and
        ``client_timeout`` drops on them (:meth:`fault_client_costs`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements no async_client_costs"
        )

    def async_client_weights(
        self,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> List[float]:
        """Aggregation weight per client (default: local data size)."""
        return [float(client.num_samples) for client in clients]

    def async_round_extra(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> Dict[str, Any]:
        """Experiment-specific pre-training context for the merge rule.

        E.g. FedRBN precomputes which sampled clients can afford
        adversarial training (a pure function of the device states) so
        its dual-BN merge can weight adversarial statistics correctly.
        """
        return {}

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
        result = self.evaluate()
        record = MergeEvalRecord(
            version=version,
            round=event.round,
            event=event.event,
            staleness=event.staleness,
            sim_time_s=event.sim_time_s,
            eval=result,
        )
        self.merge_evals.append(record)
        self._jlog(
            "merge_eval",
            version=version,
            round=event.round,
            event=event.event,
            staleness=event.staleness,
            sim_time_s=event.sim_time_s,
            clean_acc=result.clean_acc,
            pgd_acc=result.pgd_acc,
            aa_acc=result.aa_acc,
        )

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
            self._jlog("merge", **payload)
            if cfg.eval_every_merge:
                version = len(self.async_log)  # merges replay in order: the log counts them
                if version % cfg.eval_every_merge == 0:
                    self._merge_eval(server, event, version)
            if self._metrics is not None:
                self._metrics.update_pipeline(pipeline.stats())

        def round_complete(ticket):
            if barrier:
                return  # the loop finishes a barrier round once its drain returns
            t, drain = ticket.round_idx, ticket.drain_time
            self.clock_s = max(self.clock_s, drain)
            compute, access = cumulative_cost(t)
            self.total_compute_s = max(self.total_compute_s, compute)
            self.total_access_s = max(self.total_access_s, access)
            self._complete_round(RoundRecord(t, drain, compute, access), verbose, server)
            if self._metrics is not None:  # `pipeline` is bound: it called us
                self._metrics.update_pipeline(pipeline.stats())

        def new_pipeline() -> CrossRoundPipeline:
            return CrossRoundPipeline(
                self.executor,
                max_staleness=cfg.max_staleness if cfg.aggregation_mode == "async" else 0,
                depth=cfg.pipeline_depth,
                merge_event=merge_event,
                round_complete=round_complete,
                start_time=self.clock_s,
            )

        pipeline = new_pipeline()
        if resume is not None:
            pipeline.restore_state(resume["pipeline"], self._restore_async_meta)

        def play(t: int) -> None:
            """Sample round ``t`` and dispatch it — a barrier round also drains."""
            nonlocal server, pipeline
            clients, states = self.sample_round(t)
            faults, self._round_faults = self._round_faults, None
            # What a barrier waits for the clients it lost; the pipeline never waits.
            floor = faults.timeout_floor_s if barrier and faults is not None else None
            if faults is not None and faults.aborted:
                self._finish_aborted_round(t, floor)
                return
            costs = self.async_client_costs(t, clients, states)
            scaled = faults.scale_costs(costs) if faults is not None else costs
            ctx = self._round_context(t, clients, states, scaled)
            slowest = max(scaled, key=lambda c: c.total_s, default=None)
            items = list(zip(clients, states))
            if barrier:
                server = self.async_server_state()
                # Merges interleave with the clients that still read the
                # training base.  A shallow copy keeps it immutable: merges
                # rebind the server's entries and never write into them.
                base = dict(server)
                fn = self._threat_wrap(t, self.async_client_fn(t, base), base)
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
                    self._jlog("agg_abort", round=t, error=str(err))
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
                        self._jlog("agg", round=t, events=agg_stats)
                    record = RoundRecord(
                        t, self.clock_s, self.total_compute_s, self.total_access_s
                    )
                    self._complete_round(record, verbose)
            else:
                bottlenecks[t] = slowest

                def fn_factory(ticket, _t=t, _threats=self._round_threats):
                    # After the pre-dispatch merge replay the server sits at
                    # this round's base version: copy it as the training base
                    # Byzantine clients (this round's verdict) lie against.
                    base = {k: v.copy() for k, v in server.items()}
                    return self._threat_wrap(
                        _t, self.async_client_fn(_t, base), base, threats=_threats
                    )

                ticket = pipeline.dispatch(
                    t, items, [c.total_s for c in scaled], fn_factory, meta=ctx
                )
                self._jlog(
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
                self._write_checkpoint(
                    t,
                    async_state=None if barrier else {
                        "server": {k: v.copy() for k, v in server.items()},
                        "history_start": history_start,
                        "base_compute": base_compute,
                        "base_access": base_access,
                        "bottlenecks": dict(bottlenecks),
                        "pipeline": pipeline.export_state(self._export_async_meta),
                    },
                )

        if not barrier:
            pipeline.drain_all()
            self.async_finalize(server)
        self._last_pipeline_stats = pipeline.stats()
        self.finish_run()
        tail = sorted(self.history[history_start:], key=lambda r: r.round)
        self.history[history_start:] = tail
        return t

    # -- evaluation engine -----------------------------------------------------
    def eval_plan(
        self,
        max_samples: Optional[int] = None,
        with_autoattack: Optional[bool] = None,
        seed_offset: int = 99,
    ) -> EvalPlan:
        """The standard clean/PGD(/AA) plan under this experiment's config."""
        cfg = self.config
        return EvalPlan.standard(
            eps=cfg.eps0,
            pgd_steps=cfg.eval_pgd_steps,
            with_autoattack=(
                cfg.eval_with_autoattack if with_autoattack is None else with_autoattack
            ),
            max_samples=max_samples,
            seed=cfg.seed + seed_offset,
        )

    # Eval-time mode applied to the global model before shards run (state
    # that lives *outside* the state dict, e.g. FedRBN's dual-BN switch).
    # Subclasses override with a method.
    _eval_setup: Optional[Callable] = None

    def run_eval(
        self, plan: EvalPlan, dataset: Optional[ArrayDataset] = None
    ) -> EvalResult:
        """Submit an :class:`EvalPlan` to the sharded evaluation engine.

        ``_eval_setup(model)`` first applies any eval-time mode (e.g.
        FedRBN's dual-BN switch) to the global model.
        """
        if self._eval_setup is not None:
            self._eval_setup(self.global_model)
        return self.eval_executor.run(
            plan,
            dataset if dataset is not None else self.task.test,
            EvalTarget(ModelWithLoss(self.global_model)),
        )

    def evaluate(self, max_samples: Optional[int] = None) -> EvalResult:
        return self.run_eval(
            self.eval_plan(
                max_samples=(
                    max_samples if max_samples is not None else self.config.eval_max_samples
                )
            )
        )

    def _print_eval(self, record: RoundRecord) -> None:  # pragma: no cover
        e = record.eval
        print(
            f"[{self.name}] round {record.round + 1}: clean={e.clean_acc:.3f} "
            f"pgd={e.pgd_acc if e.pgd_acc is None else round(e.pgd_acc, 3)} "
            f"time={record.sim_time_s:.1f}s"
        )

    def describe_parallelism(self) -> str:
        """The resolved execution-engine settings, for verbose reporting."""
        cfg = self.config
        cause = "configured" if cfg.fusion_width is not None else (
            f"derived: 4·B·A = {self.client_activation_bytes / 2**10:.4g} KiB "
            f"per client against a {STACKED_ACTIVATION_BUDGET >> 10} KiB "
            f"stacked budget, at most {DEFAULT_FUSION_WIDTH}; configured: auto"
        )
        workers = self.executor.workers_for(cfg.clients_per_round)
        floor = (
            f"a worker forks for a share above {FORK_FLOOR_FLOPS / 1e9:g} GFLOP of "
            f"modelled work (training or eval), one client "
            f"{self.client_flops / 1e9:.3g} GFLOP; evaluation plans are priced "
            f"per shard and fork on their own"
        )
        if workers:
            engine = (
                f"engine: {workers} forked round worker(s) beside the caller "
                f"({spare_cores()} spare core(s)), OpenBLAS pinned to 1 thread "
                f"while they run; {floor}"
            )
        else:
            engine = f"engine: serial, one work unit at a time ({floor})"
        engine += (
            f"; fusion width {self.executor.fusion_width} ({cause}) for "
            f"equal-key clients, others per item, 1 disables fusion"
        )
        pop = self.clients
        cap = pop.cache_capacity
        stats = pop.stats()
        population = (
            f"population: {pop.num_clients} clients ({pop.scheme}, "
            f"{pop.materialisation}, cache cap "
            f"{'unbounded' if cap is None else cap}, live {stats['live']}, "
            f"peak {stats['peak_live']}, hits {stats['hits']}, "
            f"evictions {stats['evictions']})"
        )
        parts = [
            engine,
            population,
            f"aggregation: {cfg.aggregation_mode}"
            + (
                f" (max_staleness={cfg.max_staleness}, "
                f"pipeline_depth={cfg.pipeline_depth})"
                if cfg.aggregation_mode == "async"
                else ""
            ),
        ]
        return f"[{self.name}] " + "; ".join(parts)

    def close(self) -> None:
        """Close the journal and the status service."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self._metrics is not None:
            self._metrics.close()

    def __enter__(self) -> "FederatedExperiment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- journalling, checkpointing, resume ------------------------------------
    def _jlog(self, kind: str, **payload) -> None:
        """Log one run event: journal append + status-service tee.

        The journal may be off while the status service is on (and vice
        versa); both see identical payloads, all emitted from the run
        loop in deterministic program order.
        """
        if self._journal is not None:
            self._journal.append(kind, **payload)
        if self._metrics is not None:
            self._metrics.observe(kind, payload)

    @property
    def status_address(self) -> Optional[str]:
        """The live status endpoint's base URL (None when off)."""
        return self._metrics.address if self._metrics is not None else None

    def _journal_eval(self, record: RoundRecord) -> None:
        if record.eval is not None:
            self._jlog(
                "eval",
                round=record.round,
                clean_acc=record.eval.clean_acc,
                pgd_acc=record.eval.pgd_acc,
                aa_acc=record.eval.aa_acc,
            )

    def _fingerprint(self) -> str:
        from repro.flsim.checkpoint import config_fingerprint

        return config_fingerprint(self.config, self.name)

    def _run_start_payload(self) -> Dict[str, Any]:
        """The ``run_start`` event body (shared by journal and replay)."""
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

    def _open_journal(self) -> None:
        """Start a fresh journal for this run (if configured, once)."""
        if self.config.journal_path is None or self._journal is not None:
            # Journal off (or a replay verifier pre-installed): the
            # status service still wants its run_start marker.
            if self._metrics is not None and self.config.journal_path is None:
                self._metrics.observe("run_start", self._run_start_payload())
            return
        self._journal = RunJournal.create(self.config.journal_path)
        self._jlog("run_start", **self._run_start_payload())

    def _abort_cleanup(self) -> None:
        """Best-effort teardown when the run loop raises.

        The journal records the abort so a later read tells a crash (torn
        tail / no ``run_end``) apart from a Python-level failure.  Each
        step runs under its own guard, so a sink that raises (the status
        tee) cannot keep the other sink from recording the abort or
        closing.
        """
        journal, metrics = self._journal, self._metrics
        self._journal = None
        steps = []
        if journal is not None:
            steps += [lambda: journal.append("run_abort"), journal.close]
        if metrics is not None:
            steps += [lambda: metrics.observe("run_abort", {}), metrics.close]
        for step in steps:
            try:
                step()
            except Exception:  # best effort: run() re-raises the run's own error
                pass

    def _checkpoint_path(self) -> str:
        base = (
            self._journal.path if self._journal is not None
            else self.config.journal_path
        )
        return base + ".ckpt"

    def _write_checkpoint(
        self, next_round: int, async_state: Optional[Dict[str, Any]] = None
    ) -> None:
        """Atomically snapshot everything the run loop needs to continue.

        ``async_state`` carries the cross-round pipeline's extra
        bookkeeping; after a barrier round the global model holds the whole
        server state, so it is snapshotted directly.
        """
        from repro.flsim.checkpoint import CHECKPOINT_FORMAT, write_checkpoint

        payload: Dict[str, Any] = {
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
        path = self._checkpoint_path()
        write_checkpoint(path, payload)
        self._jlog(
            "checkpoint", next_round=next_round, path=os.path.basename(path)
        )

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
        from repro.flsim.checkpoint import read_checkpoint

        path = journal_path if journal_path is not None else self.config.journal_path
        if path is None:
            raise ValueError("resume needs a journal path (argument or config)")
        if self.history:
            raise RuntimeError("resume must be called on a fresh experiment")
        events = RunJournal.read(path)
        if not events or events[0].get("kind") != "run_start":
            raise JournalError(f"{path}: journal does not start with run_start")
        fingerprint = self._fingerprint()
        if events[0].get("fingerprint") != fingerprint:
            raise JournalError(
                f"{path}: journal fingerprint {events[0].get('fingerprint')} "
                f"does not match this experiment's config ({fingerprint}); "
                f"only non-semantic fields (fusion width, cache size, paths) "
                f"may change across a resume"
            )
        ckpt_event = RunJournal.last_checkpoint(events)
        if ckpt_event is None:
            # Crashed before the first checkpoint: the run is deterministic,
            # so replaying from scratch *is* the resume.
            return self.run(rounds, verbose)
        ckpt_path = os.path.join(
            os.path.dirname(os.path.abspath(path)), ckpt_event["path"]
        )
        payload = read_checkpoint(ckpt_path)
        if payload["fingerprint"] != fingerprint:
            raise JournalError(
                f"{ckpt_path}: checkpoint fingerprint does not match this "
                f"experiment's config"
            )
        self._restore_from_checkpoint(payload)
        self._journal = RunJournal.resume_open(path)
        next_round = payload["next_round"]
        if next_round != ckpt_event["next_round"]:
            # Killed between the checkpoint's rename and its journal event:
            # log it now, so the resume anchors on it and the journal folds.
            self._jlog("checkpoint", next_round=next_round, path=ckpt_event["path"])
        self._jlog("resume", next_round=next_round)
        return self.run(rounds, verbose)

    def run(self, rounds: Optional[int] = None, verbose: bool = False) -> List[RoundRecord]:
        """Run up to ``rounds`` rounds (default: the config's).

        Every mode runs the one loop, :meth:`_run_rounds`.  A round is a
        barrier — dispatched and drained before the next one starts — in
        sync mode and for a round-gated experiment; otherwise rounds
        overlap up to ``pipeline_depth``.  The two are not equivalent
        under faults even at depth 1: the barrier waits out
        ``client_timeout``, the pipeline never waits.
        """
        rounds = rounds if rounds is not None else self.config.rounds
        self._open_journal()
        try:
            rounds_run = self._run_rounds(rounds, verbose)
        except BaseException:
            self._abort_cleanup()
            raise
        self._jlog("run_end", rounds=rounds_run, clock_s=self.clock_s)
        return self.history

    # -- round hooks: how a round-gated method advances its own state ---------
    def round_eval(
        self,
        record: RoundRecord,
        verbose: bool,
        server: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, Any]:
        """Evaluate a finished round into ``record.eval``.

        Default: the periodic ``eval_every`` evaluation.  ``server`` is
        the cross-round pipeline's merged state (it never lives in the
        global model until an eval or the end of the run needs it there);
        a barrier round has installed its merged state already.
        Returns extra fields for the round's journal event.
        """
        cfg = self.config
        if cfg.eval_every and (record.round + 1) % cfg.eval_every == 0:
            if server is not None:
                self.global_model.load_state_dict(server)
            record.eval = self.evaluate()
            self._journal_eval(record)
            if verbose:  # pragma: no cover - console reporting
                self._print_eval(record)
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
        cross-round pipeline's merged state; a barrier round passes none)."""
        extra = self.round_eval(record, verbose, server=server)
        self.history.append(record)
        self._jlog(
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
        return self.run_eval(
            self.eval_plan(max_samples=max_samples, with_autoattack=True, seed_offset=999)
        )
