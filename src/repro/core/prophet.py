"""FedProphet: the full server/client training loop (paper Algorithm 2).

Per module m = 1..M, repeat communication rounds until convergence:

1. the server adjusts ε_{m-1} via APA (m > 1),
2. the server assigns each sampled client a module span via DMA,
3. clients run adversarial cascade learning with strong-convexity
   regularization on the span,
4. the server partial-averages modules (Eq. 16) and heads (Eq. 17).

When module m converges it is fixed; clients report max ‖Δz_m‖, which
seeds ε_m for the next module's training stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.attacks import ModelWithLoss
from repro.core.aggregator import (
    merge_async_partial,
    restore_segment,
    snapshot_segment,
)
from repro.core.apa import AdaptivePerturbationAdjustment
from repro.core.cascade import (
    CascadeBatchSpec,
    cascade_local_train,
    measure_output_perturbation,
    prefix_features,
)
from repro.core.config import FedProphetConfig
from repro.core.dma import SegmentCostTable, assign_modules
from repro.core.partitioner import full_model_mem_bytes, partition_model
from repro.core.prefix_cache import PrefixCache
from repro.flsim.base import AsyncRoundContext, FederatedExperiment, RoundRecord
from repro.flsim.eval_executor import EvalTarget
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.flops import BACKWARD_MULTIPLIER
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.hardware.profile import profile_module
from repro.metrics.evaluation import AttackSpec, EvalPlan, EvalResult
from repro.models.atoms import CascadeModel
from repro.core.heads import AuxHead


@dataclass
class PerturbationLogEntry:
    """One Figure-10 sample: the ε in force at a given global round."""

    round: int
    module: int
    eps: float
    eps_per_dim: float


@dataclass
class ModuleStageResult:
    """Summary of one module's training stage."""

    module: int
    rounds: int
    final_clean_acc: float
    final_adv_acc: float
    eps_star: float


class FedProphet(FederatedExperiment):
    """Memory-efficient FAT via robust and consistent cascade learning.

    A round is the ``async_*`` hook surface: the round plan
    (:meth:`async_round_context`: DMA once per planned cohort, its spans,
    latencies and Eq. 16/17 denominators), which the cascade work unit and
    the partial-average merge read; Algorithm 2's outer loop is the
    stage state below, advanced by the engine's run loop (every FedProphet
    round is a barrier) — no run loop, barrier round or merge replay of
    its own, so it checkpoints, resumes and replays like every other
    method.
    """

    name = "fedprophet"
    # Round-gated (after_round reads each round's cascade_eval: APA's
    # epsilon schedule, the per-module early-stop), so asynchronous
    # aggregation is *within-round*: updates merge per module span (Eq. 16,
    # staleness-attenuated) in simulated-arrival order — the events of the
    # round's own drained pipeline.
    #: Algorithm 2's outer-loop state: plain picklable attributes, the
    #: checkpoint's ``experiment`` entry (plus the head weights).
    _STAGE_STATE = (
        "current_module", "_stage_rounds", "_best_metric", "_stale", "_last_eval",
        "apa", "eps_feature", "eps_star", "stage_results", "pert_log",
        "_val_eval_calls",
    )

    def __init__(
        self,
        task,
        model_builder: Callable[[np.random.Generator], CascadeModel],
        config: FedProphetConfig,
        device_sampler: Optional[DeviceSampler] = None,
        latency_model: Optional[LatencyModel] = None,
    ):
        super().__init__(task, model_builder, config, device_sampler, latency_model)
        self.config: FedProphetConfig = config
        self.r_max = full_model_mem_bytes(self.global_model, self.mem)
        self.r_min = (
            config.r_min_bytes
            if config.r_min_bytes is not None
            else config.r_min_fraction * self.r_max
        )
        self.partition = partition_model(self.global_model, self.r_min, self.mem)
        self.cost_table = SegmentCostTable(self.global_model, self.partition, self.mem)

        self.heads = self._build_heads()

        self.apa = AdaptivePerturbationAdjustment(
            gamma=config.gamma,
            delta_alpha=config.delta_alpha,
            alpha_init=config.alpha_init,
            alpha_min=config.alpha_min,
            alpha_max=config.alpha_max,
            enabled=config.use_apa,
        )
        self.current_module = 0  # == len(partition) once every module is fixed
        self._begin_stage()
        self.prefix_cache = PrefixCache() if config.use_prefix_cache else None
        if (
            self.prefix_cache is not None
            and config.threat_plan is not None
            and config.threat_plan.active
            and config.threat_plan.attack == "backdoor"
        ):
            # The prefix cache keys activations by (client, sample index)
            # and assumes client inputs are immutable; a backdoor trigger
            # rewrites inputs per round, so cached prefix activations
            # would go stale silently.
            raise ValueError(
                "a backdoor threat plan modifies client inputs, which "
                "invalidates the frozen-prefix activation cache; set "
                "use_prefix_cache=False to run this scenario"
            )
        if self.prefix_cache is not None:  # rows a round worker fills come back
            self.executor.worker_state.append(self.prefix_cache)
        # Stage-scoped bookkeeping: the frozen prefix only changes when the
        # training stage advances to a new module, so the activation cache
        # is invalidated per stage rather than every round.
        self._stage_module: Optional[int] = None
        self.eps_feature = 0.0  # ε_{m-1}; unused for module 0 (raw-input ℓ∞)
        self.eps_star: List[float] = []  # fixed ε*_{m-1} per completed module
        self.stage_results: List[ModuleStageResult] = []
        self.pert_log: List[PerturbationLogEntry] = []

        # Cumulative forward FLOPs of the fixed prefix before each atom.
        self._prefix_flops = [0]
        shape = self.global_model.in_shape
        for atom in self.global_model.atoms:
            prof = profile_module(atom.module, shape)
            self._prefix_flops.append(self._prefix_flops[-1] + prof.flops)
            shape = prof.out_shape

        val_rng = np.random.default_rng(config.seed + 31)
        n_val = min(config.val_samples, len(task.test))
        idx = val_rng.choice(len(task.test), size=n_val, replace=False)
        self.val_set = task.test.subset(idx)
        self._val_eval_calls = 0

    # -- validation of the cascaded prefix -----------------------------------
    def cascade_eval(self, module_idx: int) -> EvalResult:
        """Clean/adversarial accuracy of (w*_1 ∘ … ∘ w_m) with head θ_m.

        Runs as a sharded :class:`EvalPlan` on the evaluation engine.  The
        clean pass forwards the *frozen* prefix (atoms before the current
        module) over the fixed validation set, which is exactly what the
        stage-scoped :class:`PrefixCache` memoises — repeated validations
        within a stage serve the prefix from cache, bit-identically.  The
        PGD pass perturbs the raw input and always recomputes.
        """
        cfg = self.config
        stop = self.partition[module_idx][1]
        head = self.heads[module_idx]
        # A fresh counter-derived seed per call keeps successive validations
        # independent (as the consumed RNG did) while staying shard-stable.
        self._val_eval_calls += 1
        plan = EvalPlan(
            attacks=(
                AttackSpec.clean(),
                AttackSpec.pgd(cfg.eps0, cfg.val_pgd_steps),
            ),
            seed=(cfg.seed + 37, self._val_eval_calls),
        )
        # The prefix is only frozen (and cache entries only valid) for the
        # module currently in training.
        prefix_len = (
            self.partition[module_idx][0]
            if module_idx == self.current_module
            else 0
        )
        use_cache = self.prefix_cache is not None and prefix_len > 0

        model = self.global_model
        target = EvalTarget(ModelWithLoss(model.segment(0, stop), head=head))
        if use_cache:
            target.features = prefix_features(
                model, prefix_len, self.prefix_cache, ("val", prefix_len), len(self.val_set)
            )
            target.suffix_mwl = ModelWithLoss(model.segment(prefix_len, stop), head=head)
        return self.eval_executor.run(plan, self.val_set, target)

    # -- stage bookkeeping -----------------------------------------------------
    def _enter_stage(self, m: int) -> None:
        """Note a module-stage (prefix) change; bump the cache version.

        During a stage, aggregation only rewrites atoms at or after the
        current module, so the frozen prefix — and everything keyed on it —
        stays valid across all of the stage's rounds.
        """
        if self._stage_module != m:
            self._stage_module = m
            if self.prefix_cache is not None:
                self.prefix_cache.bump_version()

    def _build_heads(self) -> List[Optional[AuxHead]]:
        """One auxiliary head per module but the last (the backbone's output)."""
        rng = np.random.default_rng(self.config.seed + 21)
        num_atoms = len(self.global_model.atoms)
        return [
            AuxHead(self.global_model.feature_shape(stop - 1), self.task.num_classes, rng=rng)
            if stop < num_atoms
            else None
            for _start, stop in self.partition.ranges
        ]

    # -- one communication round: the async_* hooks ----------------------------
    def async_round_context(self, round_idx, clients, states) -> AsyncRoundContext:
        """The round plan, pure arithmetic over the cohort's device states.

        DMA assigns each client its span ``M_k``; the plan holds each
        client's latency on that span (:meth:`_client_cost`, which is what
        lets ``client_timeout`` drop on it), its share of the population's
        data (q_k of Eq. 16/17) and, in ``extra``, the spans and the round
        trainer weight of every module (Eq. 16, ``M_k >= n``) and head
        (Eq. 17, ``M_k == n``) — the mixing rates' denominators.
        """
        m = self.current_module
        assignments = assign_modules(
            self.cost_table, m, states, enabled=self.config.use_dma
        )
        weights = [client.num_samples / self.total_samples for client in clients]
        spans = range(len(self.partition))
        return AsyncRoundContext(
            round_idx, clients, states,
            [self._client_cost(dev, m, mk) for dev, mk in zip(states, assignments)],
            weights=weights,
            extra={
                "span_of": {c.cid: mk for c, mk in zip(clients, assignments)},
                "module_weights": [
                    float(sum(w for w, mk in zip(weights, assignments) if mk >= n))
                    for n in spans
                ],
                "head_weights": [
                    float(sum(w for w, mk in zip(weights, assignments) if mk == n))
                    for n in spans
                ],
            },
        )

    def async_server_state(self):
        """What a round can train: the suffix from module m on (the frozen
        prefix is never copied) and, under ``"heads"``, the per-head states —
        so base, merged state and an aborted round's restore are one dict each."""
        start_atom = self.partition[self.current_module][0]
        server = snapshot_segment(
            self.global_model, start_atom, len(self.global_model.atoms)
        )
        server["heads"] = [h.state_dict() if h is not None else None for h in self.heads]
        return server

    def async_client_fn(self, ctx: AsyncRoundContext, base) -> Callable:
        """The cascade work unit.

        A pure function of (round base, the client's shard and planned
        span, a counter-derived RNG): restores the trainable suffix onto
        the global model, runs adversarial cascade training on the
        assigned span, and returns the trained segment + head states.
        Trains the live model (which :meth:`async_finalize` returns to a
        server state): rounds never overlap, so ``_async_workspace`` would
        only add a model replica.
        """
        cfg = self.config
        m = self.current_module
        self._enter_stage(m)
        start_atom = self.partition[m][0]
        num_atoms = len(self.global_model.atoms)
        round_idx = ctx.round_idx
        lr_t = self.lr_at(round_idx)
        span_of = ctx.extra["span_of"]
        head_states = base["heads"]
        model = self.global_model

        def train_client(item):
            client, _dev = item
            mk = span_of[client.cid]
            restore_segment(model, base, start_atom, num_atoms)
            head = self.heads[mk]
            if head is not None:
                head.load_state_dict(head_states[mk])
            stop_atom = self.partition[mk][1]
            spec = CascadeBatchSpec(
                start_atom=start_atom, stop_atom=stop_atom, head=head
            )
            cascade_local_train(
                model,
                spec,
                client.dataset,
                iterations=cfg.local_iters,
                batch_size=cfg.batch_size,
                lr=lr_t,
                mu=cfg.mu,
                eps0=cfg.eps0,
                eps_feature=self.eps_feature,
                attack_steps=cfg.attack_steps_features if m > 0 else cfg.train_pgd_steps,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
                rng=self._client_rng(round_idx, client.cid),
                prefix_cache=self.prefix_cache,
                cache_key=client.cid,
            )
            # The segment state stays first: update poisoning walks the
            # tuple structurally and lies about its first state dict.
            seg_state = snapshot_segment(model, start_atom, stop_atom)
            return seg_state, head.state_dict() if head is not None else None

        return train_client

    def async_merge_event(
        self, server, ctx: AsyncRoundContext, members, updates, staleness
    ) -> float:
        """Partial-average one event into the server state (Eq. 16/17).

        Each module span averages over the event members that trained it
        and blends in at its own staleness-attenuated rate; one staleness-0
        event carrying the whole round applies every rate at exactly 1 —
        the synchronous Eq. 16/17 aggregation.
        """
        plan = ctx.extra
        # Fresh head dicts per event: the shallow round base shares the old ones.
        heads = server["heads"] = [
            dict(h) if h is not None else None for h in server["heads"]
        ]
        return merge_async_partial(
            self.global_model,
            self.partition,
            self.current_module,
            server,
            heads,
            updates,
            [plan["span_of"][ctx.clients[i].cid] for i in members],
            [ctx.weights[i] for i in members],
            plan["module_weights"],
            plan["head_weights"],
            staleness=staleness,
            average_fn=self._module_average_fn(),
        )

    def async_finalize(self, server) -> None:
        """Install a round server state (the merged one, or an aborted round's
        base); untrained spans and heads kept their round-start values in it."""
        start_atom = self.partition[self.current_module][0]
        restore_segment(
            self.global_model, server, start_atom, len(self.global_model.atoms)
        )
        for head, state in zip(self.heads, server["heads"]):
            if head is not None:
                head.load_state_dict(state)

    def _module_average_fn(self) -> Optional[Callable]:
        """The per-module robust-aggregation hook (None = plain average).

        Routes every Eq. 16 module merge through :meth:`robust_aggregate`
        under a non-default ``aggregation_rule``; heads keep the plain Eq. 17
        average (``M_k == n`` cohorts are too small for robust statistics).
        """
        if self.config.aggregation_rule == "fedavg":
            return None
        return lambda states, weights, keys, base: self.robust_aggregate(
            states, weights, keys=keys, base=base
        )

    def _client_cost(
        self, state: Optional[DeviceState], module_a: int, module_b: int
    ) -> LocalTrainingCost:
        """Latency of one client's round: prefix forward + PGD-AT on the span."""
        if state is None:
            return LocalTrainingCost(0.0, 0.0)
        cfg = self.config
        seg = self.cost_table.cost(module_a, module_b)
        start_atom = self.partition[module_a][0]
        prefix_fwd = self._prefix_flops[start_atom]
        n_attack = cfg.attack_steps_features if module_a > 0 else cfg.train_pgd_steps
        per_iter = cfg.batch_size * (
            prefix_fwd + (n_attack + 1) * (1 + BACKWARD_MULTIPLIER) * seg.flops_fwd
        )
        return self.latency_model.local_training_cost(
            state,
            training_flops=per_iter,
            mem_req_bytes=seg.mem_bytes,
            iterations=cfg.local_iters,
            pgd_steps=n_attack,
        )

    # -- Algorithm 2's outer loop: stage state the run loop advances ----------
    def _begin_stage(self) -> None:
        self._stage_rounds = 0
        self._best_metric = -np.inf
        self._stale = 0
        self._last_eval = EvalResult(clean_acc=0.0, pgd_acc=0.0)

    def round_eval(self, record: RoundRecord, server=None):
        """Validate the cascaded prefix — every round: it drives APA and patience."""
        cfg = self.config
        m = self.current_module
        record.eval = self._last_eval = self.cascade_eval(m)
        if m > 0 and cfg.use_apa:
            self.eps_feature = self.apa.update(
                record.eval.clean_acc, record.eval.pgd_acc
            )
        dim = self.global_model.feature_size(self.partition[m][0] - 1)
        self.pert_log.append(
            PerturbationLogEntry(
                round=record.round,
                module=m,
                eps=self.eps_feature if m > 0 else cfg.eps0,
                eps_per_dim=self.eps_feature / np.sqrt(dim) if m > 0 else cfg.eps0,
            )
        )
        return {"module": m}

    def after_round(self, record: RoundRecord) -> None:
        """Count the round against the stage; fix the module when it converged."""
        cfg = self.config
        self._stage_rounds += 1
        if not record.aborted:
            # (An aborted round burns budget but not the staleness counter.)
            last = self._last_eval
            metric = 0.5 * (last.clean_acc + (last.pgd_acc or 0.0))
            if metric > self._best_metric + 1e-6:
                self._best_metric, self._stale = metric, 0
            else:
                self._stale += 1
        if self._stale < cfg.patience and self._stage_rounds < cfg.rounds_per_module:
            return
        # Fix module m: record ε*, C*, A*; the measured magnitude seeds APA
        # for module m+1.
        last = self._last_eval
        self._record_stage()
        self.current_module += 1
        self._begin_stage()
        if not self.run_finished():
            self.apa.start_module(
                self.eps_star[-1], last.clean_acc, max(last.pgd_acc or 0.0, 1e-3)
            )
            self.eps_feature = self.apa.epsilon

    def run_finished(self) -> bool:
        return self.current_module >= len(self.partition)

    def finish_run(self) -> None:
        """A budget that ends mid-stage still reports that stage's ε* — after
        the last checkpoint, so a resume continues the stage, not a closed one."""
        if self._stage_rounds:
            self._record_stage()

    def _record_stage(self) -> None:
        m, last = self.current_module, self._last_eval
        self.eps_star.append(self._collect_output_perturbation(m))
        self.stage_results.append(
            ModuleStageResult(
                module=m,
                rounds=self._stage_rounds,
                final_clean_acc=last.clean_acc,
                final_adv_acc=last.pgd_acc or 0.0,
                eps_star=self.eps_star[-1],
            )
        )

    def checkpoint_state(self) -> Dict[str, Any]:
        state = {name: getattr(self, name) for name in self._STAGE_STATE}
        state["heads"] = [h.state_dict() if h is not None else None for h in self.heads]
        return state

    def load_checkpoint_state(self, state: Dict[str, Any]) -> None:
        for name in self._STAGE_STATE:
            setattr(self, name, state[name])
        for head, head_state in zip(self.heads, state["heads"]):
            if head is not None:
                head.load_state_dict(head_state)

    def _collect_output_perturbation(self, module_idx: int) -> float:
        """Average over sampled clients of max ‖Δz_m‖ (seeds ε_m, Eq. 11).

        Reads only the just-trained module's weights, its aux head and the
        stage-end ``eps_feature``, and draws from a self-contained RNG
        stream derived from (seed, module) alone.
        """
        cfg = self.config
        start, stop = self.partition[module_idx]
        rng = np.random.default_rng(cfg.seed + 41 + module_idx)
        ids = rng.choice(
            cfg.num_clients, size=min(cfg.clients_per_round, cfg.num_clients), replace=False
        )
        values = [
            measure_output_perturbation(
                self.global_model,
                start,
                stop,
                self.heads[module_idx],
                self.clients[cid].dataset,
                mu=cfg.mu,
                eps0=cfg.eps0,
                eps_feature=self.eps_feature,
                attack_steps=max(1, cfg.attack_steps_features // 2),
                batch_size=cfg.batch_size,
                rng=rng,
            )
            for cid in ids
        ]
        return float(np.mean(values))
