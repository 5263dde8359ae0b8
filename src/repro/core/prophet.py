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

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.attacks import ModelWithLoss
from repro.core.aggregator import (
    aggregate_heads,
    aggregate_modules,
    async_merge_schedule,
    merge_async_partial,
    publish_snapshot,
    restore_segment,
    snapshot_segment,
)
from repro.core.apa import AdaptivePerturbationAdjustment
from repro.core.cascade import (
    CascadeBatchSpec,
    cascade_local_train,
    measure_output_perturbation,
)
from repro.core.config import FedProphetConfig
from repro.core.dma import SegmentCostTable, assign_modules
from repro.core.partitioner import full_model_mem_bytes, partition_model
from repro.core.prefix_cache import PrefixCache
from repro.flsim.base import AsyncMergeEvent, FederatedExperiment, FLClient, RoundRecord
from repro.flsim.eval_executor import EvalTarget
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.flops import BACKWARD_MULTIPLIER
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.hardware.profile import profile_module
from repro.metrics.evaluation import AttackSpec, EvalPlan, EvalResult
from repro.models.atoms import CascadeModel
from repro.nn.grad_mode import attack_grad_scope
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
    """Memory-efficient FAT via robust and consistent cascade learning."""

    name = "fedprophet"
    # cascade_eval feeds APA's epsilon schedule and the per-module
    # early-stop each round, so evaluation sits on the algorithm's
    # critical path and cannot be overlapped with the next round.
    supports_overlap_eval = False
    # Asynchronous aggregation is *within-round*: client updates merge
    # per module span (Eq. 16 partial averages, staleness-attenuated) in
    # simulated-arrival order as they land.  Rounds themselves cannot
    # overlap — cascade_eval gates every boundary — so the cross-round
    # pipeline (pipeline_depth > 1) is rejected at construction.
    supports_async_aggregation = True
    supports_cross_round_pipeline = False

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

        head_rng = np.random.default_rng(config.seed + 21)
        num_atoms = len(self.global_model.atoms)
        self.heads: List[Optional[AuxHead]] = []
        for start, stop in self.partition.ranges:
            if stop < num_atoms:
                shape = self.global_model.feature_shape(stop - 1)
                self.heads.append(AuxHead(shape, task.num_classes, rng=head_rng))
            else:
                self.heads.append(None)

        self.apa = AdaptivePerturbationAdjustment(
            gamma=config.gamma,
            delta_alpha=config.delta_alpha,
            alpha_init=config.alpha_init,
            alpha_min=config.alpha_min,
            alpha_max=config.alpha_max,
            enabled=config.use_apa,
        )
        self.current_module = 0
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
        # Stage-scoped bookkeeping: the frozen prefix only changes when the
        # training stage advances to a new module, so both the activation
        # cache and the thread workers' full-model syncs are keyed on this
        # version rather than refreshed every round.
        self._stage_module: Optional[int] = None
        self._prefix_version = 0
        self._replica_synced: dict = {}
        self._slot_head_lists: dict = {}
        self.eps_feature = 0.0  # ε_{m-1}; unused for module 0 (raw-input ℓ∞)
        self.eps_star: List[float] = []  # fixed ε*_{m-1} per completed module
        self.stage_results: List[ModuleStageResult] = []
        # Stage-end ε* probe, overlapped with the next stage's planning on
        # a pooled executor: (module, group-or-value, stage_rounds, eval).
        self._pending_probe = None
        self._probe_model: Optional[CascadeModel] = None
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

        def target(slot: int) -> EvalTarget:
            model = self._slot_model(slot)
            slot_head = self._slot_heads(slot)[module_idx]
            mwl = ModelWithLoss(model.segment(0, stop), head=slot_head)
            if not use_cache:
                return EvalTarget(mwl)

            def prefix_forward(xb: np.ndarray, _model=model) -> np.ndarray:
                with attack_grad_scope():
                    return _model.forward_until(xb, prefix_len)

            return EvalTarget(
                mwl,
                prefix_forward=prefix_forward,
                suffix_mwl=ModelWithLoss(
                    model.segment(prefix_len, stop), head=slot_head
                ),
            )

        state: dict = {}

        def prepare(slot: int) -> None:
            if slot == 0:
                return
            if "model" not in state:
                # The evaluated chain reads atoms [0, stop) only, so ship a
                # segment-scoped snapshot instead of the full state dict —
                # the untrained suffix beyond `stop` never runs here.
                state["model"] = snapshot_segment(self.global_model, 0, stop)
                state["head"] = head.state_dict() if head is not None else None
            restore_segment(self._slot_model(slot), state["model"], 0, stop)
            if state["head"] is not None:
                self._slot_heads(slot)[module_idx].load_state_dict(state["head"])

        return self.eval_executor.run(
            plan,
            self.val_set,
            target,
            prepare_slot=prepare,
            prefix_cache=self.prefix_cache if use_cache else None,
            cache_key=("val", prefix_len) if use_cache else None,
        )

    # -- executor workspaces ---------------------------------------------------
    def _enter_stage(self, m: int) -> None:
        """Note a module-stage (prefix) change; bump cache + replica versions.

        During a stage, aggregation only rewrites atoms at or after the
        current module, so the frozen prefix — and everything keyed on it —
        stays valid across all of the stage's rounds.
        """
        if self._stage_module != m:
            self._stage_module = m
            self._prefix_version += 1
            if self.prefix_cache is not None:
                self.prefix_cache.bump_version()

    def _slot_heads(self, slot: int) -> List[Optional[AuxHead]]:
        """Per-slot auxiliary-head workspaces (slot 0: the global heads)."""
        if slot == 0:
            return self.heads
        heads = self._slot_head_lists.get(slot)
        if heads is None:
            rng = np.random.default_rng(self.config.seed + 21)
            num_atoms = len(self.global_model.atoms)
            heads = []
            for start, stop in self.partition.ranges:
                if stop < num_atoms:
                    shape = self.global_model.feature_shape(stop - 1)
                    heads.append(AuxHead(shape, self.task.num_classes, rng=rng))
                else:
                    heads.append(None)
            self._slot_head_lists[slot] = heads
        return heads

    def _sync_workspaces(self, num_items: int) -> None:
        """Bring thread-worker model replicas up to the current prefix.

        A replica's trainable suffix is restored from the round snapshot
        before every client, so only the frozen prefix can go stale — and
        it only changes at stage boundaries.  One full state sync per
        replica per *stage*, done before the parallel region so no worker
        reads the global model while another mutates it.
        """
        full_state = None
        for slot in self.executor.slots_for(num_items):
            if slot == 0 or self._replica_synced.get(slot) == self._prefix_version:
                continue
            if full_state is None:
                full_state = self.global_model.state_dict()
            self._slot_model(slot).load_state_dict(full_state)
            self._replica_synced[slot] = self._prefix_version

    # -- one communication round -----------------------------------------------
    def _stage_train_fn(
        self,
        round_idx: int,
        m: int,
        seg_snapshot,
        head_states,
        forked: bool,
        export_cache: bool,
    ) -> Callable:
        """The slot-aware cascade work unit shared by sync and async rounds.

        A pure function of (round snapshot, head states, the client's
        shard and module span, a counter-derived RNG): restores the
        trainable suffix onto the slot workspace, runs adversarial
        cascade training on the assigned span, and returns the trained
        segment + head states (plus prefix-cache exports on forked
        backends).  Bit-identical on every backend and worker count.
        """
        cfg = self.config
        start_atom = self.partition[m][0]
        num_atoms = len(self.global_model.atoms)
        lr_t = self.lr_at(round_idx)

        def train_client(item, slot):
            client, dev_state, mk = item
            if forked:
                hits0, misses0 = self.prefix_cache.hits, self.prefix_cache.misses
            model = self._slot_model(slot)
            heads = self._slot_heads(slot)
            restore_segment(model, seg_snapshot, start_atom, num_atoms)
            head = heads[mk]
            if head is not None:
                head.load_state_dict(head_states[mk])
            stop_atom = self.partition[mk][1]
            spec = CascadeBatchSpec(
                start_atom=start_atom, stop_atom=stop_atom, head=head
            )
            client_rng = self._client_rng(round_idx, client.cid)
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
                rng=client_rng,
                prefix_cache=self.prefix_cache,
                cache_key=client.cid,
            )
            seg_state = snapshot_segment(model, start_atom, stop_atom)
            head_state = head.state_dict() if head is not None else None
            cache_key = (client.cid, start_atom)
            cache_entry = (
                self.prefix_cache.export_entry(cache_key) if export_cache else None
            )
            counters = (
                (self.prefix_cache.hits - hits0, self.prefix_cache.misses - misses0)
                if forked
                else None
            )
            cost = self._client_cost(dev_state, m, mk)
            return seg_state, head_state, cost, cache_key, cache_entry, counters

        return train_client

    def run_round(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> List[LocalTrainingCost]:
        m = self.current_module
        cfg = self.config
        self._enter_stage(m)
        assignments = assign_modules(self.cost_table, m, states, enabled=cfg.use_dma)
        start_atom = self.partition[m][0]
        num_atoms = len(self.global_model.atoms)

        # Segment-scoped round snapshot: only atoms of modules >= m and the
        # heads can be trained, so the frozen prefix is never copied and
        # each work unit restores just the trainable suffix.
        seg_snapshot = snapshot_segment(self.global_model, start_atom, num_atoms)
        head_states = [h.state_dict() if h is not None else None for h in self.heads]
        # Forked workers fill private copies of the activation cache; ship
        # their entries (and hit/miss counter deltas) back so next round's
        # forks inherit a warm cache and stats() covers child-side lookups.
        forked = self.executor.forks_for(len(clients)) and self.prefix_cache is not None
        export_cache = forked and start_atom > 0
        self._sync_workspaces(len(clients))
        train_client = self._threat_wrap(
            round_idx,
            self._stage_train_fn(
                round_idx, m, seg_snapshot, head_states, forked, export_cache
            ),
            seg_snapshot,
        )
        if cfg.aggregation_mode == "async":
            return self._run_round_async(
                round_idx, clients, states, assignments, seg_snapshot,
                head_states, train_client,
            )

        results = self.scheduler.run_group(
            "train", train_client, list(zip(clients, states, assignments))
        )
        seg_states = [r[0] for r in results]
        client_head_states = [r[1] for r in results]
        costs = [r[2] for r in results]
        weights = [client.num_samples / self.total_samples for client in clients]
        for _, _, _, cache_key, cache_entry, counters in results:
            if cache_entry is not None:
                self.prefix_cache.adopt_entry(cache_key, *cache_entry)
            if counters is not None:
                self.prefix_cache.adopt_counters(*counters)

        # Return the model to the round-start state, then apply aggregation.
        restore_segment(self.global_model, seg_snapshot, start_atom, num_atoms)
        for h, s in zip(self.heads, head_states):
            if h is not None and s is not None:
                h.load_state_dict(s)
        merged = aggregate_modules(
            self.global_model, self.partition, m, seg_states, assignments, weights,
            average_fn=self._module_average_fn(),
        )
        if merged:
            self.global_model.load_state_dict(merged, strict=False)
        aggregate_heads(self.heads, client_head_states, assignments, weights)
        return costs

    def _module_average_fn(self) -> Optional[Callable]:
        """The per-module robust-aggregation hook (None = plain average).

        Routes every Eq. 16 module merge through
        :meth:`robust_aggregate` when a non-default ``aggregation_rule``
        is configured; heads keep the plain Eq. 17 average (their
        ``M_k == n`` trainer cohorts are too small for robust
        statistics).
        """
        if self.config.aggregation_rule == "fedavg":
            return None
        return lambda states, weights, keys, base: self.robust_aggregate(
            states, weights, keys=keys, base=base
        )

    def _run_round_async(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
        assignments: List[int],
        seg_snapshot,
        head_states,
        train_client: Callable,
    ) -> List[LocalTrainingCost]:
        """Within-round asynchronous partial averaging (per-module merges).

        Clients still train from the round-start weights, but their
        updates merge into a *server* copy of the trainable segment (and
        head states) one event at a time, in simulated-arrival order,
        streamed through the scheduler: each event partial-averages
        per module span (Eq. 16) and per head (Eq. 17) over its members
        and blends in with the per-module ``1/(1+s)`` attenuation
        (:func:`repro.core.aggregator.merge_async_partial`).  The merge
        schedule bounds staleness exactly as in the generic engine;
        ``max_staleness=0`` coalesces the round into one event whose
        rates are all exactly 1 — bit-identical to the synchronous
        Eq. 16/17 aggregation.  Deterministic at any backend and worker
        count (arrival order is the latency model's, never wall clock).
        """
        cfg = self.config
        m = self.current_module
        start_atom = self.partition[m][0]
        num_atoms = len(self.global_model.atoms)
        num_modules = len(self.partition)

        costs = [
            self._client_cost(dev, m, mk) for dev, mk in zip(states, assignments)
        ]
        weights = [client.num_samples / self.total_samples for client in clients]
        # Denominators of the per-module (and per-head) mixing rates: the
        # whole round's trainer weight for each span, known before training.
        module_weights = [
            float(sum(w for w, mk in zip(weights, assignments) if mk >= n))
            for n in range(num_modules)
        ]
        head_weights = [
            float(sum(w for w, mk in zip(weights, assignments) if mk == n))
            for n in range(num_modules)
        ]
        order = sorted(range(len(clients)), key=lambda i: (costs[i].total_s, i))
        events = [
            sorted(order[pos] for pos in event)
            for event in async_merge_schedule(len(clients), cfg.max_staleness)
        ]
        server_seg = {k: v.copy() for k, v in seg_snapshot.items()}
        server_heads = [
            {k: v.copy() for k, v in hs.items()} if hs is not None else None
            for hs in head_states
        ]

        group = self.scheduler.submit_group(
            "train", train_client, list(zip(clients, states, assignments))
        )
        landed = [False] * len(clients)
        results: List[Optional[tuple]] = [None] * len(clients)
        next_event = 0
        for idx, result in group.stream():
            results[idx] = result
            landed[idx] = True
            while next_event < len(events) and all(
                landed[i] for i in events[next_event]
            ):
                members = events[next_event]
                alpha = merge_async_partial(
                    self.global_model,
                    self.partition,
                    m,
                    server_seg,
                    server_heads,
                    [results[i][0] for i in members],
                    [results[i][1] for i in members],
                    [assignments[i] for i in members],
                    [weights[i] for i in members],
                    module_weights,
                    head_weights,
                    staleness=next_event,
                    average_fn=self._module_average_fn(),
                )
                self.async_log.append(
                    AsyncMergeEvent(
                        round=round_idx,
                        event=next_event,
                        staleness=next_event,
                        client_ids=tuple(clients[i].cid for i in members),
                        alpha=alpha,
                        base_version=0,
                        sim_time_s=self.clock_s
                        + max(costs[i].total_s for i in members),
                    )
                )
                next_event += 1
        assert next_event == len(events), "async merge schedule did not drain"
        for _, _, _, cache_key, cache_entry, counters in results:
            if cache_entry is not None:
                self.prefix_cache.adopt_entry(cache_key, *cache_entry)
            if counters is not None:
                self.prefix_cache.adopt_counters(*counters)
        # Install the merged server segment and heads (untrained spans kept
        # their round-start values inside the server copies).
        restore_segment(self.global_model, server_seg, start_atom, num_atoms)
        for head, state in zip(self.heads, server_heads):
            if head is not None and state is not None:
                head.load_state_dict(state)
        return costs

    def async_client_costs(self, round_idx, clients, states):
        """Pre-training latency of the current stage under DMA's assignment.

        Pure arithmetic over the device states (``assign_modules`` +
        :meth:`_client_cost`), which is what lets ``client_timeout`` drop
        on it.  For the timeout estimate DMA plans over the *sampled*
        cohort — the server cannot know who will drop.
        """
        m = self.current_module
        assignments = assign_modules(
            self.cost_table, m, states, enabled=self.config.use_dma
        )
        return [
            self._client_cost(dev, m, mk) for dev, mk in zip(states, assignments)
        ]

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

    # -- the Algorithm 2 outer loop ----------------------------------------------
    def run(self, rounds: Optional[int] = None, verbose: bool = False) -> List[RoundRecord]:
        """Journal-wrapped Algorithm 2 (checkpoint/resume is refused at init:
        the cascade loop's module/APA state is not generically resumable)."""
        self._open_journal()
        try:
            records = self._run_cascade(rounds, verbose)
        except BaseException:
            self._abort_cleanup()
            raise
        self._jlog("run_end", rounds=len(records), clock_s=self.clock_s)
        return records

    def _run_cascade(
        self, rounds: Optional[int] = None, verbose: bool = False
    ) -> List[RoundRecord]:
        cfg = self.config
        budget = rounds if rounds is not None else cfg.rounds
        t = 0
        num_modules = len(self.partition)
        prev_clean, prev_adv = 1.0, 1.0  # ratio 1 before any module is fixed

        for m in range(num_modules):
            if t >= budget:
                break
            self.current_module = m
            apa_started = m == 0
            best_metric = -np.inf
            stale = 0
            last_eval = EvalResult(clean_acc=0.0, pgd_acc=0.0)
            stage_rounds = 0

            while stage_rounds < cfg.rounds_per_module and t < budget:
                clients, states = self.sample_round(t)
                if not apa_started:
                    # Resolve the previous stage's in-flight ε* probe here
                    # — after this round's sampling/fault/threat planning,
                    # which the probe overlaps with on a pooled executor —
                    # then seed the APA for this module.  start_module is
                    # pure APA arithmetic and sample_round never reads the
                    # APA state, so the reordering is bit-identical.
                    self._resolve_eps_star()
                    self.apa.start_module(self.eps_star[-1], prev_clean, prev_adv)
                    self.eps_feature = self.apa.epsilon
                    apa_started = True
                if self._fault_aborted():
                    # No training, no module progress metric: the aborted
                    # round burns budget but not the staleness counter.
                    self._finish_aborted_round(t)
                    stage_rounds += 1
                    t += 1
                    continue
                round_costs = self.run_round(t, clients, states)
                self.advance_clock(round_costs)
                self._jlog_agg(t)

                last_eval = self.cascade_eval(m)
                if m > 0 and cfg.use_apa:
                    self.eps_feature = self.apa.update(
                        last_eval.clean_acc, last_eval.pgd_acc
                    )
                dim = self.global_model.feature_size(self.partition[m][0] - 1)
                self.pert_log.append(
                    PerturbationLogEntry(
                        round=t,
                        module=m,
                        eps=self.eps_feature if m > 0 else cfg.eps0,
                        eps_per_dim=(
                            self.eps_feature / np.sqrt(dim) if m > 0 else cfg.eps0
                        ),
                    )
                )
                self.history.append(
                    RoundRecord(
                        round=t,
                        sim_time_s=self.clock_s,
                        compute_s=self.total_compute_s,
                        access_s=self.total_access_s,
                        eval=last_eval,
                    )
                )
                self._jlog(
                    "round",
                    round=t,
                    module=m,
                    sim_time_s=self.clock_s,
                    compute_s=self.total_compute_s,
                    access_s=self.total_access_s,
                    aborted=False,
                )
                self._journal_eval(self.history[-1])
                if verbose:  # pragma: no cover - console reporting
                    print(
                        f"[fedprophet] module {m + 1}/{num_modules} round {t}: "
                        f"clean={last_eval.clean_acc:.3f} adv={last_eval.pgd_acc:.3f} "
                        f"eps={self.eps_feature:.3f}"
                    )

                metric = 0.5 * (last_eval.clean_acc + (last_eval.pgd_acc or 0.0))
                if metric > best_metric + 1e-6:
                    best_metric = metric
                    stale = 0
                else:
                    stale += 1
                stage_rounds += 1
                t += 1
                if stale >= cfg.patience:
                    break

            # Fix module m: record ε*, C*, A*; measure base magnitude for m+1.
            prev_clean, prev_adv = last_eval.clean_acc, max(last_eval.pgd_acc or 0.0, 1e-3)
            self._submit_eps_probe(m, stage_rounds, last_eval)
        self._resolve_eps_star()
        return self.history

    def _submit_eps_probe(self, module_idx: int, stage_rounds: int, last_eval) -> None:
        """Launch the stage-end ε* probe without blocking the round loop.

        The probe reads only *fixed* state — the just-completed module's
        weights (frozen from here on), its aux head, and the stage-end
        ``eps_feature`` — and draws from a self-contained RNG stream
        (``seed + 41 + module``), so it is a pure function of the
        published snapshot: its result cannot depend on when or where it
        runs.  On a pooled executor it is submitted as a single-task
        scheduler group over a :func:`publish_snapshot` of the stage
        weights and a private head copy, running on an idle worker while
        the main thread plans the next stage; elsewhere it runs inline.
        :meth:`_resolve_eps_star` gathers it at the next consumption
        point (APA seeding, or the end of the cascade).
        """
        if not self.executor.pooled:
            self._pending_probe = (
                module_idx,
                self._collect_output_perturbation(module_idx),
                stage_rounds,
                last_eval,
            )
            return
        published = publish_snapshot(self.global_model, version=module_idx)
        head = copy.deepcopy(self.heads[module_idx])
        eps_feature = self.eps_feature

        def probe(_item, _slot):
            model = self._probe_model
            if model is None:
                model = self.model_builder(np.random.default_rng(self.config.seed + 7))
                self._probe_model = model
            model.load_state_dict(dict(published.state))
            return self._collect_output_perturbation(
                module_idx, model=model, head=head, eps_feature=eps_feature
            )

        group = self.scheduler.submit_group("eps_probe", probe, [module_idx])
        self._pending_probe = (module_idx, group, stage_rounds, last_eval)

    def _resolve_eps_star(self) -> None:
        """Gather the in-flight stage-end probe (if any): record ε* + stage."""
        pending = self._pending_probe
        if pending is None:
            return
        self._pending_probe = None
        module_idx, value, stage_rounds, last_eval = pending
        eps_star = float(value if isinstance(value, float) else value.results()[0])
        self.eps_star.append(eps_star)
        self.stage_results.append(
            ModuleStageResult(
                module=module_idx,
                rounds=stage_rounds,
                final_clean_acc=last_eval.clean_acc,
                final_adv_acc=last_eval.pgd_acc or 0.0,
                eps_star=eps_star,
            )
        )

    def _collect_output_perturbation(
        self,
        module_idx: int,
        model: Optional[CascadeModel] = None,
        head: Optional[AuxHead] = None,
        eps_feature: Optional[float] = None,
    ) -> float:
        """Average over sampled clients of max ‖Δz_m‖ (seeds ε_m, Eq. 11).

        ``model``/``head``/``eps_feature`` let the overlapped probe run
        against a frozen snapshot replica instead of the live objects;
        the RNG stream is derived from (seed, module) alone either way,
        so the value is independent of which copy it reads.
        """
        cfg = self.config
        if model is None:
            model = self.global_model
        if head is None:
            head = self.heads[module_idx]
        if eps_feature is None:
            eps_feature = self.eps_feature
        start, stop = self.partition[module_idx]
        rng = np.random.default_rng(cfg.seed + 41 + module_idx)
        ids = rng.choice(
            cfg.num_clients, size=min(cfg.clients_per_round, cfg.num_clients), replace=False
        )
        values = []
        for cid in ids:
            values.append(
                measure_output_perturbation(
                    model,
                    start,
                    stop,
                    head,
                    self.clients[cid].dataset,
                    mu=cfg.mu,
                    eps0=cfg.eps0,
                    eps_feature=eps_feature,
                    attack_steps=max(1, cfg.attack_steps_features // 2),
                    batch_size=cfg.batch_size,
                    rng=rng,
                )
            )
        return float(np.mean(values))
