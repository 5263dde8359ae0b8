"""FedRBN (Hong et al., 2023): federated robustness propagation.

All clients train the *same* full model (no objective inconsistency), but
only memory-sufficient clients can afford adversarial training; the rest
do standard training.  Robustness is "propagated" by sharing the
adversarial batch-norm statistics of the AT clients with everyone, via
:class:`~repro.nn.normalization.DualBatchNorm2d`.

The paper finds FedRBN keeps high clean accuracy (homogeneous models) but
weak robustness under high systematic heterogeneity, because few clients
ever run AT — our reproduction preserves exactly that mechanism.

Asynchronous aggregation (``aggregation_mode="async"``) uses a
**staleness-aware dual-BN propagation rule**: a merge event at staleness
*s* attenuates its running-statistics updates by the same ``1/(1+s)``
FedAsync factor as the weights, but clean and adversarial batch-norm
statistics blend *separately* — clean stats toward the event average of
every member, adversarial stats toward the event average of the members
that actually ran adversarial training (weighted against the round's
total AT data).  The synchronous round *is* that rule with a single
``s=0`` event (the base class's barrier round): both rates are
exactly 1, so clean statistics become the cohort average and adversarial
statistics the AT clients' average — or stay put when nobody ran AT.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.attacks import ModelWithLoss, PGDConfig
from repro.attacks.pgd import cohort_pgd_attack
from repro.core.aggregator import blend_into
from repro.data.dataset import ArrayDataset
from repro.flsim.aggregation import AggregationError, weighted_average_states
from repro.flsim.base import AsyncRoundContext, FederatedExperiment, FLClient, FLConfig
from repro.flsim.executor import CohortFn
from repro.flsim.local import cohort_batches, cohort_standard_local_train
from repro.nn.cohort import CohortCrossEntropyLoss, train_cohort
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.metrics.evaluation import EvalPlan, EvalResult
from repro.models.atoms import CascadeModel
from repro.nn.normalization import DualBatchNorm2d, set_dual_bn_mode
from repro.optim.sgd import SGD


class FedRBN(FederatedExperiment):
    """Robustness propagation via dual BN statistics.

    The ``model_builder`` must produce models whose batch-norm layers are
    :class:`DualBatchNorm2d` (pass ``bn_cls=DualBatchNorm2d`` to the zoo
    builders); the constructor verifies this.
    """

    name = "fedrbn"

    def __init__(
        self,
        task,
        model_builder: Callable[[np.random.Generator], CascadeModel],
        config: FLConfig,
        device_sampler: Optional[DeviceSampler] = None,
        latency_model: Optional[LatencyModel] = None,
    ):
        super().__init__(task, model_builder, config, device_sampler, latency_model)
        if not any(isinstance(m, DualBatchNorm2d) for m in self.global_model.modules()):
            raise ValueError(
                "FedRBN requires a model with DualBatchNorm2d layers; build it "
                "with bn_cls=DualBatchNorm2d"
            )
        _, self.mem_req, self._at_cost = self._model_costs(self.global_model)
        self._st_cost = self._model_costs(self.global_model, pgd_steps=0)[2]
        self._adv_stat_keys = [
            name
            for name, _ in self.global_model.named_buffers()
            if name.endswith("_adv")
        ]

    def can_afford_at(self, state: Optional[DeviceState]) -> bool:
        if state is None:
            return True
        return state.avail_mem_bytes >= self.mem_req

    def _cohort_dual_adversarial_train(
        self,
        model,
        clients: List[FLClient],
        lr: float,
        rngs: List[np.random.Generator],
    ) -> None:
        """K ≥ 1 AT clients: a clean pass updates clean BN stats, an
        adversarial pass adversarial BN stats; both contribute to the SGD step.

        The adversarial/clean gradient halving operates on each parameter's
        ``stacked_grad()`` (elementwise over the K slices; a lone client's
        ``grad``), and the dual-BN mode switch routes running-statistic
        updates to the matching buffers — each client's slice is
        bit-identical to its lone dual pass.
        """
        cfg = self.config
        k = len(clients)
        model.train()
        opt = SGD(
            model.parameters(), lr=lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        )
        ce = CohortCrossEntropyLoss(k)
        mwl = ModelWithLoss(model, k=k)
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        batches = cohort_batches([client.dataset for client in clients], cfg.batch_size, rngs)
        for _ in range(cfg.local_iters):
            x, y = next(batches)
            set_dual_bn_mode(model, adversarial=True)
            x_adv = cohort_pgd_attack(mwl, x, y, pgd, rngs)
            opt.zero_grad()
            ce(model(x_adv), y)
            model.backward(ce.backward())
            adv_grads = [p.stacked_grad().copy() for p in model.parameters()]
            set_dual_bn_mode(model, adversarial=False)
            opt.zero_grad()
            ce(model(x), y)
            model.backward(ce.backward())
            for p, g in zip(model.parameters(), adv_grads):
                grad = p.stacked_grad()
                grad += g
                grad *= 0.5
            opt.step()

    def _fuse_key(self, item):
        """Fusion key: aligned batch schedule + the same AT/standard branch."""
        client, dev = item
        n = client.num_samples
        return (n, min(self.config.batch_size, n), self.can_afford_at(dev))

    # -- aggregation hooks ---------------------------------------------------
    def async_client_fn(self, ctx: AsyncRoundContext, base_state) -> Callable:
        cfg, round_idx = self.config, ctx.round_idx
        lr_t = self.lr_at(round_idx)

        def train(items):
            # The fusion key guarantees every member shares the AT/standard
            # branch (and the batch schedule), so one branch decision covers
            # the cohort.
            clients = [client for client, _dev in items]
            rngs = [self._client_rng(round_idx, client.cid) for client in clients]
            if self.can_afford_at(items[0][1]):
                def local_train(model):
                    self._cohort_dual_adversarial_train(model, clients, lr_t, rngs)
            else:
                def local_train(model):
                    set_dual_bn_mode(model, adversarial=False)
                    cohort_standard_local_train(
                        model,
                        [client.dataset for client in clients],
                        iterations=cfg.local_iters,
                        batch_size=cfg.batch_size,
                        lr=lr_t,
                        momentum=cfg.momentum,
                        weight_decay=cfg.weight_decay,
                        rngs=rngs,
                    )
            return train_cohort(
                self._async_workspace(), len(items), local_train, base=base_state
            )

        return CohortFn(train, group_key=self._fuse_key)

    def async_round_context(self, round_idx, clients, states) -> AsyncRoundContext:
        """Costs, plus which sampled clients can afford AT and their total
        data weight (``extra``).

        Pure functions of the device states, computed before training so
        the dual-BN merge rule can weight adversarial statistics without
        peeking at training output.
        """
        at = [self.can_afford_at(dev) for dev in states]
        at_weight = float(
            sum(float(c.num_samples) for c, is_at in zip(clients, at) if is_at)
        )
        return AsyncRoundContext(
            round_idx, clients, states,
            [self._cost(dev, is_at) for dev, is_at in zip(states, at)],
            extra={"at": at, "at_weight": at_weight},
        )

    def async_merge_event(self, server, ctx, members, updates, staleness) -> float:
        """Staleness-aware dual-BN propagation (the async FedRBN rule).

        Weights and *clean* running statistics blend exactly like
        FedAsync — the event average of every member, attenuated by
        ``1/(1+s)``.  *Adversarial* running statistics blend separately,
        toward the event average of the members that actually ran AT,
        with their own rate ``(event AT weight / round AT weight) /
        (1+s)`` — robustness still propagates only from AT clients, and a
        stale event moves the shared adversarial statistics no faster
        than it moves the weights.  Events without AT members leave the
        adversarial statistics untouched.
        """
        updates = list(updates)
        weights = [ctx.weights[i] for i in members]
        adv_keys = set(self._adv_stat_keys)
        plain_keys = [k for k in server if k not in adv_keys]
        if ctx.round_weight <= 0:
            raise AggregationError("round weight must be positive")
        merged = self.robust_aggregate(
            updates, weights, keys=plain_keys, base=server
        )
        alpha = blend_into(
            server, merged, (float(sum(weights)) / ctx.round_weight) / (1.0 + staleness)
        )
        at_flags = ctx.extra["at"]
        at_round_weight = ctx.extra["at_weight"]
        position = {i: j for j, i in enumerate(members)}
        at_members = [i for i in members if at_flags[i]]
        if at_members and at_round_weight > 0:
            at_states = [updates[position[i]] for i in at_members]
            at_weights = [ctx.weights[i] for i in at_members]
            merged = weighted_average_states(
                at_states, at_weights, keys=self._adv_stat_keys
            )
            alpha_adv = (float(sum(at_weights)) / at_round_weight) / (
                1.0 + staleness
            )
            blend_into(server, merged, alpha_adv)
        return alpha

    def _cost(self, state: Optional[DeviceState], is_at: bool) -> LocalTrainingCost:
        return (self._at_cost if is_at else self._st_cost)(state)

    def run_eval(self, plan: EvalPlan, dataset: Optional[ArrayDataset] = None) -> EvalResult:
        """Evaluate with the propagated *adversarial* BN statistics: the dual-BN
        switch is a module attribute, not part of the state dict, so it is set
        on the global model before every plan (``evaluate`` and ``final_eval``
        submit theirs here)."""
        set_dual_bn_mode(self.global_model, adversarial=True)
        return super().run_eval(plan, dataset)
