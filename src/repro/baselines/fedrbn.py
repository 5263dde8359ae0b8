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

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.attacks import ModelWithLoss, PGDConfig, pgd_attack
from repro.attacks.base import CohortModelWithLoss
from repro.attacks.pgd import cohort_pgd_attack
from repro.core.aggregator import (
    blend_into,
    restore_segment,
    snapshot_segment,
)
from repro.data.dataset import DataLoader
from repro.flsim.aggregation import AggregationError, weighted_average_states
from repro.flsim.base import FederatedExperiment, FLClient, FLConfig
from repro.flsim.executor import CohortFn
from repro.flsim.local import cohort_standard_local_train, standard_local_train
from repro.nn.cohort import (
    CohortCrossEntropyLoss,
    clear_cohort,
    extract_cohort,
    install_cohort,
)
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.models.atoms import CascadeModel
from repro.nn.losses import CrossEntropyLoss
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

    def _dual_adversarial_train(
        self, model, client: FLClient, lr: float, rng: np.random.Generator
    ) -> None:
        """AT client: clean pass updates clean BN stats, adversarial pass
        updates adversarial BN stats; both contribute to the SGD step."""
        cfg = self.config
        model.train()
        opt = SGD(
            model.parameters(), lr=lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        )
        ce = CrossEntropyLoss()
        mwl = ModelWithLoss(model)
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        loader = DataLoader(
            client.dataset,
            batch_size=min(cfg.batch_size, client.num_samples),
            shuffle=True,
            rng=rng,
        )
        batches = loader.infinite()
        for _ in range(cfg.local_iters):
            x, y = next(batches)
            set_dual_bn_mode(model, adversarial=True)
            x_adv = pgd_attack(mwl, x, y, pgd, rng=rng)
            opt.zero_grad()
            ce(model(x_adv), y)
            model.backward(ce.backward())
            adv_grads = [p.grad.copy() for p in model.parameters()]
            set_dual_bn_mode(model, adversarial=False)
            opt.zero_grad()
            ce(model(x), y)
            model.backward(ce.backward())
            for p, g in zip(model.parameters(), adv_grads):
                p.grad += g
                p.grad *= 0.5
            opt.step()

    def _cohort_dual_adversarial_train(
        self,
        model,
        clients: List[FLClient],
        lr: float,
        rngs: List[np.random.Generator],
    ) -> None:
        """K fused AT clients' :meth:`_dual_adversarial_train`, stacked.

        The adversarial/clean gradient halving operates on the per-client
        ``slab_grad`` (elementwise over the K slices), and the dual-BN
        mode switch routes running-statistic updates to the matching slab
        buffers — each client's slice is bit-identical to its serial dual
        pass.
        """
        cfg = self.config
        k = len(clients)
        model.train()
        opt = SGD(
            model.parameters(), lr=lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        )
        ce = CohortCrossEntropyLoss(k)
        mwl = CohortModelWithLoss(model, k)
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        loaders = [
            DataLoader(
                client.dataset,
                batch_size=min(cfg.batch_size, client.num_samples),
                shuffle=True,
                rng=rng,
            ).infinite()
            for client, rng in zip(clients, rngs)
        ]
        for _ in range(cfg.local_iters):
            batches = [next(it) for it in loaders]
            x = np.concatenate([b[0] for b in batches])
            y = np.concatenate([b[1] for b in batches])
            set_dual_bn_mode(model, adversarial=True)
            x_adv = cohort_pgd_attack(mwl, x, y, pgd, rngs)
            opt.zero_grad()
            ce(model(x_adv), y)
            model.backward(ce.backward())
            adv_grads = [p.slab_grad.copy() for p in model.parameters()]
            set_dual_bn_mode(model, adversarial=False)
            opt.zero_grad()
            ce(model(x), y)
            model.backward(ce.backward())
            for p, g in zip(model.parameters(), adv_grads):
                p.slab_grad += g
                p.slab_grad *= 0.5
            opt.step()

    def _cohort_train_many(
        self,
        model,
        items: List,
        base_state: Dict[str, np.ndarray],
        lr_t: float,
        round_idx: int,
    ) -> List[Dict[str, np.ndarray]]:
        """Train a fused cohort on ``model``; returns per-client states.

        The fusion key guarantees every member shares the AT/standard
        branch (and the batch schedule), so one branch decision covers
        the cohort.
        """
        cfg = self.config
        clients = [client for client, _dev in items]
        rngs = [self._client_rng(round_idx, client.cid) for client in clients]
        is_at = self.can_afford_at(items[0][1])
        try:
            install_cohort(model, [base_state] * len(items))
            if is_at:
                self._cohort_dual_adversarial_train(model, clients, lr_t, rngs)
            else:
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
            return extract_cohort(model)
        finally:
            clear_cohort(model)

    def _fuse_key(self, item):
        """Fusion key: aligned batch schedule + the same AT/standard branch."""
        client, dev = item
        n = client.num_samples
        return (n, min(self.config.batch_size, n), self.can_afford_at(dev))

    def _train_one(
        self,
        model,
        client: FLClient,
        dev: Optional[DeviceState],
        lr_t: float,
        rng: np.random.Generator,
    ) -> None:
        """Train one client on ``model`` in place (AT if its device affords it).

        Pure function of (model state, client shard, device state, rng).
        """
        if self.can_afford_at(dev):
            self._dual_adversarial_train(model, client, lr_t, rng)
        else:
            cfg = self.config
            set_dual_bn_mode(model, adversarial=False)
            standard_local_train(
                model,
                client.dataset,
                iterations=cfg.local_iters,
                batch_size=cfg.batch_size,
                lr=lr_t,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
                rng=rng,
            )

    # -- aggregation hooks ---------------------------------------------------
    def async_client_fn(self, round_idx: int, base_state) -> Callable:
        num_atoms = len(self.global_model.atoms)
        lr_t = self.lr_at(round_idx)

        def train_client(item):
            client, dev = item
            model = self._async_workspace()
            restore_segment(model, base_state, 0, num_atoms)
            rng = self._client_rng(round_idx, client.cid)
            self._train_one(model, client, dev, lr_t, rng)
            return snapshot_segment(model, 0, num_atoms)

        def train_cohort(items):
            model = self._async_workspace()
            return self._cohort_train_many(
                model, items, base_state, lr_t, round_idx
            )

        return CohortFn(
            train_client,
            train_cohort,
            group_key=self._fuse_key,
            width=self.cohort_width,
        )

    def async_client_costs(self, round_idx, clients, states):
        return [self._cost(dev, self.can_afford_at(dev)) for dev in states]

    def async_round_extra(self, round_idx, clients, states) -> Dict[str, Any]:
        """Which sampled clients can afford AT, and their total data weight.

        Pure functions of the device states, computed before training so
        the dual-BN merge rule can weight adversarial statistics without
        peeking at training output.
        """
        at = [self.can_afford_at(dev) for dev in states]
        at_weight = float(
            sum(float(c.num_samples) for c, is_at in zip(clients, at) if is_at)
        )
        return {"at": at, "at_weight": at_weight}

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

    # Test-time robustness uses the propagated adversarial statistics.  The
    # dual-BN switch is a module *attribute*, not part of the state dict, so
    # it is set on the global model before every eval plan.
    # ``evaluate``/``final_eval`` are inherited.
    @staticmethod
    def _eval_setup(model) -> None:
        set_dual_bn_mode(model, adversarial=True)
