"""Shared experiment loop for partial-training FAT baselines.

Each client trains a width-sliced sub-model sized to its available memory
(drop percentage ``1 − R_k/R_max``, paper App. B.2), adversarially, and the
server partial-averages the slices back into the global model.  Concrete
baselines differ only in the channel-selection strategy.

Asynchronous aggregation (``aggregation_mode="async"``): each merge
event masked-partial-averages its members' scattered slices against the
current server state and blends the result in with the FedAsync
``(event weight / round weight) / (1 + staleness)`` rate — entries no
event member trained keep their server values.  The synchronous round is
the same rule with the whole cohort as one staleness-0 event (rate
exactly 1: the base class's barrier round).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.attacks.pgd import PGDConfig
from repro.baselines.subnet import extract_submodel, scatter_submodel_state
from repro.core.aggregator import blend_into, restore_segment
from repro.flsim.base import AsyncRoundContext, FederatedExperiment, FLConfig
from repro.flsim.executor import CohortFn
from repro.flsim.local import cohort_adversarial_local_train
from repro.nn.cohort import train_cohort
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.models.atoms import CascadeModel


class PartialTrainingFAT(FederatedExperiment):
    """Base class; subclasses set ``strategy`` (static/random/rolling)."""

    strategy = "static"
    min_ratio = 0.125

    def __init__(
        self,
        task,
        model_builder: Callable[[np.random.Generator], CascadeModel],
        config: FLConfig,
        device_sampler: Optional[DeviceSampler] = None,
        latency_model: Optional[LatencyModel] = None,
    ):
        if config.aggregation_rule in ("krum", "multi_krum"):
            raise ValueError(
                f"{type(self).__name__} ships masked sub-model updates; "
                f"Krum's distance scores need homogeneous full-model "
                f"updates (use median, trimmed_mean or norm_clip)"
            )
        super().__init__(task, model_builder, config, device_sampler, latency_model)
        self.r_max = self.mem.bytes_for(self.global_model, self.global_model.in_shape)

    def client_ratio(self, state: Optional[DeviceState]) -> float:
        """Sub-model width from available memory: clip(R_k / R_max, ...)."""
        if state is None:
            return 1.0
        return float(np.clip(state.avail_mem_bytes / self.r_max, self.min_ratio, 1.0))

    #: Channel-selection strategies whose index maps are pure functions of
    #: (ratio, round_idx) — ``select`` never draws from the client RNG —
    #: so equal-ratio clients share identical sub-architectures *and*
    #: identical masks, and may fuse into one stacked cohort.  ``random``
    #: draws a fresh per-client subset, so its clients train alone.
    _FUSABLE_STRATEGIES = ("static", "rolling")

    def _fuse_key(self, item):
        """Fusion key: identical sub-architecture/mask + batch schedule."""
        if self.strategy not in self._FUSABLE_STRATEGIES:
            return None
        client, dev = item
        n = client.num_samples
        return (self.client_ratio(dev), n, min(self.config.batch_size, n))

    # -- aggregation hooks ---------------------------------------------------
    def async_client_fn(self, ctx: AsyncRoundContext, base_state) -> Callable:
        cfg, round_idx = self.config, ctx.round_idx
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        lr_t = self.lr_at(round_idx)
        num_atoms = len(self.global_model.atoms)

        def train(items):
            # Every member would extract a bit-identical sub-model (the fusion
            # key guarantees an RNG-free strategy and an equal ratio), so one
            # extraction serves the cohort.  It draws from the first member's
            # own generator: a lone client's extraction and training share
            # one stream (``random`` never fuses).
            rngs = [self._client_rng(round_idx, client.cid) for client, _dev in items]
            model = self._async_workspace()
            restore_segment(model, base_state, 0, num_atoms)
            piece = extract_submodel(
                model, self.client_ratio(items[0][1]), self.strategy,
                round_idx=round_idx, rng=rngs[0],
            )
            trained = train_cohort(
                piece.model,
                len(items),
                lambda sub: cohort_adversarial_local_train(
                    sub,
                    [client.dataset for client, _dev in items],
                    iterations=cfg.local_iters,
                    batch_size=cfg.batch_size,
                    lr=lr_t,
                    pgd=pgd,
                    momentum=cfg.momentum,
                    weight_decay=cfg.weight_decay,
                    rngs=rngs,
                ),
            )
            return [
                scatter_submodel_state(state, piece.index_map, base_state)
                + (float(client.num_samples),)
                for state, (client, _dev) in zip(trained, items)
            ]

        return CohortFn(train, group_key=self._fuse_key)

    def async_round_context(self, round_idx, clients, states) -> AsyncRoundContext:
        """Pre-training latency: slice each client's architecture and cost it.

        The extraction here is structural — the sliced weights are
        discarded; only shapes feed the FLOP/memory model — and consumes
        the same counter-derived RNG draws the work unit will make, so
        the sliced channels (and therefore the costs) match the training
        exactly.
        """
        costs = []
        for client, dev in zip(clients, states):
            if dev is None:  # no device sampler: nothing to slice or cost
                costs.append(LocalTrainingCost(0.0, 0.0))
                continue
            rng = self._client_rng(round_idx, client.cid)
            piece = extract_submodel(
                self.global_model, self.client_ratio(dev), self.strategy,
                round_idx=round_idx, rng=rng,
            )
            costs.append(self._cost(dev, piece.model))
        return AsyncRoundContext(round_idx, clients, states, costs)

    def async_merge_event(self, server, ctx, members, updates, staleness) -> float:
        """Masked partial average of the event, FedAsync-attenuated.

        ``updates`` are ``(scattered_state, mask, weight)`` triples with
        global shapes; the event's masked average against the current
        server keeps untrained entries at their server values, then
        blends in at ``(event weight / round weight) / (1 + staleness)``.
        """
        event_weight = float(sum(ctx.weights[i] for i in members))
        alpha = (event_weight / ctx.round_weight) / (1.0 + staleness)
        merged = self.robust_masked_average(server, list(updates))
        return blend_into(server, merged, alpha)

    def _cost(self, state: Optional[DeviceState], submodel: CascadeModel) -> LocalTrainingCost:
        return self._model_costs(submodel)[2](state)
