"""Joint Federated Adversarial Training (Zizzo et al., 2020).

FedAvg where every client adversarially trains the *whole* model
end-to-end.  Clients whose available memory is below the model's training
requirement fall back to memory swapping, whose data-access latency the
hardware model charges (this is the slow-but-accurate upper-bound method
in Table 2 / Fig. 7).

jFAT is also the reference algorithm for **staleness-bounded
asynchronous aggregation** (``aggregation_mode="async"``): because its
aggregation is plain full-model FedAvg, client updates can merge into a
separate server state as they land — in *simulated*-arrival order (the
latency model's per-device cost, not wall-clock scheduling), so the
result is deterministic and seed-reproducible.  The
merge schedule coalesces each round's tail so no update ever merges with
an intra-round lag above ``max_staleness``; ``max_staleness=0`` with
``pipeline_depth=1`` *is* synchronous FedAvg (the sync round is the base
class's one-event case of the same hooks).  With
``pipeline_depth>1`` the generic cross-round pipeline
(:meth:`repro.flsim.base.FederatedExperiment._run_rounds`) additionally
dispatches the next round's fast clients against the latest merged
server state while this round's stragglers are still training.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.attacks.pgd import PGDConfig
from repro.core.aggregator import restore_segment, snapshot_segment
from repro.flsim.base import AsyncMergeEvent, FederatedExperiment, FLConfig
from repro.flsim.executor import CohortFn
from repro.flsim.local import adversarial_local_train, cohort_adversarial_local_train
from repro.nn.cohort import clear_cohort, extract_cohort, install_cohort
from repro.hardware.devices import DeviceSampler
from repro.hardware.latency import LatencyModel
from repro.models.atoms import CascadeModel

__all__ = ["JointFAT", "AsyncMergeEvent"]


class JointFAT(FederatedExperiment):
    """End-to-end FAT with FedAvg aggregation."""

    name = "jfat"

    def __init__(
        self,
        task,
        model_builder: Callable[[np.random.Generator], CascadeModel],
        config: FLConfig,
        device_sampler: Optional[DeviceSampler] = None,
        latency_model: Optional[LatencyModel] = None,
    ):
        super().__init__(task, model_builder, config, device_sampler, latency_model)
        self.flops_per_iter, self.mem_req, self._cost = self._model_costs(
            self.global_model
        )

    # -- aggregation hooks (the merge rule is the base class's FedAvg) -------
    def async_client_fn(self, round_idx: int, global_snap) -> Callable:
        """The work unit of every round, sync and async.

        Trains on the ``_async_workspace`` model so in-flight rounds never
        touch the live model.  Training is a pure function of
        (``global_snap``, the client's shard, a counter-derived RNG).
        """
        cfg = self.config
        num_atoms = len(self.global_model.atoms)
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        lr_t = self.lr_at(round_idx)

        def train_client(item):
            client, _dev = item
            model = self._async_workspace()
            restore_segment(model, global_snap, 0, num_atoms)
            adversarial_local_train(
                model,
                client.dataset,
                iterations=cfg.local_iters,
                batch_size=cfg.batch_size,
                lr=lr_t,
                pgd=pgd,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
                rng=self._client_rng(round_idx, client.cid),
            )
            return snapshot_segment(model, 0, num_atoms)

        def train_cohort(items):
            # K fused clients: stack K copies of the round base into
            # per-parameter slabs and run one stacked trainer pass.  Each
            # client keeps its own RNG/loader stream, and the kernels
            # reduce per client slice — bit-identical to K train_client
            # calls (see repro.nn.cohort).
            model = self._async_workspace()
            try:
                install_cohort(model, [global_snap] * len(items))
                cohort_adversarial_local_train(
                    model,
                    [client.dataset for client, _dev in items],
                    iterations=cfg.local_iters,
                    batch_size=cfg.batch_size,
                    lr=lr_t,
                    pgd=pgd,
                    momentum=cfg.momentum,
                    weight_decay=cfg.weight_decay,
                    rngs=[
                        self._client_rng(round_idx, client.cid)
                        for client, _dev in items
                    ],
                )
                return extract_cohort(model)
            finally:
                clear_cohort(model)

        def fuse_key(item):
            # Fusion needs aligned batch schedules: the loader's epoch
            # permutation and per-iteration batch sizes are a pure function
            # of (shard size, effective batch size), so equal keys mean
            # every fused iteration concatenates K equal-size batches.
            client, _dev = item
            n = client.num_samples
            return (n, min(cfg.batch_size, n))

        return CohortFn(
            train_client, train_cohort, group_key=fuse_key, width=self.cohort_width
        )

    def async_client_costs(self, round_idx, clients, states):
        return [self._cost(dev) for dev in states]
