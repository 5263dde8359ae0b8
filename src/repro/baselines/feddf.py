"""FedDF-AT (Lin et al., 2020): heterogeneous clients + ensemble distillation.

Each client adversarially trains the largest model in the dataset's family
that fits its available memory; the server FedAvgs updates per
architecture and distills the prototype ensemble into the global large
model on a public split.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.pgd import PGDConfig
from repro.baselines.distill import distill
from repro.data.partition import public_private_split
from repro.flsim.base import FederatedExperiment, FLClient, FLConfig
from repro.flsim.local import adversarial_local_train
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.models.atoms import CascadeModel


class FedDFAT(FederatedExperiment):
    """Knowledge-distillation FAT with a mean-softmax ensemble teacher."""

    name = "feddf-at"
    confidence_weighted = False
    # The server-side distillation step consumes *all* of a round's
    # per-architecture averages at once and then runs sequential SGD on
    # the public split — there is no per-update merge to stream, so the
    # staleness-bounded async engine does not apply (requesting
    # ``aggregation_mode="async"`` raises in the base constructor).
    supports_async_aggregation = False

    def __init__(
        self,
        task,
        model_builders: Dict[str, Callable[[np.random.Generator], CascadeModel]],
        config: FLConfig,
        device_sampler: Optional[DeviceSampler] = None,
        latency_model: Optional[LatencyModel] = None,
        distill_iters: int = 128,
        public_frac: float = 0.1,
    ):
        """``model_builders`` maps architecture name -> builder, ordered
        smallest to largest; the last entry is the global model."""
        if not model_builders:
            raise ValueError("need a non-empty model family")
        self.family = list(model_builders)
        global_builder = model_builders[self.family[-1]]
        super().__init__(task, global_builder, config, device_sampler, latency_model)
        rng = np.random.default_rng(config.seed + 3)
        self.prototypes: Dict[str, CascadeModel] = {
            name: builder(rng) for name, builder in model_builders.items()
        }
        # The largest prototype shares weights with the global model.
        self.prototypes[self.family[-1]] = self.global_model
        self.mem_req, self._arch_cost = {}, {}
        for n, m in self.prototypes.items():
            _, self.mem_req[n], self._arch_cost[n] = self._model_costs(m)
        pub_idx, _ = public_private_split(
            task.train.y, public_frac, rng=np.random.default_rng(config.seed + 5)
        )
        self.public = task.train.subset(pub_idx)
        self.distill_iters = distill_iters

    def pick_architecture(self, state: Optional[DeviceState]) -> str:
        """Largest family member that trains within the client's memory."""
        if state is None:
            return self.family[-1]
        chosen = self.family[0]
        for name in self.family:
            if self.mem_req[name] <= state.avail_mem_bytes:
                chosen = name
        return chosen

    def run_round(
        self,
        round_idx: int,
        clients: List[FLClient],
        states: List[Optional[DeviceState]],
    ) -> List[LocalTrainingCost]:
        cfg = self.config
        snapshots = {n: m.state_dict() for n, m in self.prototypes.items()}
        per_arch: Dict[str, List] = {n: [] for n in self.family}
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        for client, dev in zip(clients, states):
            arch = self.pick_architecture(dev)
            model = self.prototypes[arch]
            model.load_state_dict(snapshots[arch])
            adversarial_local_train(
                model,
                client.dataset,
                iterations=cfg.local_iters,
                batch_size=cfg.batch_size,
                lr=self.lr_at(round_idx),
                pgd=pgd,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
                rng=self._client_rng(round_idx, client.cid),
            )
            update = self._maybe_poison_update(
                round_idx, client.cid, model.state_dict(), snapshots[arch]
            )
            per_arch[arch].append((update, client.num_samples))

        for arch, updates in per_arch.items():
            if updates:
                self.prototypes[arch].load_state_dict(
                    self.robust_aggregate(
                        [s for s, _ in updates],
                        [float(n) for _, n in updates],
                        base=snapshots[arch],
                    )
                )
            else:
                self.prototypes[arch].load_state_dict(snapshots[arch])

        teachers = [m for n, m in self.prototypes.items() if n != self.family[-1]]
        teachers.append(self.global_model)
        distill(
            self.global_model,
            teachers,
            self.public,
            iterations=self.distill_iters,
            batch_size=cfg.batch_size,
            lr=self.lr_at(round_idx),
            confidence_weighted=self.confidence_weighted,
            rng=np.random.default_rng(cfg.seed + 17 + round_idx),
        )
        return self.async_client_costs(round_idx, clients, states)

    def checkpoint_state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """The smaller prototypes (the checkpoint's global state is the largest)."""
        return {n: self.prototypes[n].state_dict() for n in self.family[:-1]}

    def load_checkpoint_state(self, state) -> None:
        for name, proto_state in state.items():
            self.prototypes[name].load_state_dict(proto_state)

    def async_client_costs(self, round_idx, clients, states) -> List[LocalTrainingCost]:
        """Pre-training latency: each device's largest affordable prototype.

        Pure arithmetic over the device states, so ``client_timeout`` can
        drop on it before anybody trains.
        """
        return [self._arch_cost[self.pick_architecture(dev)](dev) for dev in states]
