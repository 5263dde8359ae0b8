"""FedDF-AT (Lin et al., 2020): heterogeneous clients + ensemble distillation.

Each client adversarially trains the largest model in the dataset's family
that fits its available memory; the server FedAvgs updates per
architecture and distills the prototype ensemble into the global large
model on a public split.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.attacks.pgd import PGDConfig
from repro.baselines.distill import distill
from repro.data.partition import public_private_split
from repro.flsim.base import FederatedExperiment, FLConfig
from repro.flsim.local import adversarial_local_train
from repro.hardware.devices import DeviceSampler, DeviceState
from repro.hardware.latency import LatencyModel, LocalTrainingCost
from repro.models.atoms import CascadeModel

StateDict = Dict[str, np.ndarray]


def _join(states: Dict[str, StateDict]) -> StateDict:
    """``{arch: state dict}`` as one state keyed ``"<arch>/<key>"``."""
    return {f"{a}/{k}": v for a, state in states.items() for k, v in state.items()}


def _split(state: StateDict) -> Dict[str, StateDict]:
    """Inverse of :func:`_join`, key order kept."""
    out: Dict[str, StateDict] = {}
    for key, value in state.items():
        arch, _, name = key.rpartition("/")
        out.setdefault(arch, {})[name] = value
    return out


class FedDFAT(FederatedExperiment):
    """Knowledge-distillation FAT with a mean-softmax ensemble teacher.

    A round is the ``async_*`` hook surface over one server state that
    holds every prototype, keyed ``"<arch>/<key>"``: each client trains
    its architecture's prototype, and the merge rule averages per
    architecture, then distils the ensemble into the global model.
    """

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
        self.model_builders = dict(model_builders)
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

    # -- one round: the async_* hooks over the namespaced prototypes -----------
    def async_server_state(self) -> StateDict:
        """Every prototype's weights (copies), namespaced by architecture."""
        return _join({arch: self.prototypes[arch].state_dict() for arch in self.family})

    def async_client_fn(self, round_idx: int, base: StateDict) -> Callable:
        """Train the client's architecture on a replica of its prototype.

        The update is keyed in the server's namespace, so a Byzantine
        client's delta is measured against its own prototype's round-start
        weights.
        """
        cfg = self.config
        pgd = PGDConfig(eps=cfg.eps0, steps=cfg.train_pgd_steps, norm="linf")
        lr_t = self.lr_at(round_idx)
        bases = _split(base)

        def train_client(item, slot):
            client, dev = item
            arch = self.pick_architecture(dev)
            model = self._async_slot_model(slot, self.model_builders[arch])
            model.load_state_dict(bases[arch])
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
            return _join({arch: model.state_dict()})

        return train_client

    def async_merge_event(self, server, ctx, members, updates, staleness) -> float:
        """Average each architecture's updates (family order, empty ones
        skipped), install them, then distil the ensemble into the global model."""
        cfg = self.config
        per_arch = {arch: ([], []) for arch in self.family}
        for i, update in zip(members, updates):
            ((arch, state),) = _split(update).items()
            per_arch[arch][0].append(state)
            per_arch[arch][1].append(ctx.weights[i])
        bases = _split(server)
        for arch, (states, weights) in per_arch.items():
            if states:
                merged = self.robust_aggregate(states, weights, base=bases[arch])
                server.update(_join({arch: merged}))
        self.async_finalize(server)
        teachers = [self.prototypes[n] for n in self.family[:-1]] + [self.global_model]
        distill(
            self.global_model,
            teachers,
            self.public,
            iterations=self.distill_iters,
            batch_size=cfg.batch_size,
            lr=self.lr_at(ctx.round_idx),
            confidence_weighted=self.confidence_weighted,
            rng=np.random.default_rng(cfg.seed + 17 + ctx.round_idx),
        )
        server.update(_join({self.family[-1]: self.global_model.state_dict()}))
        return 1.0

    def async_finalize(self, server: StateDict) -> None:
        """Install a server state (the merged one, or an aborted round's
        base) into every prototype; the largest is the global model."""
        self.load_checkpoint_state(_split(server))

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
