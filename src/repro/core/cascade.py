"""Client-side adversarial cascade learning (paper §5, Eq. 9).

A client training module(s) ``m..M_k`` runs, per local iteration:

1. forward the clean batch through the *fixed* prefix (atoms before module
   m, eval mode) to get the input feature ``z_{m-1}``;
2. find an adversarial perturbation of that feature (ℓ2-PGD with budget
   ``ε_{m-1}`` from APA) — or of the raw image (ℓ∞, ε0) when m = 1 —
   maximising the strong-convexity-regularized early-exit loss;
3. one SGD step on the assigned segment and its auxiliary head against
   that loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.attacks.pgd import PGDConfig, pgd_attack
from repro.core.heads import AuxHead
from repro.core.prefix_cache import PrefixCache
from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.atoms import CascadeModel
from repro.nn.grad_mode import attack_grad_scope
from repro.nn.losses import CrossEntropyLoss, log_softmax
from repro.nn.module import Module
from repro.optim.sgd import SGD


class CascadeLossModel:
    """Loss-and-input-gradient adapter for a module segment.

    With a head, evaluates Eq. 9's regularized early-exit loss

        l_m = CE(head(z_m), y) + (mu/2) ||z_m||^2,

    where ``z_m`` is the segment output; without a head (the last module,
    whose early-exit loss *is* the joint loss) it falls back to plain
    cross-entropy on the segment output.  Implements the interface
    :func:`repro.attacks.pgd.pgd_attack` consumes.  Backward passes
    accumulate segment/head parameter gradients; training loops zero them
    before the update pass.
    """

    def __init__(self, segment: Module, head: Optional[Module], mu: float):
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.segment = segment
        self.head = head
        self.mu = mu
        self._ce = CrossEntropyLoss()

    def logits(self, x: np.ndarray) -> np.ndarray:
        z = self.segment(x)
        return z if self.head is None else self.head(z)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        z = self.segment(x)
        if self.head is None:
            return self._ce(z, y)
        ce = self._ce(self.head(z), y)
        n = z.shape[0]
        reg = 0.5 * self.mu * float((z.reshape(n, -1) ** 2).sum()) / n
        return ce + reg

    def loss_and_input_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        z = self.segment(x)
        n = z.shape[0]
        if self.head is None:
            loss = self._ce(z, y)
            g_z = self._ce.backward()
        else:
            logits = self.head(z)
            loss = self._ce(logits, y)
            reg = 0.5 * self.mu * float((z.reshape(n, -1) ** 2).sum()) / n
            loss += reg
            g_z = self.head.backward(self._ce.backward())
            if self.mu:
                g_z = g_z + (self.mu / n) * z
        return loss, self.segment.backward(g_z)

    def per_sample_losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        logits = self.logits(x)
        return -log_softmax(logits)[np.arange(len(y)), np.asarray(y)]


@dataclass
class CascadeBatchSpec:
    """Resolved training target for one client in one round."""

    start_atom: int  # first atom of the current module m
    stop_atom: int  # one past the last atom of the last assigned module M_k
    head: Optional[Module]  # aux head of module M_k (None when M_k is last)


def _attack_config(
    is_first_module: bool, eps0: float, eps_feature: float, steps: int
) -> PGDConfig:
    if is_first_module:
        return PGDConfig(eps=eps0, steps=steps, norm="linf", clip=(0.0, 1.0))
    return PGDConfig(eps=eps_feature, steps=steps, norm="l2", clip=None)


def cascade_local_train(
    model: CascadeModel,
    spec: CascadeBatchSpec,
    dataset: ArrayDataset,
    iterations: int,
    batch_size: int,
    lr: float,
    mu: float,
    eps0: float,
    eps_feature: float,
    attack_steps: int,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
    prefix_cache: Optional[PrefixCache] = None,
    cache_key: Optional[object] = None,
) -> float:
    """Run E local iterations of adversarial cascade training.

    Mutates the parameters of the assigned atoms and head in place (the
    caller snapshots/aggregates state dicts).  Returns the mean training
    loss.

    With a ``prefix_cache``, the eval-mode forward through the frozen
    prefix (atoms before ``spec.start_atom``) is memoised per sample under
    ``(cache_key, prefix length)`` — the caller is responsible for
    invalidating the cache whenever the global model changes.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    segment = model.segment(spec.start_atom, spec.stop_atom)
    # Prefix stays frozen in eval mode; the trained segment uses batch stats.
    model.eval()
    segment.train()
    if spec.head is not None:
        spec.head.train()

    params = segment.parameters()
    if spec.head is not None:
        params = params + spec.head.parameters()
    opt = SGD(params, lr=lr, momentum=momentum, weight_decay=weight_decay)
    loss_model = CascadeLossModel(segment, spec.head, mu)

    is_first = spec.start_atom == 0
    pgd = _attack_config(is_first, eps0, eps_feature, attack_steps)

    def prefix_forward(xb: np.ndarray) -> np.ndarray:
        # The frozen prefix is never backpropagated through: run it
        # input-grad-only so its layers skip weight-gradient caches.
        with attack_grad_scope():
            return model.forward_until(xb, spec.start_atom)

    loader = DataLoader(
        dataset, batch_size=min(batch_size, len(dataset)), shuffle=True, rng=rng
    )
    losses: List[float] = []
    batches = loader.infinite_with_indices()
    for _ in range(iterations):
        idx, x, y = next(batches)
        if is_first:
            z_in = x
        elif prefix_cache is not None:
            z_in = prefix_cache.fetch(
                (cache_key, spec.start_atom), idx, x, prefix_forward, len(dataset)
            )
        else:
            z_in = prefix_forward(x)
        z_adv = pgd_attack(loss_model, z_in, y, pgd, rng=rng)
        opt.zero_grad()  # discard gradients accumulated by the attack
        loss, _ = loss_model.loss_and_input_grad(z_adv, y)
        opt.step()
        losses.append(loss)
    model.eval()
    return float(np.mean(losses)) if losses else 0.0


def measure_output_perturbation(
    model: CascadeModel,
    start_atom: int,
    stop_atom: int,
    head: Optional[Module],
    dataset: ArrayDataset,
    mu: float,
    eps0: float,
    eps_feature: float,
    attack_steps: int,
    batch_size: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """max over a local batch of ‖Δz_m‖₂ (the statistic APA averages, Eq. 11).

    Attacks the module's input exactly as training does and measures the
    resulting displacement of the module's *output* feature.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    model.eval()
    segment = model.segment(start_atom, stop_atom)
    loss_model = CascadeLossModel(segment, head, mu)
    is_first = start_atom == 0
    pgd = _attack_config(is_first, eps0, eps_feature, attack_steps)

    n = min(batch_size, len(dataset))
    idx = rng.choice(len(dataset), size=n, replace=False)
    x, y = dataset.x[idx], dataset.y[idx]
    with attack_grad_scope():  # one scope: the model is frozen for the whole probe
        z_in = x if is_first else model.forward_until(x, start_atom)
        z_adv_in = pgd_attack(loss_model, z_in, y, pgd, rng=rng)
        z = segment(z_in)
        z_adv = segment(z_adv_in)
    diff = (z_adv - z).reshape(n, -1)
    return float(np.sqrt((diff**2).sum(axis=1)).max())
