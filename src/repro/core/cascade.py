"""Client-side adversarial cascade learning (paper §5, Eq. 9).

A client training module(s) ``m..M_k`` runs the one SGD loop of every
method, :func:`repro.flsim.local._local_train`, on that span with module
M_k's auxiliary head and μ.  Per local iteration it:

1. forwards the clean batch through the *fixed* prefix (atoms before module
   m, eval mode; :func:`prefix_features`, served by the :class:`PrefixCache`
   on a hit) to get the input feature ``z_{m-1}``;
2. finds an adversarial perturbation of that feature (ℓ2-PGD with budget
   ``ε_{m-1}`` from APA) — or of the raw image (ℓ∞, ε0) when m = 1 —
   maximising the strong-convexity-regularized early-exit loss
   (``ModelWithLoss(span, head, mu=μ)``);
3. takes one SGD step on the span and its head against that loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

import numpy as np

from repro.attacks import ModelWithLoss
from repro.attacks.pgd import PGDConfig, pgd_attack
from repro.core.prefix_cache import PrefixCache
from repro.data.dataset import ArrayDataset
from repro.flsim.local import _local_train
from repro.models.atoms import CascadeModel
from repro.nn.grad_mode import attack_grad_scope
from repro.nn.module import Module


@dataclass
class CascadeBatchSpec:
    """Resolved training target for one client in one round."""

    start_atom: int  # first atom of the current module m
    stop_atom: int  # one past the last atom of the last assigned module M_k
    head: Optional[Module]  # aux head of module M_k (None when M_k is last)


def prefix_features(
    model: CascadeModel,
    stop_atom: int,
    cache: Optional[PrefixCache] = None,
    key: Hashable = None,
    num_samples: int = 0,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``(dataset rows, x) -> z``: the frozen prefix (atoms before
    ``stop_atom``) that training and ``FedProphet.cascade_eval`` forward,
    served by ``cache`` under ``key`` on a hit.

    It is never backpropagated through, so it runs input-grad-only: its
    layers skip the weight-gradient caches.
    """

    def forward(x: np.ndarray) -> np.ndarray:
        with attack_grad_scope():
            return model.forward_until(x, stop_atom)

    if cache is None:
        return lambda rows, x: forward(x)
    return lambda rows, x: cache.fetch(key, rows, x, forward, num_samples)


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
    start = spec.start_atom
    features = None
    if start > 0:
        features = [
            prefix_features(model, start, prefix_cache, (cache_key, start), len(dataset))
        ]
    model.eval()  # the prefix stays frozen in eval mode; _local_train trains the span
    pgd = _attack_config(start == 0, eps0, eps_feature, attack_steps)
    rng = rng if rng is not None else np.random.default_rng(0)
    (loss,) = _local_train(
        model.segment(start, spec.stop_atom), [dataset], iterations, batch_size, lr, pgd,
        momentum, weight_decay, [rng], head=spec.head, mu=mu, features=features,
    )
    model.eval()
    return loss


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
    mwl = ModelWithLoss(segment, head, mu=mu)
    is_first = start_atom == 0
    pgd = _attack_config(is_first, eps0, eps_feature, attack_steps)

    n = min(batch_size, len(dataset))
    idx = rng.choice(len(dataset), size=n, replace=False)
    x, y = dataset.x[idx], dataset.y[idx]
    with attack_grad_scope():  # one scope: the model is frozen for the whole probe
        z_in = x if is_first else prefix_features(model, start_atom)(idx, x)
        z_adv_in = pgd_attack(mwl, z_in, y, pgd, rng=rng)
        z = segment(z_in)
        z_adv = segment(z_adv_in)
    diff = (z_adv - z).reshape(n, -1)
    return float(np.sqrt((diff**2).sum(axis=1)).max())
