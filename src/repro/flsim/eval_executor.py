"""Sharded evaluation engine: eval plans on the round execution engine.

Every accuracy an :class:`~repro.metrics.evaluation.EvalPlan` requests
decomposes into deterministic :class:`EvalShard` work units over
``(attack, sample range)`` tuples, whose results are integer
correct-counts.  The shards run against one :class:`EvalTarget` as one
group of plain work units on the round executor
(:meth:`~repro.flsim.executor.RoundExecutor.run_group`), each priced at
its modelled FLOPs — its samples × the target's forward FLOPs × its
attack's :attr:`~repro.metrics.evaluation.AttackSpec.passes`.  Outside a
run the plan is a :meth:`~repro.flsim.executor.RoundExecutor.scope` of
its own, so a plan worth it splits with forked round workers like a
training round.  Where a shard ran cannot show in the result:

* **shard-stable RNG** — each shard draws from
  ``default_rng([plan seed, attack index, shard index])``
  (:func:`repro.metrics.evaluation.shard_rng`), so randomness depends only
  on the plan, never on which shards ran before;
* **fixed reduction order** — per-attack counts are summed over shards in
  input order.

The engine also reuses the stage-scoped
:class:`~repro.core.prefix_cache.PrefixCache`: clean-pass shards forward
*unperturbed* inputs through a frozen prefix — exactly what the cache
memoises — so an :class:`EvalTarget` may carry a split
``features`` / ``suffix_mwl`` pair and serve repeated validation
passes from cached activations (bit-identical to the uncached forward).
Attack shards perturb the raw input and always bypass the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.attacks import ModelWithLoss
from repro.data.dataset import ArrayDataset
from repro.flsim.executor import RoundExecutor
from repro.hardware.flops import forward_flops
from repro.metrics.evaluation import EvalPlan, EvalResult, seed_entropy, shard_rng
from repro.nn.grad_mode import no_param_grads


@dataclass(frozen=True)
class EvalShard:
    """One evaluation work unit: one attack over one sample range.

    Shards are a pure function of (plan, sample count) and carry their
    own RNG identity (``shard_idx`` seeds ``shard_rng``), so a shard
    computes the same correct-count whatever ran before it.
    """

    attack_idx: int
    shard_idx: int  # batch index within the attack (seeds the shard RNG)
    start: int
    stop: int


@dataclass
class EvalTarget:
    """What an evaluation runs against.

    ``mwl`` is the full model(+head) adapter attacks and predictions run
    against.  When the leading part of the model is frozen (FedProphet's
    cascade prefix), ``features`` / ``suffix_mwl`` optionally split the
    clean forward at that boundary: ``features(rows, x)`` is the prefix
    half, served by a :class:`~repro.core.prefix_cache.PrefixCache` keyed
    by dataset row (:func:`repro.core.cascade.prefix_features`); composing
    them is bit-identical to ``mwl.logits`` because the cascade forward is
    a plain composition of the same per-atom ops.
    """

    mwl: ModelWithLoss
    features: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    suffix_mwl: Optional[ModelWithLoss] = None


class EvalExecutor:
    """Runs :class:`EvalPlan`\\ s as sharded work on a round executor.

    Parameters
    ----------
    executor:
        The backing :class:`RoundExecutor` (default: a fresh one).
    """

    def __init__(self, executor: Optional[RoundExecutor] = None):
        self.executor = executor if executor is not None else RoundExecutor()

    def shards_for(self, plan: EvalPlan, num_samples: int) -> List[EvalShard]:
        """The deterministic shard decomposition of a plan.

        Depends only on (plan, sample count), so the same shards (and
        shard RNGs) are produced on every call.
        """
        shards: List[EvalShard] = []
        for ai in range(len(plan.attacks)):
            for si, start in enumerate(range(0, num_samples, plan.batch_size)):
                shards.append(
                    EvalShard(ai, si, start, min(num_samples, start + plan.batch_size))
                )
        return shards

    def run(self, plan: EvalPlan, dataset: ArrayDataset, target: EvalTarget) -> EvalResult:
        """Execute a plan against ``target`` and reduce shard counts into
        an :class:`EvalResult`.

        The caller sets ``target`` up first (weights, eval-time modes);
        this puts its model and head in eval mode.  Clean shards of a
        target with a ``features`` / ``suffix_mwl`` split read the prefix
        through ``features`` by dataset row, so the ``max_samples``
        subsample path caches the same rows it evaluates.
        """
        x, y = dataset.x, np.asarray(dataset.y)
        num_total = len(x)
        rows = np.arange(num_total)
        if plan.max_samples is not None and num_total > plan.max_samples:
            rows = np.random.default_rng(seed_entropy(plan.seed)).choice(
                num_total, size=plan.max_samples, replace=False
            )
            x, y = x[rows], y[rows]
        n = len(x)
        shards = self.shards_for(plan, n)
        target.mwl.model.eval()
        if target.mwl.head is not None:
            target.mwl.head.eval()

        # The target's weights are fixed for the whole shard: one scope, so
        # its attack, prediction pass and prefix fill share one set of
        # laid-out, BatchNorm-folded weights (repro.nn.grad_mode).
        @no_param_grads()
        def run_shard(shard: EvalShard):
            attack = plan.attacks[shard.attack_idx]
            xb = x[shard.start : shard.stop]
            yb = y[shard.start : shard.stop]
            if attack.cacheable and target.features is not None:
                feats = target.features(rows[shard.start : shard.stop], xb)
                preds = target.suffix_mwl.logits(feats).argmax(axis=1)
            elif attack.cacheable:
                preds = target.mwl.logits(xb).argmax(axis=1)
            else:
                rng = shard_rng(plan.seed, shard.attack_idx, shard.shard_idx)
                adv = attack.perturb(target.mwl, xb, yb, rng)
                preds = target.mwl.logits(adv).argmax(axis=1)
            return shard.attack_idx, int((preds == yb).sum())

        fwd = forward_flops(target.mwl.model, x.shape[1:])
        costs = [(s.stop - s.start) * fwd * plan.attacks[s.attack_idx].passes for s in shards]
        # Outside a run the plan is a scope of its own (a no-op inside one).
        with self.executor.scope(math.fsum(costs)):
            results = self.executor.run_group(run_shard, shards, costs)

        target.mwl.model.zero_grad()
        if target.mwl.head is not None:
            target.mwl.head.zero_grad()
        # Sum each attack's correct counts over shards, in input order.
        correct_by_attack = [0] * len(plan.attacks)
        for attack_idx, correct in results:
            correct_by_attack[attack_idx] += correct
        # An empty evaluation (empty dataset, max_samples=0) measured
        # nothing: report None, never a fake 0 % (to_result's contract).
        return plan.to_result({
            attack.name: (correct_by_attack[i] / n if n else None)
            for i, attack in enumerate(plan.attacks)
        })
