"""Sharded evaluation engine: eval plans on the round execution engine.

Evaluation is embarrassingly parallel over ``(attack, sample range)``
tuples: every accuracy an :class:`~repro.metrics.evaluation.EvalPlan`
requests decomposes into deterministic :class:`EvalShard` work units whose
results are integer correct-counts, reduced in input order.  The shards
run through the existing :class:`~repro.flsim.executor.RoundExecutor`
(serial / thread / process backends), sharing its determinism contract:

* **shard-stable RNG** — each shard draws from
  ``default_rng([plan seed, attack index, shard index])``
  (:func:`repro.metrics.evaluation.shard_rng`), so randomness depends only
  on the plan, never on scheduling, worker count, or backend;
* **per-slot replicas** — concurrent shards never share a model: the
  caller's ``target_for_slot`` maps an executor slot to a private
  :class:`EvalTarget` (slot 0 is conventionally the real model; thread
  slots are replicas synced by ``prepare_slot`` before the parallel
  region; forked children own copy-on-write copies);
* **fixed reduction order** — per-attack counts are summed over shards in
  input order, so the final float divisions see identical operands on
  every backend.

The engine also reuses the stage-scoped
:class:`~repro.core.prefix_cache.PrefixCache`: clean-pass shards forward
*unperturbed* inputs through a frozen prefix — exactly what the cache
memoises — so an :class:`EvalTarget` may carry a split
``prefix_forward`` / ``suffix_mwl`` pair and serve repeated validation
passes from cached activations (bit-identical to the uncached forward).
Attack shards perturb the raw input and always bypass the cache.  On the
process backend, children's cache-counter deltas and freshly filled
entries are merged back into the parent so ``stats()`` reflects the whole
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.attacks import ModelWithLoss
from repro.data.dataset import ArrayDataset
from repro.flsim.executor import RoundExecutor
from repro.metrics.evaluation import EvalPlan, EvalResult, seed_entropy, shard_rng
from repro.nn.grad_mode import no_param_grads


@dataclass(frozen=True)
class EvalShard:
    """One evaluation work unit: one attack over one sample range.

    Shards are a pure function of (plan, sample count) and carry their
    own RNG identity (``shard_idx`` seeds ``shard_rng``), so a shard
    computes the same correct-count no matter which backend, worker, or
    wall-clock order runs it.
    """

    attack_idx: int
    shard_idx: int  # batch index within the attack (seeds the shard RNG)
    start: int
    stop: int


@dataclass
class EvalTarget:
    """What one executor slot evaluates.

    ``mwl`` is the full model(+head) adapter attacks and predictions run
    against.  When the leading part of the model is frozen (FedProphet's
    cascade prefix), ``prefix_forward`` / ``suffix_mwl`` optionally split
    the clean forward at that boundary so the prefix half can be served by
    a :class:`~repro.core.prefix_cache.PrefixCache`; composing them is
    bit-identical to ``mwl.logits`` because the cascade forward is a plain
    composition of the same per-atom ops.
    """

    mwl: ModelWithLoss
    prefix_forward: Optional[Callable[[np.ndarray], np.ndarray]] = None
    suffix_mwl: Optional[ModelWithLoss] = None


class EvalExecutor:
    """Runs :class:`EvalPlan`\\ s as sharded work on a round executor.

    Parameters
    ----------
    executor:
        The backing :class:`RoundExecutor`.  Defaults to a serial one, the
        reference path every parallel backend must match bit for bit.
    """

    def __init__(self, executor: Optional[RoundExecutor] = None):
        self.executor = executor if executor is not None else RoundExecutor("serial")

    @property
    def backend(self) -> str:
        return self.executor.backend

    def shards_for(self, plan: EvalPlan, num_samples: int) -> List[EvalShard]:
        """The deterministic shard decomposition of a plan.

        Depends only on (plan, sample count) — never on the backend or
        worker count — so the same shards (and shard RNGs) are produced no
        matter how they are scheduled.
        """
        shards: List[EvalShard] = []
        for ai in range(len(plan.attacks)):
            for si, start in enumerate(range(0, num_samples, plan.batch_size)):
                shards.append(
                    EvalShard(ai, si, start, min(num_samples, start + plan.batch_size))
                )
        return shards

    def run(
        self,
        plan: EvalPlan,
        dataset: ArrayDataset,
        target_for_slot: Callable[[int], EvalTarget],
        prepare_slot: Optional[Callable[[int], None]] = None,
        prefix_cache=None,
        cache_key=None,
    ) -> EvalResult:
        """Execute a plan and reduce shard counts into an :class:`EvalResult`.

        ``prepare_slot`` runs once per executor slot *before* the parallel
        region (sync a replica's weights, set eval-time modes);
        ``target_for_slot`` then supplies the slot's :class:`EvalTarget`.
        With a ``prefix_cache`` and ``cache_key``, clean shards whose
        target carries a prefix/suffix split are served from (and fill)
        the cache; rows are keyed by dataset index, so the ``max_samples``
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
        # The process backend accrues cache hits/misses (and fresh entries)
        # in forked children; detect an actual fork so the parent can merge
        # the deltas back.  Mirrors RoundExecutor.map's fallback-to-serial.
        forked = self.executor.forks_for(len(shards))
        targets: Dict[int, EvalTarget] = {}
        for slot in self.executor.slots_for(len(shards)):
            if prepare_slot is not None:
                prepare_slot(slot)
            target = targets[slot] = target_for_slot(slot)
            target.mwl.model.eval()
            if target.mwl.head is not None:
                target.mwl.head.eval()

        # The target's weights are fixed for the whole shard: one scope, so
        # its attack, prediction pass and prefix fill share one set of
        # laid-out, BatchNorm-folded weights (repro.nn.grad_mode).
        @no_param_grads()
        def run_shard(shard: EvalShard, slot: int):
            target = targets[slot]
            attack = plan.attacks[shard.attack_idx]
            xb = x[shard.start : shard.stop]
            yb = y[shard.start : shard.stop]
            use_cache = (
                prefix_cache is not None
                and cache_key is not None
                and attack.cacheable
                and target.prefix_forward is not None
                and target.suffix_mwl is not None
            )
            hits0 = misses0 = 0
            if forked and prefix_cache is not None:
                hits0, misses0 = prefix_cache.hits, prefix_cache.misses
            export = None
            if use_cache:
                shard_rows = rows[shard.start : shard.stop]
                version = prefix_cache.version
                feats = prefix_cache.fetch(
                    cache_key, shard_rows, xb, target.prefix_forward, num_total
                )
                if forked:
                    # Ship only this shard's rows back to the parent — the
                    # shards of one eval share the entry, so exporting it
                    # whole per shard would pickle the same array K times.
                    export = (version, shard_rows, feats)
                preds = target.suffix_mwl.logits(feats).argmax(axis=1)
            elif attack.cacheable:
                preds = target.mwl.logits(xb).argmax(axis=1)
            else:
                rng = shard_rng(plan.seed, shard.attack_idx, shard.shard_idx)
                adv = attack.perturb(target.mwl, xb, yb, rng)
                preds = target.mwl.logits(adv).argmax(axis=1)
            correct = int((preds == yb).sum())  # reduce here: the pipe stays narrow
            counters = None
            if forked and prefix_cache is not None:
                counters = (
                    prefix_cache.hits - hits0,
                    prefix_cache.misses - misses0,
                )
            return shard.attack_idx, correct, counters, export

        results = self.executor.map(run_shard, shards)

        if forked and prefix_cache is not None:
            for _, _, counters, export in results:
                if counters is not None:
                    prefix_cache.adopt_counters(*counters)
                if export is not None:
                    version, shard_rows, feats = export
                    prefix_cache.adopt_rows(
                        cache_key, version, shard_rows, feats, num_total
                    )

        for target in targets.values():
            target.mwl.model.zero_grad()
            if target.mwl.head is not None:
                target.mwl.head.zero_grad()
        # Sum each attack's correct counts over shards, in input order.
        correct_by_attack = [0] * len(plan.attacks)
        for attack_idx, correct, _, _ in results:
            correct_by_attack[attack_idx] += correct
        # An empty evaluation (empty dataset, max_samples=0) measured
        # nothing: report None, never a fake 0 % (to_result's contract).
        return plan.to_result({
            attack.name: (correct_by_attack[i] / n if n else None)
            for i, attack in enumerate(plan.attacks)
        })
