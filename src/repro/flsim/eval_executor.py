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

    def _subsample(self, plan: EvalPlan, dataset: ArrayDataset):
        """The plan's deterministic (rows, x, y) view of a dataset."""
        x, y = dataset.x, np.asarray(dataset.y)
        num_total = len(x)
        rows = np.arange(num_total)
        if plan.max_samples is not None and num_total > plan.max_samples:
            rows = np.random.default_rng(seed_entropy(plan.seed)).choice(
                num_total, size=plan.max_samples, replace=False
            )
            x, y = x[rows], y[rows]
        return x, y, rows, num_total

    def _prepare_targets(
        self,
        slots: List[int],
        target_for_slot: Callable[[int], EvalTarget],
        prepare_slot: Optional[Callable[[int], None]],
    ) -> Dict[int, EvalTarget]:
        targets: Dict[int, EvalTarget] = {}
        for slot in slots:
            if prepare_slot is not None:
                prepare_slot(slot)
            target = targets[slot] = target_for_slot(slot)
            target.mwl.model.eval()
            if target.mwl.head is not None:
                target.mwl.head.eval()
        return targets

    def _shard_runner(
        self,
        plan: EvalPlan,
        x: np.ndarray,
        y: np.ndarray,
        rows: np.ndarray,
        num_total: int,
        targets: Dict[int, EvalTarget],
        prefix_cache=None,
        cache_key=None,
        forked: bool = False,
    ) -> Callable[[EvalShard, int], tuple]:
        """The slot-aware work function one evaluation's shards run."""

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
            return shard.attack_idx, shard.shard_idx, correct, counters, export

        return run_shard

    def _reduce(self, plan: EvalPlan, shard_results: List[tuple], n: int) -> EvalResult:
        """Sum each attack's correct counts over shards, in input order."""
        correct_by_attack = [0] * len(plan.attacks)
        for attack_idx, _, correct, _, _ in shard_results:
            correct_by_attack[attack_idx] += correct
        # An empty evaluation (empty dataset, max_samples=0) measured
        # nothing: report None, never a fake 0 % (to_result's contract).
        return plan.to_result({
            attack.name: (correct_by_attack[i] / n if n else None)
            for i, attack in enumerate(plan.attacks)
        })

    @staticmethod
    def _release_targets(targets: Dict[int, EvalTarget]) -> None:
        for target in targets.values():
            target.mwl.model.zero_grad()
            if target.mwl.head is not None:
                target.mwl.head.zero_grad()

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
        x, y, rows, num_total = self._subsample(plan, dataset)
        n = len(x)
        shards = self.shards_for(plan, n)
        # The process backend accrues cache hits/misses (and fresh entries)
        # in forked children; detect an actual fork so the parent can merge
        # the deltas back.  Mirrors RoundExecutor.map's fallback-to-serial.
        forked = self.executor.forks_for(len(shards))
        targets = self._prepare_targets(
            self.executor.slots_for(len(shards)), target_for_slot, prepare_slot
        )
        run_shard = self._shard_runner(
            plan, x, y, rows, num_total, targets,
            prefix_cache=prefix_cache, cache_key=cache_key, forked=forked,
        )
        results = self.executor.map(run_shard, shards)

        if forked and prefix_cache is not None:
            for _, _, _, counters, export in results:
                if counters is not None:
                    prefix_cache.adopt_counters(*counters)
                if export is not None:
                    version, shard_rows, feats = export
                    prefix_cache.adopt_rows(
                        cache_key, version, shard_rows, feats, num_total
                    )

        self._release_targets(targets)
        return self._reduce(plan, results, n)

    def submit(
        self,
        plan: EvalPlan,
        dataset: ArrayDataset,
        target_for_slot: Callable[[int], EvalTarget],
        scheduler,
        prepare_slot: Optional[Callable[[int], None]] = None,
        tag: str = "eval-shard",
    ) -> "PendingEval":
        """Submit a plan as a task group on an :class:`FLScheduler`.

        The overlapped counterpart of :meth:`run`: shards are tagged
        ``tag`` and stream through the scheduler's persistent pool, so on
        the thread backend they interleave with whatever other groups
        (e.g. the next round's train clients) are in flight; the caller
        collects the reduced :class:`EvalResult` later from the returned
        handle.  ``prepare_slot`` runs here, in the caller's thread,
        *before* submission — the targets it prepares must stay untouched
        by the caller until the handle resolves (eval reads a published
        snapshot precisely so training can keep mutating the live model).
        The prefix cache is not threaded through this path: overlapped
        evaluation reads frozen snapshot replicas, which the cache's
        stage-scoped keys do not cover.
        """
        x, y, rows, num_total = self._subsample(plan, dataset)
        n = len(x)
        shards = self.shards_for(plan, n)
        targets = self._prepare_targets(
            scheduler.slots_for(len(shards)), target_for_slot, prepare_slot
        )
        run_shard = self._shard_runner(plan, x, y, rows, num_total, targets)
        group = scheduler.submit_group(tag, run_shard, shards)
        return PendingEval(group, plan, n, targets, self)


class PendingEval:
    """A handle on an in-flight sharded evaluation.

    Shards may complete in any wall-clock order; :meth:`result` reduces
    them in input order, so the resolved :class:`EvalResult` is
    bit-identical to the barrier :meth:`EvalExecutor.run` over the same
    published weights.
    """

    def __init__(self, group, plan: EvalPlan, n: int, targets, executor: EvalExecutor):
        self.group = group
        self.plan = plan
        self.num_samples = n
        self._targets = targets
        self._executor = executor
        self._result: Optional[EvalResult] = None

    def done(self) -> bool:
        return self.group.done()

    def result(self) -> EvalResult:
        """Block until every shard lands; reduce once (in input order) and cache."""
        if self._result is None:
            try:
                shard_results = self.group.results()
            finally:
                # release even when a shard raised — otherwise the overlap
                # replicas pin full-model gradient buffers indefinitely
                self._executor._release_targets(self._targets)
            self._result = self._executor._reduce(
                self.plan, shard_results, self.num_samples
            )
        return self._result
