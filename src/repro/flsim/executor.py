"""Round execution engine: client work units, run one cohort at a time.

Clients within a federated round are independent — each one's local
training is a pure function of (round-start global state, its local
shard, its own counter-derived RNG).  :class:`RoundExecutor` is the one
class that plans and runs them: inline, in the caller, cohort by cohort.

**Client fusion** is how the engine runs its share: homogeneous clients
are grouped into **fusion cohorts** and each cohort runs as *one* stacked
forward/backward (per-client weight slabs against a ``(K·B, ...)``
activation layout — see :mod:`repro.nn.cohort`).  Work functions opt in by
being a :class:`CohortFn` (plain functions run one item at a time);
cohorts only form among items with equal ``group_key`` (same
architecture/segment/mask *and* the same local batch schedule),
everything else is a cohort of one.
The cohort width is the executor's ``fusion_width``, resolved once per
experiment: stacking pays only while the stacked activations are small
(per-call overhead is what it amortises; K weight/gradient/momentum slabs
and a K× activation stack are what it costs), so an experiment left at
``fusion_width=None`` derives it from the model's activation footprint
(:func:`derived_fusion_width`), while an explicit ``fusion_width`` is
obeyed as given and ``fusion_width=1`` runs every client as a cohort of
one on the serial layout (no slab, no batch copy).

Determinism contract: **fused output is bit-identical to cohorts of
one**.  Results are keyed by their position in the input list (which
fixes the aggregation order), and per-client RNGs are derived from
``(seed, round, cid)`` — so cohort composition cannot leak into the
result.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

#: Upper bound of a derived fusion-cohort width, and the executor's width
#: when none is configured.  Past 8 the per-call overhead is already
#: amortised on the smallest tensors measured (docs/benchmarks.md § PR 16).
DEFAULT_FUSION_WIDTH = 8

#: Bytes of stacked per-iteration activations (``K · 4·B·A``) a derived
#: cohort may hold.  The measured regimes are 13× apart — 54 KiB per client
#: (tiny CNN, fusion buys 2×) and 182 KiB (VGG11×0.25 at B=8, 1.5×)
#: against ≥ 729 KiB (every VGG geometry at B=32, ≤ 1.1× for 1.3–2.5× peak
#: RSS) — so any value in [730 KiB, 1,458 KiB) decides all seven measured
#: points the same way (docs/benchmarks.md § PR 22).
STACKED_ACTIVATION_BUDGET = 1 << 20


def derived_fusion_width(per_client_bytes: int) -> int:
    """Cohort width for clients whose activations take ``per_client_bytes``.

    ``clamp(STACKED_ACTIVATION_BUDGET // (4·B·A), 1, DEFAULT_FUSION_WIDTH)``
    with ``4·B·A`` the paper's activation term (§6.1, Eq. 7) of one client.
    A pure function of shapes, so cohort composition stays reproducible.
    """
    fit = STACKED_ACTIVATION_BUDGET // max(1, per_client_bytes)
    return max(1, min(DEFAULT_FUSION_WIDTH, fit))


class CohortFn:
    """A work function that runs clients as fused cohorts.

    Cohort dispatch (:meth:`RoundExecutor.submit_group`) needs two things
    from a round's work function:

    * ``cohort_fn(items)`` — run K ≥ 1 homogeneous items as one cohort,
      returning their results in item order; a cohort of one is a lone
      client (``fn(item)`` is ``cohort_fn([item])[0]``), and K fused items
      are bit-identical to K cohorts of one;
    * ``group_key(item)`` — hashable fusion key.  Items may be fused only
      when their keys are equal; ``None`` keeps an item a cohort of one
      (heterogeneous segment/mask shapes, ragged batch schedules).
    """

    def __init__(
        self,
        cohort_fn: Callable[[List[Any]], List[Any]],
        group_key: Optional[Callable[[Any], Any]] = None,
    ):
        self.cohort_fn = cohort_fn
        self._group_key = group_key

    def __call__(self, item: Any) -> Any:
        return self.cohort_fn([item])[0]

    def group_key(self, item: Any) -> Any:
        return self._group_key(item) if self._group_key is not None else None


class RoundExecutor:
    """Plans a round's client work items into cohorts of at most
    ``fusion_width`` and runs them, inline; ``1`` disables fusion."""

    def __init__(self, fusion_width: int = DEFAULT_FUSION_WIDTH):
        if fusion_width < 1:
            raise ValueError("fusion_width must be >= 1")
        self.fusion_width = fusion_width

    def plan_cohorts(self, fn: CohortFn, items: Sequence[Any]) -> List[List[int]]:
        """Deterministic fusion plan: item indices grouped into cohorts.

        Items sharing a non-``None`` ``group_key`` coalesce (in input
        order) into chunks of at most ``fusion_width``; everything else is
        a singleton.  A pure function of ``(keys, width)``, so cohort
        composition is reproducible.
        """
        width = self.fusion_width
        groups: dict = {}
        singletons: List[List[int]] = []
        order: List[Any] = []
        for i, item in enumerate(items):
            key = fn.group_key(item)
            if key is None:
                singletons.append([i])
                continue
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(i)
        cohorts: List[List[int]] = list(singletons)
        for key in order:
            idxs = groups[key]
            for start in range(0, len(idxs), width):
                cohorts.append(idxs[start : start + width])
        cohorts.sort(key=lambda c: c[0])
        return cohorts

    def submit_group(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        """A generator: each pull runs the next cohort, yielding its ``(index, result)`` pairs.

        A plain function is a group of width-1 cohorts; a :class:`CohortFn`
        fuses per :meth:`plan_cohorts` (planned per group, so the async
        pipeline's per-round groups never fuse clients across base
        versions).  Cohorts run in the order of their first item, and each
        result is handed out once and not kept.  A work-unit exception
        propagates from the pull that runs its cohort and ends the group.
        """
        items = list(items)
        work = fn if isinstance(fn, CohortFn) else CohortFn(lambda members: [fn(members[0])])
        for idxs in self.plan_cohorts(work, items):
            results = work.cohort_fn([items[i] for i in idxs])
            if len(results) != len(idxs):
                raise RuntimeError(
                    f"cohort fn returned {len(results)} results for "
                    f"{len(idxs)} items"
                )
            results = results[::-1]  # popped in item order: none pinned once handed out
            for i in idxs:
                yield i, results.pop()

    def run_group(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """The barrier view of :meth:`submit_group`: results in input order."""
        return [result for _, result in sorted(self.submit_group(fn, items))]

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn(item)`` for every item, in input order; results likewise.

        Any work-unit exception propagates to the caller.  ``map`` never
        fuses: a :class:`CohortFn` runs cohorts of one here — cohort dispatch
        is :meth:`submit_group`, which every training round goes through
        (``map`` serves the eval path, with a plain function).
        """
        return [fn(item) for item in items]
