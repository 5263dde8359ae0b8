"""FedProphet: the paper's primary contribution.

* :mod:`repro.core.partitioner` — memory-constrained model partition (Alg. 1)
* :mod:`repro.core.cascade` — client-side adversarial cascade learning with
  strong-convexity regularization (Eq. 9)
* :mod:`repro.core.apa` — Adaptive Perturbation Adjustment (Eq. 11–12)
* :mod:`repro.core.dma` — Differentiated Module Assignment (Eq. 14–15)
* :mod:`repro.core.aggregator` — partial-average aggregation (Eq. 16–17)
* :mod:`repro.core.prophet` — the full server/client loop (Alg. 2)
"""

from repro.core.config import FedProphetConfig
from repro.core.prefix_cache import PrefixCache
from repro.core.heads import AuxHead, head_input_dim
from repro.core.partitioner import Partition, partition_model, aux_head_bytes
from repro.core.cascade import cascade_local_train, measure_output_perturbation
from repro.core.apa import AdaptivePerturbationAdjustment
from repro.core.dma import SegmentCostTable, assign_modules
from repro.core.aggregator import (
    aggregate_modules,
    aggregate_heads,
    async_merge_schedule,
    blend_into,
    merge_async_partial,
    snapshot_segment,
    restore_segment,
)
from repro.core.prophet import FedProphet

__all__ = [
    "FedProphetConfig",
    "PrefixCache",
    "AuxHead",
    "head_input_dim",
    "Partition",
    "partition_model",
    "aux_head_bytes",
    "cascade_local_train",
    "measure_output_perturbation",
    "AdaptivePerturbationAdjustment",
    "SegmentCostTable",
    "assign_modules",
    "aggregate_modules",
    "aggregate_heads",
    "async_merge_schedule",
    "blend_into",
    "merge_async_partial",
    "snapshot_segment",
    "restore_segment",
    "FedProphet",
]
