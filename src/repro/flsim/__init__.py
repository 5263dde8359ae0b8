"""Federated-learning simulation engine.

In-process FL (the paper's own evaluation style): a server state dict, a
population of clients holding non-IID shards, per-round uniform client
sampling, local SGD, and aggregation — plus a simulated wall clock driven
by the :mod:`repro.hardware` latency model, which is what the training-time
figures (Fig. 7, Table 4) measure.
"""

from repro.flsim.base import (
    AsyncMergeEvent,
    AsyncRoundContext,
    FLConfig,
    MergeEvalRecord,
    RoundRecord,
    FederatedExperiment,
)
from repro.flsim.population import (
    AVAIL_STREAM,
    MATERIALISATIONS,
    POPULATION_SCHEMES,
    SHARD_STREAM,
    SMALL_POPULATION_COMPAT,
    ClientPopulation,
    FLClient,
    sample_cohort_ids,
)
from repro.flsim.aggregation import (
    AggregationError,
    fedavg,
    weighted_average_states,
    masked_partial_average,
)
from repro.flsim.robust_agg import (
    AGGREGATION_RULES,
    RobustAggregator,
    clipped_norm_average,
    coordinate_median,
    krum_scores,
    krum_select,
    masked_robust_average,
    trimmed_mean,
)
from repro.flsim.threats import (
    ATTACKS,
    DATA_ATTACKS,
    UPDATE_ATTACKS,
    RoundThreats,
    ThreatPlan,
)
from repro.flsim.executor import RoundExecutor
from repro.flsim.scheduler import AsyncRoundTicket, CrossRoundPipeline
from repro.flsim.eval_executor import EvalExecutor, EvalShard, EvalTarget
from repro.flsim.local import adversarial_local_train, standard_local_train
from repro.flsim.history import (
    RunHistory,
    history_rows,
    export_csv,
    merge_eval_rows,
    round_record_from_dict,
    round_record_to_dict,
    time_to_accuracy,
    best_round,
)
from repro.flsim.faults import FaultOutcome, FaultPlan, RoundFaults
from repro.flsim.journal import KNOWN_KINDS, JournalError, RunJournal
from repro.flsim.replay import (
    ReplayDivergence,
    ReplayJournal,
    ReplayReport,
    canonical_events,
    replay_run,
)
from repro.flsim.service import MetricsService, StatusServer
from repro.flsim.checkpoint import (
    CheckpointError,
    config_fingerprint,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "RoundExecutor",
    "AsyncRoundTicket",
    "CrossRoundPipeline",
    "AsyncMergeEvent",
    "AsyncRoundContext",
    "EvalExecutor",
    "EvalShard",
    "EvalTarget",
    "FLConfig",
    "FLClient",
    "ClientPopulation",
    "sample_cohort_ids",
    "POPULATION_SCHEMES",
    "MATERIALISATIONS",
    "SMALL_POPULATION_COMPAT",
    "SHARD_STREAM",
    "AVAIL_STREAM",
    "RoundRecord",
    "FederatedExperiment",
    "fedavg",
    "weighted_average_states",
    "masked_partial_average",
    "adversarial_local_train",
    "standard_local_train",
    "history_rows",
    "export_csv",
    "time_to_accuracy",
    "best_round",
    "RunHistory",
    "round_record_to_dict",
    "round_record_from_dict",
    "FaultOutcome",
    "FaultPlan",
    "RoundFaults",
    "RunJournal",
    "JournalError",
    "KNOWN_KINDS",
    "MergeEvalRecord",
    "merge_eval_rows",
    "ReplayDivergence",
    "ReplayJournal",
    "ReplayReport",
    "canonical_events",
    "replay_run",
    "MetricsService",
    "StatusServer",
    "CheckpointError",
    "config_fingerprint",
    "read_checkpoint",
    "write_checkpoint",
    "AggregationError",
    "AGGREGATION_RULES",
    "RobustAggregator",
    "coordinate_median",
    "trimmed_mean",
    "krum_scores",
    "krum_select",
    "clipped_norm_average",
    "masked_robust_average",
    "ATTACKS",
    "DATA_ATTACKS",
    "UPDATE_ATTACKS",
    "ThreatPlan",
    "RoundThreats",
]
