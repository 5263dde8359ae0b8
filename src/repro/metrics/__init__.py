"""Evaluation metrics: clean accuracy, PGD accuracy, AutoAttack accuracy."""

from repro.metrics.evaluation import (
    AttackSpec,
    EvalPlan,
    EvalResult,
    evaluate_model,
    shard_rng,
)

__all__ = [
    "AttackSpec",
    "EvalPlan",
    "evaluate_model",
    "EvalResult",
    "shard_rng",
]
