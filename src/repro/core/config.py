"""FedProphet hyperparameters (paper §B.4 defaults)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flsim.base import FLConfig
from repro.nn.losses import check_mu


@dataclass
class FedProphetConfig(FLConfig):
    """Extends the shared FL config with FedProphet's knobs.

    Attributes
    ----------
    mu:
        Strong-convexity coefficient of the early-exit loss (Eq. 9);
        the paper's optimum is 1e-5 (Fig. 8).
    gamma / delta_alpha / alpha_init:
        APA threshold, step, and initial scaling factor (Eq. 12, §7.3).
    r_min_bytes / r_min_fraction:
        Minimal reserved memory for the partitioner; if ``r_min_bytes`` is
        None it is ``r_min_fraction`` of the full-model requirement (the
        paper uses ~20 %).
    rounds_per_module / patience:
        Per-module round cap (500 in the paper) and early-stop patience
        (50 rounds without validation-accuracy improvement).
    use_apa / use_dma:
        Ablation switches (Table 3).
    use_prefix_cache:
        Memoise frozen-prefix activations per (client, sample).  The cache
        is version-keyed on the module *stage*: aggregation during a stage
        only rewrites atoms at or after the current module, so entries stay
        valid across the stage's rounds and clients re-sampled in later
        rounds hit instead of re-forwarding the prefix.  Pure
        execution-engine optimisation: results are bit-identical with the
        cache on or off.
    feature_pgd_steps:
        PGD steps for the inner maximisation on intermediate features
        (defaults to ``train_pgd_steps``).
    """

    mu: float = 1e-5
    gamma: float = 0.05
    delta_alpha: float = 0.1
    alpha_init: float = 0.3
    alpha_min: float = 0.05
    alpha_max: float = 2.0
    r_min_bytes: Optional[int] = None
    r_min_fraction: float = 0.2
    rounds_per_module: int = 500
    patience: int = 50
    use_apa: bool = True
    use_dma: bool = True
    use_prefix_cache: bool = True
    val_samples: int = 128
    val_pgd_steps: int = 10
    feature_pgd_steps: Optional[int] = None

    def __post_init__(self):
        super().__post_init__()
        check_mu(self.mu)
        sizes = ["rounds_per_module", "patience", "val_samples", "val_pgd_steps"]
        if self.feature_pgd_steps is not None:
            sizes.append("feature_pgd_steps")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.alpha_min <= self.alpha_init <= self.alpha_max:
            raise ValueError(
                "alphas must satisfy 0 < alpha_min <= alpha_init <= alpha_max, got "
                f"alpha_min={self.alpha_min}, alpha_init={self.alpha_init}, "
                f"alpha_max={self.alpha_max}"
            )
        if not (0 < self.r_min_fraction <= 1):
            raise ValueError("r_min_fraction must be in (0, 1]")

    @property
    def attack_steps_features(self) -> int:
        return (
            self.feature_pgd_steps
            if self.feature_pgd_steps is not None
            else self.train_pgd_steps
        )
