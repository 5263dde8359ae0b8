"""FedProphet hyperparameters (paper §B.4 defaults)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flsim.base import FLConfig, config_field
from repro.nn.losses import check_mu


@dataclass
class FedProphetConfig(FLConfig):
    """Extends the shared FL config with FedProphet's knobs: Eq. 9's μ,
    APA's γ and α schedule, the partitioner's R_min, the per-module stage
    (Algorithm 2's outer loop), the Table 3 ablation switches and the
    cascade validation.  Each field declares its meaning (all are
    semantic)."""

    mu: float = config_field(
        1e-5, "Strong-convexity coefficient of the early-exit loss (Eq. 9; the paper's "
              "optimum, Fig. 8); finite and ≥ 0.")
    gamma: float = config_field(0.05, "APA accuracy-gap threshold (Eq. 12).")
    delta_alpha: float = config_field(0.1, "APA scaling-factor step.")
    alpha_init: float = config_field(
        0.3, "APA initial scaling factor; 0 < alpha_min ≤ alpha_init ≤ alpha_max.")
    alpha_min: float = config_field(0.05, "APA scaling-factor floor.")
    alpha_max: float = config_field(2.0, "APA scaling-factor ceiling.")
    r_min_bytes: Optional[int] = config_field(
        None, "Partitioner memory floor R_min in bytes (None = r_min_fraction of the "
              "full-model requirement).")
    r_min_fraction: float = config_field(
        0.2, "R_min as a fraction of the full-model requirement (the paper's is about a "
             "fifth), in (0, 1].")
    rounds_per_module: int = config_field(
        500, "Per-module round cap (Algorithm 2's outer loop; 500 in the paper); ≥ 1.")
    patience: int = config_field(
        50, "Early-stop patience per module stage, in rounds without a validation-accuracy "
            "gain; ≥ 1.")
    use_apa: bool = config_field(True, "Adaptive Perturbation Adjustment ablation switch (Table 3).")
    use_dma: bool = config_field(True, "Differentiated Module Assignment ablation switch (Table 3).")
    use_prefix_cache: bool = config_field(
        True, "Stage-scoped frozen-prefix activation cache; results are bit-identical on or "
              "off, yet it stays semantic so that recorded FedProphet ids hold.")
    val_samples: int = config_field(128, "Validation-set size for cascade_eval; ≥ 1.")
    val_pgd_steps: int = config_field(10, "PGD steps for cascade_eval's robust pass; ≥ 1.")
    feature_pgd_steps: Optional[int] = config_field(
        None, "PGD steps for feature-space attacks (None = train_pgd_steps); ≥ 1 when set.")

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
