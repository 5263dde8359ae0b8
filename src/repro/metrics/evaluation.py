"""Declarative model evaluation: clean / PGD-20 / AutoAttack accuracy (§7.1).

Evaluation used to be an inline loop (clean pass, then per-batch PGD, then
per-batch AutoAttack, all threaded through one RNG), which forced it to run
serially.  It is now *declarative*: an :class:`EvalPlan` lists the
:class:`AttackSpec`\\ s to measure, and an executor — by default the serial
:class:`repro.flsim.eval_executor.EvalExecutor` — decomposes the plan into
independent ``(attack, sample range)`` shards and reduces their per-shard
correct counts into an :class:`EvalResult`.

Determinism is *shard-stable*: each shard derives its own RNG from
``(plan seed, attack index, shard index)``, so the result is a pure
function of the plan and the model — independent of the executor backend,
worker count, and scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.attacks import ModelWithLoss, PGDConfig, auto_attack_lite, pgd_attack
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module

ATTACK_KINDS = ("clean", "pgd", "autoattack")


def seed_entropy(seed) -> list:
    """Normalise an int / tuple-of-ints seed into SeedSequence entropy."""
    items = seed if isinstance(seed, (tuple, list)) else [seed]
    return [int(s) & (2**63 - 1) for s in items]


def shard_rng(seed, attack_idx: int, shard_idx: int) -> np.random.Generator:
    """The RNG of one evaluation shard.

    Derived from ``(plan seed, attack, shard)`` only, so any decomposition
    of an evaluation into the same shards draws the same random numbers —
    the property that makes parallel evaluation bit-identical to serial.
    """
    return np.random.default_rng(seed_entropy(seed) + [attack_idx + 1, shard_idx])


@dataclass(frozen=True)
class AttackSpec:
    """One accuracy column of an evaluation: an attack and its budget.

    ``kind`` selects the perturbation: ``"clean"`` (identity), ``"pgd"``
    (:func:`repro.attacks.pgd.pgd_attack`) or ``"autoattack"``
    (:func:`repro.attacks.autoattack.auto_attack_lite`, the FGSM → PGD →
    APGD-CE worst-case ensemble, each member run on the points the one
    before it left standing).  ``name`` keys the measured accuracy in the
    result.
    """

    name: str
    kind: str = "clean"
    eps: float = 0.0
    steps: int = 0
    norm: str = "linf"
    restarts: int = 2
    clip: Optional[Tuple[float, float]] = (0.0, 1.0)

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(
                f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}"
            )
        if self.kind != "clean" and (self.eps <= 0 or self.steps < 1):
            raise ValueError(f"attack {self.name!r} needs eps > 0 and steps >= 1")

    # -- canonical specs ----------------------------------------------------
    @staticmethod
    def clean(name: str = "clean") -> "AttackSpec":
        return AttackSpec(name=name, kind="clean")

    @staticmethod
    def pgd(eps: float, steps: int, name: str = "pgd", norm: str = "linf",
            clip: Optional[Tuple[float, float]] = (0.0, 1.0)) -> "AttackSpec":
        return AttackSpec(name=name, kind="pgd", eps=eps, steps=steps,
                          norm=norm, clip=clip)

    @staticmethod
    def autoattack(eps: float, steps: int, name: str = "aa", restarts: int = 2,
                   norm: str = "linf") -> "AttackSpec":
        return AttackSpec(name=name, kind="autoattack", eps=eps, steps=steps,
                          restarts=restarts, norm=norm)

    @property
    def cacheable(self) -> bool:
        """Whether shards of this attack forward *unperturbed* inputs.

        Only then can a frozen-prefix activation cache serve the forward —
        attacks perturb the raw input, which invalidates any prefix reuse.
        """
        return self.kind == "clean"

    def perturb(
        self,
        mwl: ModelWithLoss,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Adversarial inputs for one shard (identity for ``clean``)."""
        if self.kind == "clean":
            return x
        if self.kind == "pgd":
            return pgd_attack(
                mwl, x, y,
                PGDConfig(eps=self.eps, steps=self.steps, norm=self.norm,
                          clip=self.clip),
                rng=rng,
            )
        return auto_attack_lite(
            mwl, x, y, eps=self.eps, norm=self.norm, steps=self.steps,
            restarts=self.restarts, clip=self.clip, rng=rng,
        )


@dataclass(frozen=True)
class EvalPlan:
    """A declarative evaluation request.

    ``seed`` drives both the ``max_samples`` subsample draw and the
    per-shard attack RNGs (see :func:`shard_rng`); it may be an int or a
    tuple of ints.  ``batch_size`` is the shard granularity — the unit of
    work the evaluation engine schedules.
    """

    attacks: Tuple[AttackSpec, ...]
    batch_size: int = 128
    max_samples: Optional[int] = None
    seed: object = 0

    def __post_init__(self):
        if not self.attacks:
            raise ValueError("an EvalPlan needs at least one AttackSpec")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        names = [a.name for a in self.attacks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attack names in plan: {names}")

    @classmethod
    def standard(
        cls,
        eps: float,
        pgd_steps: int,
        with_autoattack: bool = False,
        max_samples: Optional[int] = None,
        batch_size: int = 128,
        seed: object = 0,
    ) -> "EvalPlan":
        """The paper's standard triple: clean, PGD-k, optional AutoAttack."""
        attacks = [AttackSpec.clean()]
        if eps > 0 and pgd_steps > 0:
            attacks.append(AttackSpec.pgd(eps, pgd_steps))
            if with_autoattack:
                attacks.append(AttackSpec.autoattack(eps, pgd_steps))
        return cls(attacks=tuple(attacks), batch_size=batch_size,
                   max_samples=max_samples, seed=seed)

    def to_result(self, accuracies: Mapping[str, float]) -> "EvalResult":
        """Fold per-attack accuracies into the paper's reporting triple.

        Columns the plan did not measure stay ``None`` — including
        ``clean_acc`` for clean-less plans — so an absent measurement is
        never mistaken for a measured 0 %.
        """
        return EvalResult(
            clean_acc=accuracies.get("clean"),
            pgd_acc=accuracies.get("pgd"),
            aa_acc=accuracies.get("aa"),
            attack_accs=dict(accuracies),
        )


@dataclass
class EvalResult:
    """Accuracy triple reported in the paper's tables.

    ``attack_accs`` additionally keys every measured attack by its spec
    name (a superset of the triple for custom plans).  Unmeasured columns
    are ``None``.
    """

    clean_acc: Optional[float]
    pgd_acc: Optional[float] = None
    aa_acc: Optional[float] = None
    attack_accs: Optional[Dict[str, float]] = None

    def as_dict(self) -> dict:
        return {"clean_acc": self.clean_acc, "pgd_acc": self.pgd_acc, "aa_acc": self.aa_acc}


def evaluate_model(
    model: Module,
    dataset: ArrayDataset,
    eps: float = 8.0 / 255.0,
    pgd_steps: int = 20,
    with_autoattack: bool = False,
    max_samples: Optional[int] = None,
    batch_size: int = 128,
    head: Optional[Module] = None,
    rng: Optional[np.random.Generator] = None,
    seed: object = None,
    executor=None,
) -> EvalResult:
    """Evaluate clean and adversarial accuracy on (a subset of) a dataset.

    Thin compatibility wrapper: builds the standard :class:`EvalPlan` and
    submits it to an :class:`~repro.flsim.eval_executor.EvalExecutor`
    (serial when ``executor`` is None).  ``seed`` fixes the plan seed
    directly; the legacy ``rng`` argument, when given instead, is consumed
    once to derive it.  Parallel executors need per-slot model replicas —
    use :meth:`EvalExecutor.run` with a slot-aware target for that; a bare
    module is only safe on the serial backend.
    """
    from repro.flsim.eval_executor import EvalExecutor, EvalTarget

    if seed is None:
        source = rng if rng is not None else np.random.default_rng(0)
        seed = int(source.integers(0, 2**63))
    plan = EvalPlan.standard(
        eps=eps, pgd_steps=pgd_steps, with_autoattack=with_autoattack,
        max_samples=max_samples, batch_size=batch_size, seed=seed,
    )
    eval_executor = executor if executor is not None else EvalExecutor()
    return eval_executor.run(
        plan, dataset, lambda slot: EvalTarget(ModelWithLoss(model, head=head))
    )
