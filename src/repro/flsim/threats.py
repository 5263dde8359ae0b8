"""Seeded update-space threats: Byzantine clients and poisoning attacks.

The eval engine covers *input-space* adversaries (FGSM/PGD/AutoAttack);
this module covers *update-space* ones — clients that lie.  A
:class:`ThreatPlan` mirrors the fault layer (:mod:`repro.flsim.faults`):
each sampled client is marked Byzantine by one uniform draw from a
dedicated counter-derived RNG stream
(``np.random.default_rng([_THREAT_STREAM, seed, round, cid])``), so
attacker selection and behaviour are pure functions of
``(plan seed, round, client id)`` — bit-identical whatever the fusion
width, and a plan with
``byzantine_prob=0`` (or ``threat_plan=None``) reproduces the clean run
bit for bit.  The domain-separation constant keeps the draws independent
of a :class:`~repro.flsim.faults.FaultPlan` sharing the same seed.

Two attack families, both applied *before* aggregation with no
baseline-specific code:

* **data poisoning** — the Byzantine client trains honestly on a
  poisoned shard.  ``label_flip`` rotates labels by ``flip_offset``
  (mod ``num_classes``); ``backdoor`` stamps a ``trigger_size`` ×
  ``trigger_size`` patch of ``trigger_value`` into the corner of a
  ``backdoor_fraction`` of the shard and relabels those samples to
  ``backdoor_target``.  The run loop swaps the client's dataset for the
  poisoned copy at sampling time, so every baseline trains on it
  unchanged.
* **update poisoning** — the client trains honestly and then lies about
  the result.  ``sign_flip`` reports ``base - (state - base)`` (the
  negated delta), ``model_replacement`` reports
  ``base + scale * (state - base)`` (the boosted-delta attack), and
  ``gaussian`` adds ``noise_std``-scaled Gaussian noise.  The transform
  is applied to the outgoing update by a structural walk
  (:meth:`ThreatPlan.poison_update`) that handles every baseline's
  update shape — plain state dicts, the partial-training family's
  ``(scattered_state, mask, weight)`` triples (only in-mask entries are
  touched), and FedProphet's ``(segment_state, head_state, ...)``
  tuples (the segment state, whose keys the aggregation base covers,
  is poisoned; auxiliary head states are left honest).

Defences live in :mod:`repro.flsim.robust_agg`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.flsim.faults import load_plan_spec, validate_plan_dict

StateDict = Dict[str, np.ndarray]

#: Domain-separation constant for the threat RNG stream: a FaultPlan and a
#: ThreatPlan sharing the same ``seed`` must not draw correlated variates.
_THREAT_STREAM = 0x7B3A

DATA_ATTACKS = ("label_flip", "backdoor")
UPDATE_ATTACKS = ("sign_flip", "gaussian", "model_replacement")
ATTACKS = DATA_ATTACKS + UPDATE_ATTACKS


@dataclass
class RoundThreats:
    """The threat plan's verdict for one sampled cohort.

    ``byzantine`` indexes into the sampled cohort; ``byzantine_cids``
    carries the matching client ids (what the journal and the update
    poisoner key on).
    """

    round_idx: int
    attack: str
    byzantine: List[int]
    byzantine_cids: List[int]


@dataclass(frozen=True)
class ThreatPlan:
    """Seeded Byzantine-client scenarios, mirroring :class:`FaultPlan`.

    Every sampled client turns Byzantine this round with probability
    ``byzantine_prob`` (one dedicated-stream draw per ``(round, cid)``)
    within the active window ``[start_round, end_round)``; Byzantine
    clients all mount the same ``attack``.  See the module docstring for
    the attack semantics and each knob below for its parameter.
    """

    seed: int = 0
    byzantine_prob: float = 0.0
    attack: str = "label_flip"
    #: label_flip: labels map to ``(y + flip_offset) % num_classes``.
    flip_offset: int = 1
    #: backdoor: poisoned samples are relabelled to this class ...
    backdoor_target: int = 0
    #: ... for this fraction of the client's shard ...
    backdoor_fraction: float = 1.0
    #: ... with a trigger patch of this side length ...
    trigger_size: int = 2
    #: ... and this pixel value stamped in the bottom-right corner.
    trigger_value: float = 1.0
    #: model_replacement: the reported delta is boosted by this factor.
    scale: float = 10.0
    #: gaussian: std-dev of the additive update noise.
    noise_std: float = 0.1
    #: Attack window: rounds in ``[start_round, end_round)`` (None = open).
    start_round: int = 0
    end_round: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.byzantine_prob <= 1.0):
            raise ValueError(
                f"byzantine_prob must be in [0, 1], got {self.byzantine_prob}"
            )
        if self.attack not in ATTACKS:
            raise ValueError(
                f"attack must be one of {ATTACKS}, got {self.attack!r}"
            )
        if not (0.0 <= self.backdoor_fraction <= 1.0):
            raise ValueError(
                f"backdoor_fraction must be in [0, 1], "
                f"got {self.backdoor_fraction}"
            )
        if self.trigger_size < 1:
            raise ValueError("trigger_size must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.start_round < 0:
            raise ValueError("start_round must be >= 0")
        if self.end_round is not None and self.end_round <= self.start_round:
            raise ValueError("end_round must be > start_round (or null)")

    @property
    def active(self) -> bool:
        """Whether any client can ever turn Byzantine."""
        return self.byzantine_prob > 0.0

    @property
    def is_data_attack(self) -> bool:
        return self.attack in DATA_ATTACKS

    @property
    def is_update_attack(self) -> bool:
        return self.attack in UPDATE_ATTACKS

    # -- the deterministic decision function --------------------------------
    def _rng(self, round_idx: int, cid: int, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(
            [_THREAT_STREAM, self.seed, round_idx, cid, salt]
        )

    def in_window(self, round_idx: int) -> bool:
        if round_idx < self.start_round:
            return False
        return self.end_round is None or round_idx < self.end_round

    def is_byzantine(self, round_idx: int, cid: int) -> bool:
        """This client's allegiance this round: pure in (seed, round, cid)."""
        if not self.active or not self.in_window(round_idx):
            return False
        return bool(self._rng(round_idx, cid).random() < self.byzantine_prob)

    def plan_round(self, round_idx: int, cids: Sequence[int]) -> RoundThreats:
        """Decide the whole sampled cohort's allegiance for one round."""
        byz = [
            i for i, cid in enumerate(cids) if self.is_byzantine(round_idx, cid)
        ]
        return RoundThreats(
            round_idx=round_idx,
            attack=self.attack,
            byzantine=byz,
            byzantine_cids=[int(cids[i]) for i in byz],
        )

    # -- data poisoning ------------------------------------------------------
    def poison_dataset(
        self,
        dataset: ArrayDataset,
        round_idx: int,
        cid: int,
        num_classes: int,
    ) -> ArrayDataset:
        """A poisoned copy of one Byzantine client's shard (input untouched).

        ``label_flip`` shares the input tensor (only labels change);
        ``backdoor`` copies it to stamp the trigger.  Which samples carry
        the backdoor is a dedicated-stream draw, so the poisoned shard is
        identical at any fusion width.  The copy lives in a fresh
        per-round concrete-dataset ``FLClient`` outside the population's
        LRU, and the honest client holds no shard to mutate (it gathers
        its *clean* rows on every read), so poisoning is per-``(round,
        cid)``, never sticky.
        """
        if self.attack == "label_flip":
            y = (np.asarray(dataset.y) + self.flip_offset) % num_classes
            return ArrayDataset(dataset.x, y.astype(np.asarray(dataset.y).dtype))
        if self.attack == "backdoor":
            x = np.array(dataset.x, copy=True)
            y = np.array(dataset.y, copy=True)
            n = len(y)
            k = int(round(self.backdoor_fraction * n))
            if k > 0:
                rng = self._rng(round_idx, cid, salt=1)
                idx = np.sort(rng.permutation(n)[:k])
                ts = min(self.trigger_size, x.shape[-2], x.shape[-1])
                x[idx, ..., -ts:, -ts:] = np.asarray(
                    self.trigger_value, dtype=x.dtype
                )
                y[idx] = self.backdoor_target % num_classes
            return ArrayDataset(x, y)
        raise ValueError(f"{self.attack!r} is not a data attack")

    # -- update poisoning ----------------------------------------------------
    def poison_state(
        self,
        state: StateDict,
        base: StateDict,
        round_idx: int,
        cid: int,
        mask: Optional[StateDict] = None,
    ) -> StateDict:
        """The Byzantine version of one reported state dict.

        Only floating keys present in ``base`` with matching shapes are
        transformed (integer buffers like BN counters stay honest); with
        a ``mask`` (the partial-training family), entries outside the
        mask keep the reported value — scattered zeros stay zeros, so the
        masked aggregation's bookkeeping is untouched.  Gaussian noise
        draws from the dedicated stream in key order, so the poisoned
        update is identical at any fusion width.
        """
        if not self.is_update_attack:
            raise ValueError(f"{self.attack!r} is not an update attack")
        rng = self._rng(round_idx, cid, salt=2)
        out: StateDict = {}
        for key, value in state.items():
            ref = base.get(key)
            if (
                ref is None
                or not np.issubdtype(np.asarray(value).dtype, np.floating)
                or np.asarray(ref).shape != np.asarray(value).shape
            ):
                out[key] = value
                continue
            if self.attack == "sign_flip":
                poisoned = 2.0 * ref - value
            elif self.attack == "model_replacement":
                poisoned = ref + self.scale * (value - ref)
            else:  # gaussian
                noise = rng.standard_normal(value.shape)
                poisoned = value + self.noise_std * noise
            poisoned = poisoned.astype(value.dtype, copy=False)
            if mask is not None and key in mask:
                poisoned = np.where(mask[key] > 0, poisoned, value)
            out[key] = poisoned
        return out

    def poison_update(
        self, update: Any, base: StateDict, round_idx: int, cid: int
    ) -> Any:
        """Apply the update attack to one client's reported update.

        Structural walk over the baseline families' update shapes:

        * a plain state dict is poisoned directly;
        * a tuple/list whose first two elements are dicts over the *same*
          keys is a ``(scattered_state, mask, ...)`` partial-training
          update — the state is poisoned inside the mask only;
        * any other tuple/list has its first state-dict element poisoned
          (FedProphet's ``(segment_state, head_state, cost, ...)``: the
          segment keys match ``base``; auxiliary heads stay honest);
        * anything else is returned unchanged.
        """
        if isinstance(update, dict):
            return self.poison_state(update, base, round_idx, cid)
        if isinstance(update, (tuple, list)):
            items = list(update)
            if (
                len(items) >= 2
                and isinstance(items[0], dict)
                and isinstance(items[1], dict)
                and set(items[0]) == set(items[1])
            ):
                items[0] = self.poison_state(
                    items[0], base, round_idx, cid, mask=items[1]
                )
            else:
                for i, item in enumerate(items):
                    if isinstance(item, dict):
                        items[i] = self.poison_state(
                            item, base, round_idx, cid
                        )
                        break
            return type(update)(items) if isinstance(update, tuple) else items
        return update

    # -- (de)serialization ---------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ThreatPlan":
        data = validate_plan_dict(json.loads(text), cls, "threat plan")
        return cls(**data)

    @classmethod
    def parse(cls, spec: str) -> "ThreatPlan":
        """Parse a CLI spec: inline JSON (``{...}``) or a JSON file path."""
        return load_plan_spec(cls, spec, "threat plan")
