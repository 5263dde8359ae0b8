"""Seeded fault injection: dropouts, stragglers, flaky clients with retry.

Production FL coordinators treat partial failure as the common case:
clients drop out mid-round, straggle past any useful deadline, or fail
transiently and need retrying.  :class:`FaultPlan` injects exactly those
scenarios into the simulation — **deterministically**.  Every decision is
a pure function of ``(plan seed, round, client id)`` via a dedicated
counter-derived RNG (``np.random.default_rng([seed, round, cid])``), so
the same plan produces the same faults at any fusion width, and the
experiment's own RNG stream is never touched: a plan with
all probabilities zero (or ``fault_plan=None``) reproduces the fault-free
engine bit for bit.

All fault latency is *simulated* time (the retry backoff, the straggler
slowdown, the server-side ``client_timeout`` wait) — never wall clock —
which keeps the engine-wide determinism contract intact.

Faults compose with the population engine's *availability windows*
(:meth:`repro.flsim.population.ClientPopulation.available`) by layering:
availability restricts which clients can be **sampled** at all (a
deterministic per-client duty cycle, drawn from its own
``[AVAIL_STREAM, population seed, cid]`` stream), while the fault plan
then drops, slows, or retries clients that *were* sampled — modelling
the difference between a phone that is offline tonight and one that
crashes mid-round.  The streams are disjoint, so either layer can be
switched off without perturbing the other.

The per-round product is a :class:`RoundFaults`: which sampled clients
survive, how the survivors' latency costs are scaled, and whether the
round aborts because the surviving cohort fell below
``min_clients_per_round``.  The run loops filter the cohort *before*
training, so every baseline's existing aggregation rule (FedAvg, masked
partial averages, FedRBN's dual-BN merge, FedProphet's per-module
merges) reweights over the survivors with no fault-specific code.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.hardware.latency import LocalTrainingCost


# -- shared plan-JSON schema validation ------------------------------------
# Used by FaultPlan and ThreatPlan alike: a malformed plan file must fail
# at load time with an error naming the offending field, not deep inside
# the run loop.

def _hint_name(hint: Any) -> str:
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return " or ".join(_hint_name(a) for a in typing.get_args(hint))
    if hint is type(None):
        return "null"
    return getattr(hint, "__name__", str(hint))


def _type_ok(value: Any, hint: Any) -> bool:
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return any(_type_ok(value, a) for a in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is bool:
        return isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is str:
        return isinstance(value, str)
    return isinstance(value, hint)


def validate_plan_dict(data: Any, cls: type, label: str) -> Dict[str, Any]:
    """Schema-check a decoded plan JSON object against a plan dataclass.

    Unknown keys and type mismatches raise :class:`ValueError` naming the
    offending field; range checks stay in the dataclass ``__post_init__``.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{label} JSON must be an object, got {type(data).__name__}"
        )
    hints = typing.get_type_hints(cls)
    fields = sorted(f.name for f in dataclasses.fields(cls))
    for key, value in data.items():
        if key not in fields:
            raise ValueError(
                f"{label}: unknown field {key!r} "
                f"(valid fields: {', '.join(fields)})"
            )
        if not _type_ok(value, hints[key]):
            raise ValueError(
                f"{label}: field {key!r} expects {_hint_name(hints[key])}, "
                f"got {type(value).__name__} ({value!r})"
            )
    return data


def load_plan_spec(cls: type, spec: str, label: str):
    """Parse a CLI plan spec: inline JSON (``{...}``) or a JSON file path."""
    spec = spec.strip()
    if spec.startswith("{"):
        return cls.from_json(spec)
    if not os.path.exists(spec):
        raise ValueError(
            f"{label} spec {spec!r} is neither inline JSON nor an "
            f"existing file"
        )
    with open(spec, encoding="utf-8") as f:
        return cls.from_json(f.read())


@dataclass(frozen=True)
class FaultOutcome:
    """What happened to one sampled client this round.

    ``kind`` is one of ``"ok"``, ``"dropout"``, ``"straggler"``,
    ``"flaky"``.  ``latency_scale`` multiplies the client's training cost
    (the straggler slowdown, or the repeated attempts of a flaky client);
    ``extra_delay_s`` adds the flaky client's exponential-backoff waits.
    ``timed_out`` marks a client excluded because its (scaled) latency
    exceeded ``client_timeout``.
    """

    kind: str
    survived: bool
    attempts: int = 1
    latency_scale: float = 1.0
    extra_delay_s: float = 0.0
    timed_out: bool = False


@dataclass
class RoundFaults:
    """The fault plan's verdict for one sampled cohort.

    ``outcomes`` aligns with the *sampled* cohort; ``survivors`` indexes
    into it.  ``timeout_floor_s`` is the simulated time a synchronous
    server waits before giving up on the round's non-survivors
    (``client_timeout``, when set and anybody dropped); the async server
    never waits, so only the synchronous clock applies it.
    """

    round_idx: int
    outcomes: List[FaultOutcome]
    survivors: List[int]
    dropped_cids: List[int]
    aborted: bool
    timeout_floor_s: Optional[float] = None

    @property
    def retries(self) -> Dict[int, int]:
        """Retry count per surviving flaky client position (observability)."""
        return {
            i: oc.attempts - 1
            for i, oc in enumerate(self.outcomes)
            if oc.kind == "flaky" and oc.attempts > 1
        }

    def scale_costs(
        self, costs: Sequence[LocalTrainingCost]
    ) -> List[LocalTrainingCost]:
        """Apply fault latency to the *survivors'* costs (input-aligned).

        Straggler slowdown and flaky re-attempts scale both components
        (retraining repeats the memory swapping too); the backoff waits
        are pure data-access time.
        """
        out: List[LocalTrainingCost] = []
        for idx, cost in zip(self.survivors, costs):
            oc = self.outcomes[idx]
            if oc.latency_scale != 1.0 or oc.extra_delay_s:
                cost = LocalTrainingCost(
                    cost.compute_s * oc.latency_scale,
                    cost.access_s * oc.latency_scale + oc.extra_delay_s,
                )
            out.append(cost)
        return out


@dataclass(frozen=True)
class FaultPlan:
    """Per-client fault scenarios, drawn from a dedicated seeded stream.

    Each sampled client suffers at most one fault per round, drawn by a
    single uniform variate against the (mutually exclusive) probability
    bands in order: dropout, straggler, flaky.

    * **dropout** — the client vanishes mid-round and never reports back;
    * **straggler** — the client completes, ``straggler_slowdown`` times
      slower (and is dropped instead if that exceeds ``client_timeout``);
    * **flaky** — the first attempt fails; up to ``max_client_retries``
      retries follow, each preceded by an exponential backoff of
      ``backoff_base_s * 2**attempt`` simulated seconds and succeeding
      with probability ``retry_success_prob``.  Exhausted retries drop
      the client.
    """

    seed: int = 0
    dropout_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_slowdown: float = 4.0
    flaky_prob: float = 0.0
    retry_success_prob: float = 0.5
    backoff_base_s: float = 1.0

    def __post_init__(self):
        for name in ("dropout_prob", "straggler_prob", "flaky_prob",
                     "retry_success_prob"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.dropout_prob + self.straggler_prob + self.flaky_prob > 1.0:
            raise ValueError(
                "dropout_prob + straggler_prob + flaky_prob cannot exceed 1 "
                "(faults are mutually exclusive per client per round)"
            )
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.backoff_base_s < 0.0:
            raise ValueError("backoff_base_s must be >= 0")

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire (inactive plans cost nothing)."""
        return (self.dropout_prob + self.straggler_prob + self.flaky_prob) > 0.0

    # -- the deterministic decision function --------------------------------
    def outcome(self, round_idx: int, cid: int, max_retries: int) -> FaultOutcome:
        """This client's fate this round: a pure function of (seed, round, cid)."""
        rng = np.random.default_rng([self.seed, round_idx, cid])
        u = rng.random()
        if u < self.dropout_prob:
            return FaultOutcome("dropout", survived=False)
        if u < self.dropout_prob + self.straggler_prob:
            return FaultOutcome(
                "straggler", survived=True, latency_scale=self.straggler_slowdown
            )
        if u < self.dropout_prob + self.straggler_prob + self.flaky_prob:
            attempts, delay, survived = 1, 0.0, False
            for retry in range(max_retries):
                delay += self.backoff_base_s * (2.0**retry)
                attempts += 1
                if rng.random() < self.retry_success_prob:
                    survived = True
                    break
            return FaultOutcome(
                "flaky",
                survived=survived,
                attempts=attempts,
                latency_scale=float(attempts),
                extra_delay_s=delay,
            )
        return FaultOutcome("ok", survived=True)

    def plan_round(
        self,
        round_idx: int,
        cids: Sequence[int],
        cost_estimates_s: Optional[Sequence[Optional[float]]],
        *,
        client_timeout: Optional[float],
        max_retries: int,
        min_clients: int,
    ) -> RoundFaults:
        """Decide the whole sampled cohort's fate for one round.

        ``cost_estimates_s`` (per-client total seconds, pre-fault) enables
        the ``client_timeout`` check — a surviving straggler/flaky client
        whose scaled latency exceeds the timeout is excluded like a
        dropout.  ``None`` estimates skip the timeout check (the decision
        must stay a pure function of known inputs).
        """
        outcomes = [self.outcome(round_idx, cid, max_retries) for cid in cids]
        survivors: List[int] = []
        dropped: List[int] = []
        for i, (cid, oc) in enumerate(zip(cids, outcomes)):
            alive = oc.survived
            if (
                alive
                and client_timeout is not None
                and cost_estimates_s is not None
                and cost_estimates_s[i] is not None
            ):
                scaled = cost_estimates_s[i] * oc.latency_scale + oc.extra_delay_s
                if scaled > client_timeout:
                    oc = dataclasses.replace(oc, survived=False, timed_out=True)
                    outcomes[i] = oc
                    alive = False
            if alive:
                survivors.append(i)
            else:
                dropped.append(int(cid))
        return RoundFaults(
            round_idx=round_idx,
            outcomes=outcomes,
            survivors=survivors,
            dropped_cids=dropped,
            aborted=len(survivors) < min_clients,
            timeout_floor_s=(
                client_timeout if (dropped and client_timeout is not None) else None
            ),
        )

    # -- (de)serialization ---------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = validate_plan_dict(json.loads(text), cls, "fault plan")
        return cls(**data)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI spec: inline JSON (``{...}``) or a JSON file path."""
        return load_plan_spec(cls, spec, "fault plan")
