"""Synchronous rounds pinned against digests recorded *before* PR 15.

PR 15 deleted the barrier ``run_round`` of jFAT, FedRBN and the
partial-training family: their synchronous round is now the base class's
default — one staleness-0 merge event driven through the ``async_*``
hooks.  ``tests/data/sync_round_digests.json`` holds what the hand-written
barrier rounds produced at the parent commit (8c9150b) for the 40
configurations spelled out below; every case must keep reproducing it bit
for bit (weights, simulated clock, cumulative compute, abort pattern).

``tests/data/sync_jfat_faults_median.jsonl`` is a journal the parent's
sync jFAT loop wrote (faults + median aggregation); it must still verify
under :func:`repro.flsim.replay.replay_run`.  PR 16 made ``fusion_width``
non-semantic, which changed every config fingerprint: the journal's
``run_start.fingerprint`` value was rewritten and nothing else
(``test_golden_journal_is_the_parents_but_for_the_fingerprint``).

The two engine rows are the per-item reference (``serial``,
``fusion_width=1``) and fused cohorts of width 4 (what
``executor_backend="batched"`` selected when the digests were recorded —
the row keeps that name as its digest key).
Every ``serial`` value must also come out of two rows no recording
made: fused at width 3 (a five-client round cut 3 + 2) and on a lazy
population whose two-entry client cache evicts within every round.

The 16 ``feddf`` / ``fedet`` rows pin FedDF-AT and FedET-AT the same way.
They were recorded while both still ran their own barrier round, a serial
loop over the cohort that ignored the executor, before they moved onto
the ``async_*`` hooks.  So one value per (method, heterogeneity,
scenario) is the reference for both the ``serial`` and the ``batched``
row.  The two-member family and the memory-bracketing pool put clients
on both architectures, and each row hashes every prototype.
``tests/data/feddf_parent_run.jsonl{,.ckpt}`` is a FedDF journal and
checkpoint from that tree: it must replay, and resume bit-identically.

Re-record (only from a commit whose behaviour is the reference) with
``PYTHONPATH=src python tests/test_sync_round_digests.py``.
"""

import functools
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro.baselines import (
    FedDFAT,
    FedDropAT,
    FedETAT,
    FedRBN,
    FedRolexAT,
    HeteroFLAT,
    JointFAT,
)
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.flsim.faults import FaultPlan
from repro.flsim.replay import replay_run
from repro.flsim.threats import ThreatPlan
from repro.hardware import Device, DeviceSampler
from repro.hardware.memory import MemoryModel
from repro.models import build_cnn, build_vgg
from repro.nn import DualBatchNorm2d
from tests.helpers import record_cohort_widths

pytestmark = pytest.mark.scheduler

DATA = os.path.join(os.path.dirname(__file__), "data")
DIGESTS = os.path.join(DATA, "sync_round_digests.json")
JOURNAL = os.path.join(DATA, "sync_jfat_faults_median.jsonl")
DISTILLATION_JOURNAL = os.path.join(DATA, "feddf_parent_run.jsonl")


def _vgg(rng, **kw):
    return build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng, **kw)


def _cnn(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


FAMILY = {
    "small": lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=2, rng=rng),
    "large": _cnn,
}
METHODS = {
    "jfat": (JointFAT, _vgg),
    "fedrbn": (FedRBN, lambda rng: _vgg(rng, bn_cls=DualBatchNorm2d)),
    "heterofl": (HeteroFLAT, _cnn),
    "feddrop": (FedDropAT, _cnn),
    "fedrolex": (FedRolexAT, _cnn),
    "feddf": (functools.partial(FedDFAT, distill_iters=2), FAMILY),
    "fedet": (functools.partial(FedETAT, distill_iters=2), FAMILY),
}
DISTILLATION = ("feddf", "fedet")
HETEROGENEITY = ("balanced", "unbalanced")
ENGINES = {
    "serial": dict(fusion_width=1),
    "batched": dict(fusion_width=4),
}
# Widest cohort the "batched" row really stacks, per (method, heterogeneity):
# the dropout plan and the partial family's per-device masks thin the
# cohorts, and a row that realises 1 pins the per-item path twice.
WIDEST_BATCHED = {
    ("jfat", "balanced"): 4, ("jfat", "unbalanced"): 4,
    ("fedrbn", "balanced"): 4, ("fedrbn", "unbalanced"): 4,
    ("heterofl", "balanced"): 1, ("heterofl", "unbalanced"): 2,
    ("feddrop", "balanced"): 1, ("feddrop", "unbalanced"): 1,
    ("fedrolex", "balanced"): 1, ("fedrolex", "unbalanced"): 2,
    # Distillation clients train per item.
    ("feddf", "balanced"): 1, ("feddf", "unbalanced"): 1,
    ("fedet", "balanced"): 1, ("fedet", "unbalanced"): 1,
}
FAULTS = FaultPlan(seed=10, dropout_prob=0.2, straggler_prob=0.2)
SCENARIOS = {
    "fedavg_faults": dict(fault_plan=FAULTS),
    "median_faults_signflip": dict(
        fault_plan=FAULTS,
        aggregation_rule="median",
        threat_plan=ThreatPlan(seed=7, byzantine_prob=0.3, attack="sign_flip"),
    ),
}
CASES = [
    (method, het, engine, scenario)
    for method in METHODS
    for het in HETEROGENEITY
    for engine in ENGINES
    for scenario in SCENARIOS
]


def _pool(builder):
    """Devices whose memory brackets the model's training footprint.

    Available memory is ``mem * U(0, 0.2)``, so this pool spreads clients
    over the whole regime the baselines branch on: jFAT swaps, FedRBN mixes
    AT and standard-training clients, the partial family slices at widths
    from ``min_ratio`` to 1.  A distillation family brackets its largest
    member at three times the memory, so that even the "unbalanced" draw,
    mostly weak devices, puts clients on both members.
    """
    scale = 1
    if isinstance(builder, dict):
        builder, scale = list(builder.values())[-1], 3
    model = builder(np.random.default_rng(0))
    r_max_gb = scale * MemoryModel(batch_size=8).bytes_for(model, model.in_shape) / 1024**3
    return [
        Device("small", 0.5, 2 * r_max_gb, 2),
        Device("mid", 1.0, 5 * r_max_gb, 4),
        Device("large", 3.0, 12 * r_max_gb, 16),
    ]


def _experiment(method, het, engine, scenario, **overrides):
    cls, builder = METHODS[method]
    cfg = FLConfig(**{
        **dict(
            num_clients=6, clients_per_round=5, local_iters=2, batch_size=8,
            lr=0.02, rounds=3, train_pgd_steps=2, eval_every=0, eval_pgd_steps=2,
            seed=0, min_clients_per_round=4,
        ),
        **ENGINES[engine], **SCENARIOS[scenario], **overrides,
    })
    task = make_cifar10_like(
        image_size=8, train_per_class=20, test_per_class=5, seed=0
    )
    return cls(task, builder, cfg, device_sampler=DeviceSampler(_pool(builder), het))


def _models(exp):
    """What a row hashes: the global model, or every prototype in family order."""
    if hasattr(exp, "prototypes"):
        return [exp.prototypes[name] for name in exp.family]
    return [exp.global_model]


def _record_architectures(exp) -> set:
    """The family members ``exp`` assigns to clients from now on."""
    picked = set()
    pick = exp.pick_architecture

    def recording_pick(state):
        arch = pick(state)
        picked.add(arch)
        return arch

    exp.pick_architecture = recording_pick
    return picked


def _digest(method, het, engine, scenario, **overrides):
    """``(digest, widest cohort the run planned, architectures trained,
    population cache counters)``."""
    with _experiment(method, het, engine, scenario, **overrides) as exp:
        widths = record_cohort_widths(exp)
        picked = _record_architectures(exp) if method in DISTILLATION else None
        history = exp.run()
        sha = hashlib.sha256()
        for model in _models(exp):
            for key, value in sorted(model.state_dict().items()):
                sha.update(key.encode())
                sha.update(np.ascontiguousarray(value).tobytes())
        return {
            "weights_sha256": sha.hexdigest(),
            "clock_s": exp.clock_s.hex(),
            "total_compute_s": exp.total_compute_s.hex(),
            "aborted": [r.aborted for r in history],
        }, max(widths, default=1), picked, exp.clients.stats()


def _case_id(case):
    return "-".join(case)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(
            case,
            id=_case_id(case),
            marks=[pytest.mark.slow] if case[2] == "batched" else [],
        )
        for case in CASES
    ],
)
def test_sync_round_matches_parent_digest(case):
    digest, widest, picked, _ = _digest(*case)
    assert digest == _recorded(case)
    method, het, engine, _scenario = case
    assert widest == (WIDEST_BATCHED[method, het] if engine == "batched" else 1)
    if method in DISTILLATION:
        assert picked == set(FAMILY)


SERIAL_CASES = [case for case in CASES if case[2] == "serial"]


def _rekeyed(engine):
    """Every serial case under id ``engine``; its recorded value is the oracle."""
    return [
        pytest.param(case, id="-".join((case[0], case[1], engine, case[3])))
        for case in SERIAL_CASES
    ]


@pytest.mark.parametrize("case", _rekeyed("width3"))
def test_sync_round_digest_at_fusion_width_three(case):
    # Width 3 cuts a five-client round 3 + 2 — a split no recorded row
    # makes — and must land on the same bytes.
    digest, widest, picked, _ = _digest(*case, fusion_width=3)
    assert digest == _recorded(case)
    assert widest == min(WIDEST_BATCHED[case[0], case[1]], 3)
    if case[0] in DISTILLATION:
        assert picked == set(FAMILY)


@pytest.mark.parametrize("case", _rekeyed("lazy"))
def test_sync_round_digest_on_a_lazy_population(case):
    # Clients materialise on first touch into a two-entry cache, so most
    # of every round's five are rebuilt from (population seed, cid).
    digest, widest, picked, cache = _digest(
        *case, client_materialisation="lazy", client_cache_size=2
    )
    assert digest == _recorded(case)
    assert cache["evictions"] > 0 and cache["peak_live"] == 2
    assert widest == 1
    if case[0] in DISTILLATION:
        assert picked == set(FAMILY)


def _recorded(case):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[_case_id(case)]


def _distillation_experiment(journal_path=None, **overrides):
    return _experiment(
        "feddf", "unbalanced", "serial", "median_faults_signflip",
        rounds=4, journal_path=journal_path,
        checkpoint_every=2 if journal_path else 0, **overrides,
    )


def test_parent_feddf_journal_still_replays():
    report = replay_run(DISTILLATION_JOURNAL, _distillation_experiment)
    assert (report.rounds, report.merges, report.skipped_checkpoints) == (3, 0, 1)


@pytest.mark.parametrize(
    "population",
    [
        pytest.param({}, id="eager"),
        pytest.param(
            dict(client_materialisation="lazy", client_cache_size=2), id="lazy"
        ),
    ],
)
def test_parent_feddf_checkpoint_resumes(tmp_path, population):
    path = str(tmp_path / os.path.basename(DISTILLATION_JOURNAL))
    for suffix in ("", ".ckpt"):
        shutil.copy(DISTILLATION_JOURNAL + suffix, path + suffix)
    with _distillation_experiment() as ref:
        ref.run()
    with _distillation_experiment(path, **population) as resumed:
        resumed.resume(path)
    for name in ref.family:
        a, b = ref.prototypes[name].state_dict(), resumed.prototypes[name].state_dict()
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key], err_msg=f"{name} {key}")
    assert [
        (r.round, r.sim_time_s, r.compute_s, r.access_s, r.aborted) for r in ref.history
    ] == [
        (r.round, r.sim_time_s, r.compute_s, r.access_s, r.aborted)
        for r in resumed.history
    ]
    report = replay_run(path, _distillation_experiment)
    assert (report.rounds, report.resumes_folded) == (4, 1)


def _journal_experiment(journal_path=None):
    return _experiment(
        "jfat", "unbalanced", "serial", "median_faults_signflip",
        journal_path=journal_path,
    )


def test_parent_sync_journal_still_replays():
    report = replay_run(JOURNAL, _journal_experiment)
    assert report.rounds == 3
    assert report.merges == 0  # a sync journal: agg events, no merge events


def test_golden_journal_is_the_parents_but_for_the_fingerprint():
    with open(JOURNAL, "rb") as fh:
        raw = fh.read()
    with _journal_experiment() as exp:
        value = f'"fingerprint": "{exp._fingerprint()}"'.encode()
    assert raw.count(value) == 1 and raw.index(value) < raw.index(b"\n")
    masked = raw.replace(value, b'"fingerprint": ""')
    # sha256 of the parent commit's (3e8024a) file with the same masking
    assert hashlib.sha256(masked).hexdigest() == (
        "c2daaa4969a705d15053dc16d4e6e2be0a55ccbc9a7a3bed68f267ae04556880"
    )


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({_case_id(c): _digest(*c)[0] for c in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with _journal_experiment(JOURNAL) as exp:
        exp.run()
    with _distillation_experiment(DISTILLATION_JOURNAL) as exp:
        exp.run(rounds=3)  # killed after round 3: one checkpoint, at round 2
