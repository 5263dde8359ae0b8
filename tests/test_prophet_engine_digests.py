"""FedProphet pinned against digests recorded *before* PR 21.

PR 21 deleted FedProphet's own run loop (``run`` / ``_run_cascade``), its
barrier ``run_round`` and its hand-written within-round merge replay: the
method is now the ``async_*`` hook surface plus picklable stage state the
engine's round-barrier loop advances.  ``tests/data/
prophet_engine_digests.json`` holds what the second engine produced at the
parent commit (28974f7) for the 16 configurations below — {plain, faults
with three aborted rounds, median + sign-flip Byzantine, DMA and APA off}
x {sync, async ``max_staleness=2``} x {serial, thread x2}; three modules,
a 7-round budget that ends mid-stage.  Each ``thread2`` value is
byte-equal to its ``serial`` twin, so the matrix runs the 8 serial
configurations, and every one must keep reproducing its value bit for
bit: weights, head weights, clock / compute / access, every history
record and eval, ``pert_log``, ``eps_star``, ``stage_results`` and the
merge log.

``tests/data/prophet_sync_faults_median.jsonl`` is a journal the parent's
cascade loop wrote (faults + median); it must verify under
:func:`repro.flsim.replay.replay_run`.  The parent journalled each trained
round as ``round`` then ``eval``; the engine loop journals ``eval`` then
``round``, as for every other method, so the committed file has each such
pair swapped and nothing else
(``test_recorded_journal_is_the_parents_but_for_the_eval_order``).

Settings outside the fingerprint must not move a digest either: every
serial configuration also runs on a lazy two-entry client population and
with the prefix cache off (``ENGINE_INDEPENDENT``).

The same configurations then prove the capability the refactor bought:
interrupted at a checkpoint and resumed by a fresh experiment — eager or
lazy — a run equals the uninterrupted one and its journal replays with
the resume folded.

Re-record (only from a commit whose behaviour is the reference) with
``PYTHONPATH=src python tests/test_prophet_engine_digests.py``.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core import FedProphet, FedProphetConfig
from repro.data import make_cifar10_like
from repro.flsim.faults import FaultPlan
from repro.flsim.replay import replay_run
from repro.flsim.threats import ThreatPlan
from repro.hardware import Device, DeviceSampler
from repro.hardware.memory import MemoryModel
from repro.models import build_vgg

pytestmark = [pytest.mark.scheduler, pytest.mark.fault_tolerance]

DATA = os.path.join(os.path.dirname(__file__), "data")
DIGESTS = os.path.join(DATA, "prophet_engine_digests.json")
JOURNAL = os.path.join(DATA, "prophet_sync_faults_median.jsonl")

FAULTS = dict(
    fault_plan=FaultPlan(seed=7, dropout_prob=0.35, straggler_prob=0.3, flaky_prob=0.2),
    min_clients_per_round=3,
)
MEDIAN = dict(
    aggregation_rule="median",
    threat_plan=ThreatPlan(seed=7, byzantine_prob=0.3, attack="sign_flip"),
)
SCENARIOS = {
    "plain": {},
    "faults": FAULTS,
    "median_signflip": MEDIAN,
    "no_dma_no_apa": dict(use_dma=False, use_apa=False),
}
MODES = {
    "sync": {},
    "async": dict(aggregation_mode="async", max_staleness=2),
}
#: The engine column of the recorded keys; only its serial rows run.
ENGINES = {"serial": {}}
CASES = [
    (scenario, mode, engine)
    for scenario in SCENARIOS
    for mode in MODES
    for engine in ENGINES
]


def _builder(rng):
    return build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng)


def _pool():
    """Devices whose memory brackets the module spans DMA chooses between.

    Available memory is ``mem * U(0, 0.2)``: the small device affords the
    current module only, the large one usually the whole trainable suffix,
    so every round mixes spans (``M_k`` from ``m`` to the last module).
    """
    model = _builder(np.random.default_rng(0))
    r_max_gb = MemoryModel(batch_size=8).bytes_for(model, model.in_shape) / 1024**3
    return [
        Device("small", 0.5, 3 * r_max_gb, 2),
        Device("mid", 1.0, 6 * r_max_gb, 4),
        Device("large", 3.0, 14 * r_max_gb, 16),
    ]


def _experiment(scenario, mode, engine, **overrides):
    """Three modules (``r_min_fraction=0.5``), budget 7 = 3 + 3 + 1 rounds."""
    kwargs = dict(
        num_clients=8, clients_per_round=4, local_iters=2, batch_size=8,
        lr=0.02, rounds=7, train_pgd_steps=2, rounds_per_module=3, patience=5,
        val_samples=20, val_pgd_steps=2, eval_every=0, eval_pgd_steps=2,
        r_min_fraction=0.5, seed=0,
    )
    kwargs.update(SCENARIOS[scenario])
    kwargs.update(MODES[mode])
    kwargs.update(ENGINES[engine])
    kwargs.update(overrides)
    task = make_cifar10_like(
        image_size=8, train_per_class=20, test_per_class=5, seed=0
    )
    return FedProphet(
        task, _builder, FedProphetConfig(**kwargs),
        device_sampler=DeviceSampler(_pool(), "balanced"),
    )


def _hex(value):
    return None if value is None else float(value).hex()


def _state_sha(states):
    sha = hashlib.sha256()
    for state in states:
        for key, value in sorted(state.items()):
            sha.update(key.encode())
            sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _summary(exp):
    """Everything a FedProphet run produced, floats as ``float.hex``."""
    return {
        "weights_sha256": _state_sha([exp.global_model.state_dict()]),
        "heads_sha256": _state_sha(
            [h.state_dict() for h in exp.heads if h is not None]
        ),
        "clock_s": _hex(exp.clock_s),
        "total_compute_s": _hex(exp.total_compute_s),
        "total_access_s": _hex(exp.total_access_s),
        "aborted": [r.aborted for r in exp.history],
        "history_sha256": _sha([
            [
                r.round, _hex(r.sim_time_s), _hex(r.compute_s), _hex(r.access_s),
                r.aborted,
                None if r.eval is None else
                [_hex(r.eval.clean_acc), _hex(r.eval.pgd_acc), _hex(r.eval.aa_acc)],
            ]
            for r in exp.history
        ]),
        "pert_log_sha256": _sha([
            [e.round, e.module, _hex(e.eps), _hex(e.eps_per_dim)]
            for e in exp.pert_log
        ]),
        "eps_star": [_hex(e) for e in exp.eps_star],
        "stage_results": [
            [s.module, s.rounds, _hex(s.final_clean_acc), _hex(s.final_adv_acc),
             _hex(s.eps_star)]
            for s in exp.stage_results
        ],
        "async_log_sha256": _sha([
            [e.round, e.event, e.staleness, list(e.client_ids), _hex(e.alpha),
             e.base_version, _hex(e.sim_time_s)]
            for e in exp.async_log
        ]),
    }


def _digest(scenario, mode, engine, **overrides):
    with _experiment(scenario, mode, engine, **overrides) as exp:
        exp.run()
        return _summary(exp)


def _case_id(case):
    return "-".join(case)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, id=_case_id(case))
        for case in CASES
    ],
)
def test_fedprophet_matches_parent_digest(case):
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert _digest(*case) == recorded[_case_id(case)]


#: Settings outside the config fingerprint's semantics: every serial
#: value must come out of a run under each of them too.
ENGINE_INDEPENDENT = {
    # clients materialise on first touch into a two-entry cache
    "lazy": dict(client_materialisation="lazy", client_cache_size=2),
    # every frozen-prefix forward recomputed instead of served
    "nocache": dict(use_prefix_cache=False),
}


@pytest.mark.parametrize(
    "case,setting",
    [
        pytest.param(case, setting, id=_case_id(case[:2] + (setting,)))
        for setting in ENGINE_INDEPENDENT
        for case in CASES
    ],
)
def test_recorded_digest_is_engine_independent(case, setting):
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert _digest(*case, **ENGINE_INDEPENDENT[setting]) == recorded[_case_id(case)]


def test_matrix_covers_aborts_stages_and_mixed_spans():
    """The recorded matrix exercises what it claims to pin."""
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert len(recorded) == 16
    for case_id, digest in recorded.items():
        twin = case_id.replace("-thread2", "-serial")
        assert digest == recorded[twin], case_id  # engine-independent
        faulty = case_id.startswith("faults")
        assert sum(digest["aborted"]) == (3 if faulty else 0), case_id
        # 3 + 3 + 1 rounds: the budget ends inside the third stage.
        assert [s[:2] for s in digest["stage_results"]] == [[0, 3], [1, 3], [2, 1]]


# -- the parent-recorded journal ----------------------------------------------


def _journal_experiment(journal_path=None, **overrides):
    return _experiment(
        "faults", "sync", "serial", journal_path=journal_path, **MEDIAN, **overrides
    )


def test_parent_journal_still_replays():
    report = replay_run(JOURNAL, _journal_experiment)
    assert report.rounds == 7
    assert report.evals == 4  # one cascade validation per trained round
    assert report.merges == 0  # a sync journal: agg events, no merge events


def _swap_eval_round_pairs(lines, first, second):
    """Swap every adjacent same-round (``first``, ``second``) event pair."""
    events = [json.loads(line) for line in lines]
    i = 0
    while i + 1 < len(events):
        a, b = events[i], events[i + 1]
        if (a["kind"], b["kind"]) == (first, second) and a["round"] == b["round"]:
            a["seq"], b["seq"] = b["seq"], a["seq"]
            events[i], events[i + 1] = b, a
            i += 2
        else:
            i += 1
    return [json.dumps(e) for e in events]


def test_recorded_journal_is_the_parents_but_for_the_eval_order():
    with open(JOURNAL, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    restored = _swap_eval_round_pairs(lines, "eval", "round")
    assert restored != lines
    raw = ("\n".join(restored) + "\n").encode()
    # sha256 of the file the parent commit's (28974f7) cascade loop wrote
    assert hashlib.sha256(raw).hexdigest() == PARENT_JOURNAL_SHA256


PARENT_JOURNAL_SHA256 = "6ac08c122398fb4617a0c37718a70383845a4d00074d3b1dd356ff151c55126e"


# -- the capability: checkpoint, resume, replay ------------------------------------

#: ``checkpoint_every`` / rounds before the interruption.  The last
#: checkpoint lands mid-stage (4 of 3+3+1) or exactly on the stage boundary
#: (3: module 0 just fixed, APA armed for module 1; rounds 3-4 are redone).
CUTS = {"every1_cut4": (1, 4), "every2_cut4": (2, 4), "every3_cut5": (3, 5)}
RESUME_CASES = [
    (scenario, mode, cut)
    for scenario in ("plain", "faults", "median_signflip")
    for mode in MODES
    for cut in CUTS
]


@pytest.mark.slow
@pytest.mark.parametrize("case", [pytest.param(c, id=_case_id(c)) for c in RESUME_CASES])
def test_resume_equals_uninterrupted(case, tmp_path):
    _check_resume(case, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("case", [pytest.param(c, id=_case_id(c)) for c in RESUME_CASES])
def test_resume_into_a_lazy_population_equals_uninterrupted(case, tmp_path):
    # The checkpoint holds no client objects: an eager run resumes into a
    # two-entry lazy cache that rebuilds clients from (seed, cid).
    _check_resume(case, tmp_path, **ENGINE_INDEPENDENT["lazy"])


def _check_resume(case, tmp_path, **resume_overrides):
    """Interrupt at ``case``'s cut, resume under ``resume_overrides``: the
    run equals the recorded uninterrupted digest and its journal replays."""
    scenario, mode, cut = case
    every, rounds = CUTS[cut]
    path = str(tmp_path / "run.jsonl")
    kw = dict(journal_path=path, checkpoint_every=every)
    with _experiment(scenario, mode, "serial", **kw) as interrupted:
        interrupted.run(rounds=rounds)
    with _experiment(scenario, mode, "serial", **kw, **resume_overrides) as resumed:
        resumed.resume(path)
        summary = _summary(resumed)
    # The uninterrupted run *is* the parent-recorded digest (engine-independent).
    with open(DIGESTS, encoding="utf-8") as fh:
        assert summary == json.load(fh)[f"{scenario}-{mode}-serial"]

    def factory():
        # Same basename elsewhere: checkpoint events are re-written and verified.
        return _experiment(
            scenario, mode, "serial", checkpoint_every=every,
            journal_path=str(tmp_path / "replay" / "run.jsonl"),
        )

    report = replay_run(path, factory)
    assert report.rounds == 7 and report.resumes_folded == 1
    assert report.skipped_checkpoints == 0


if __name__ == "__main__":
    import tempfile

    digests = {_case_id(c): _digest(*c) for c in CASES}
    # the recorded thread2 column: the serial values, engine-independent
    digests.update({k.replace("-serial", "-thread2"): v for k, v in list(digests.items())})
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        with _journal_experiment(path) as exp:
            exp.run()
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    # Committed in the engine loop's order; PARENT_JOURNAL_SHA256 pins the bytes.
    with open(JOURNAL, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_swap_eval_round_pairs(raw.splitlines(), "round", "eval")) + "\n")
    print("PARENT_JOURNAL_SHA256 =", hashlib.sha256(raw.encode()).hexdigest())
