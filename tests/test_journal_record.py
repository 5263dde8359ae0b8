"""The journal is the one record of a run.

A run keeps one durable, live record: the append-only journal (plus its
checkpoints).  These tests hold it to that role for every method:

* its ``round`` / ``eval`` / ``run_end`` events carry what the
  experiment's in-memory history holds, aborted rounds included (in
  completion order; the history is in round order);
* its ``merge`` events are the async merge log and its ``merge_eval``
  events the merge-event accuracy curve;
* it is flushed per event, so a reader tailing the file mid-run sees
  every event already appended;
* every round's local SGD runs at the engine's decayed rate
  ``lr_at(t) = lr · lr_decay**t`` (paper B.4), and every client draws
  from the engine's counter-derived RNG.
"""

import dataclasses
import functools

import pytest

from repro.baselines import (
    FedDFAT,
    FedDropAT,
    FedRBN,
    FedRolexAT,
    HeteroFLAT,
    JointFAT,
)
from repro.core import FedProphet, FedProphetConfig
from repro.data import make_cifar10_like
from repro.flsim import FaultPlan, FLConfig, RunJournal
from repro.hardware import DeviceSampler, device_pool
from repro.models import build_cnn
from repro.nn import DualBatchNorm2d
from repro.optim import sgd as sgd_module


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _cnn(rng, **kw):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng, **kw)


FAMILY = {
    "small": lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=2, rng=rng),
    "large": _cnn,
}
METHODS = {
    "jfat": (JointFAT, _cnn),
    "heterofl": (HeteroFLAT, _cnn),
    "feddrop": (FedDropAT, _cnn),
    "fedrolex": (FedRolexAT, _cnn),
    "fedrbn": (FedRBN, functools.partial(_cnn, bn_cls=DualBatchNorm2d)),
    "feddf": (functools.partial(FedDFAT, distill_iters=2), FAMILY),
    "fedprophet": (FedProphet, _cnn),
}
ASYNC = dict(aggregation_mode="async", max_staleness=2, pipeline_depth=2)
FAULTS = dict(fault_plan=FaultPlan(seed=0, dropout_prob=0.6), min_clients_per_round=2)


def _experiment(method, **overrides):
    cls, builder = METHODS[method]
    fields = dict(
        num_clients=5, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=4, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=1, eval_max_samples=24, seed=0,
    )
    fields.update(overrides)
    if method == "fedprophet":
        fields["pipeline_depth"] = 1  # round-gated: its rounds are barriers
        cfg = FedProphetConfig(rounds_per_module=2, patience=5, r_min_fraction=0.4,
                               val_samples=16, val_pgd_steps=2, **fields)
    else:
        cfg = FLConfig(**fields)
    sampler = DeviceSampler(device_pool("cifar10"), "unbalanced")
    return cls(_task(), builder, cfg, device_sampler=sampler)


def _journalled_run(tmp_path, method, **overrides):
    path = str(tmp_path / "run.jsonl")
    exp = _experiment(method, journal_path=path, **overrides)
    exp.run()
    exp.close()
    return exp, RunJournal.read(path)


RECORD_CASES = {
    **{f"{m}-sync": (m, {}) for m in METHODS},
    **{f"{m}-async": (m, ASYNC) for m in ("jfat", "heterofl", "fedrbn", "fedprophet")},
    "jfat-aborts": ("jfat", FAULTS),
    "fedprophet-aborts": ("fedprophet", FAULTS),
}


@pytest.mark.parametrize("case", RECORD_CASES)
def test_round_and_eval_events_are_the_history(tmp_path, case):
    method, overrides = RECORD_CASES[case]
    exp, events = _journalled_run(tmp_path, method, **overrides)
    history = exp.history
    # A pipelined run journals rounds as they complete; the history is
    # in round order.
    rounds = sorted((e for e in events if e["kind"] == "round"), key=lambda e: e["round"])
    assert [(e["round"], e["sim_time_s"], e["aborted"]) for e in rounds] == [
        (r.round, r.sim_time_s, r.aborted) for r in history
    ]
    assert [(e["compute_s"], e["access_s"]) for e in rounds if not e["aborted"]] == [
        (r.compute_s, r.access_s) for r in history if not r.aborted
    ]
    evals = sorted(
        (e["round"], e["clean_acc"], e["pgd_acc"], e["aa_acc"])
        for e in events if e["kind"] == "eval"
    )
    assert evals == [
        (r.round, r.eval.clean_acc, r.eval.pgd_acc, r.eval.aa_acc)
        for r in history if r.eval is not None
    ]
    assert evals, "no round was evaluated; the comparison is empty"
    if overrides is FAULTS:
        assert any(r.aborted for r in history), "the fault plan aborted no round"
    end = events[-1]
    assert end["kind"] == "run_end"
    assert (end["rounds"], end["clock_s"]) == (len(history), exp.clock_s)


@pytest.mark.parametrize("method", ["jfat", "heterofl", "fedrbn"])
def test_merge_events_are_the_merge_log(tmp_path, method):
    exp, events = _journalled_run(tmp_path, method, **ASYNC)
    fields = [f.name for f in dataclasses.fields(exp.async_log[0])]
    merges = [e for e in events if e["kind"] == "merge"]
    assert [[e[f] for f in fields] for e in merges] == [
        [list(v) if isinstance(v, tuple) else v for v in dataclasses.astuple(ev)]
        for ev in exp.async_log
    ]
    assert max(ev.staleness for ev in exp.async_log) > 0  # really asynchronous


def test_merge_eval_events_are_the_merge_evals(tmp_path):
    exp, events = _journalled_run(tmp_path, "jfat", eval_every_merge=1, **ASYNC)
    journalled = [
        {k: v for k, v in e.items() if k not in ("seq", "kind")}
        for e in events if e["kind"] == "merge_eval"
    ]
    assert journalled == [
        dict(version=rec.version, round=rec.round, event=rec.event,
             staleness=rec.staleness, sim_time_s=rec.sim_time_s,
             **rec.eval.as_dict())
        for rec in exp.merge_evals
    ]
    assert len(journalled) == len(exp.async_log)


@pytest.mark.parametrize(
    "mode", [{}, dict(aggregation_mode="async", max_staleness=2)], ids=["sync", "async"]
)
def test_journal_is_readable_mid_run(tmp_path, mode):
    """Every event is on disk when the next one is made: ``tail -f`` works."""
    path = str(tmp_path / "run.jsonl")
    seen = []

    class Tailed(JointFAT):
        def after_round(self, record):
            # A second reader, on its own handle, while the run goes on.
            on_disk = RunJournal.read(path)
            seen.append((record.round, on_disk[-1]["kind"], on_disk[-1]["round"]))
            super().after_round(record)

    exp = Tailed(_task(), _cnn, FLConfig(
        num_clients=5, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=3, train_pgd_steps=2, eval_pgd_steps=2, eval_every=0,
        eval_max_samples=24, seed=0, journal_path=path, **mode,
    ))
    exp.run()
    exp.close()
    assert seen == [(r, "round", r) for r in range(3)]


@pytest.mark.parametrize("method", ["jfat", "heterofl", "fedrbn", "feddf", "fedprophet"])
def test_every_round_trains_at_the_decayed_rate(monkeypatch, method):
    rates = []
    real_init = sgd_module.SGD.__init__

    def recording_init(self, params, lr, *args, **kwargs):
        rates.append(lr)
        real_init(self, params, lr, *args, **kwargs)

    monkeypatch.setattr(sgd_module.SGD, "__init__", recording_init)
    exp = _experiment(method, rounds=3, eval_every=0, lr_decay=0.5)
    exp.run()
    exp.close()
    assert exp.lr_at(2) == pytest.approx(0.02 * 0.5**2)
    # Optimizers are built in round order, each at its round's rate.
    assert list(dict.fromkeys(rates)) == [exp.lr_at(t) for t in range(3)]


def test_client_rng_is_a_pure_function_of_seed_round_and_cid():
    def draws(exp, pairs):
        return [exp._client_rng(r, c).integers(0, 2**31, 4).tolist() for r, c in pairs]

    pairs = [(0, 0), (0, 1), (1, 0), (3, 2)]
    a, b = _experiment("jfat"), _experiment("jfat")
    assert draws(a, pairs) == draws(b, pairs[::-1])[::-1]  # order-free
    assert len({tuple(d) for d in draws(a, pairs)}) == len(pairs)
    reseeded = _experiment("jfat", seed=1)
    assert draws(reseeded, pairs) != draws(a, pairs)
