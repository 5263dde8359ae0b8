"""Round workers: the lockstep replicas of a scope, a run or an evaluation.

A group is a round's clients or an evaluation's shards.  A scope (a run,
or an evaluation outside one) forks its workers once, each a replica of
the caller's program that splits every group with it; a group outside
any scope runs inline.  The ``workers`` fixture forces both floors to 0
and one spare core, so the small experiments of the digest suites fork
and split too, and the oracle rows check that nothing a run produces
can tell: the recorded sync and FedProphet digests, the recorded
journals and the recorded checkpoint, every method's final evaluation
and FedProphet's validation all come out as they do inline.  The hygiene tests then pin what a
worker must never do: write (the journal and checkpoint bytes are an
inline run's, and a forked recorder is inert), lose an exception's type, hang when it dies, outlive its
scope (no zombie after an end, an abort, an interrupt or a kill),
hold the status endpoint's connections, diverge from the caller's plan
unnoticed, or keep to itself the prefix-cache rows it filled.  Some run
as shipped: one OpenBLAS thread changes no bit, the benchmark's
FedProphet workload keeps its cache hit ratio, and the benchmark's
evaluations fork where the floor says.  The last rows pin the
cost-weighted cut to the count-balanced one it replaced.
"""

import contextlib
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tests.test_cascade_pins as cascade_pins
import tests.test_fault_tolerance as ft
import tests.test_prophet_engine_digests as prophet_digests
import tests.test_sync_round_digests as sync_digests
from repro.attacks import ModelWithLoss
from repro.baselines import JointFAT
from repro.core import prophet as prophet_module
from repro.flsim import EvalExecutor, EvalTarget, RoundExecutor
from repro.flsim import executor as executor_module
from repro.flsim.executor import CohortFn, RoundWorkerError
from repro.flsim.journal import RunJournal, RunRecorder
from repro.flsim.replay import replay_run
from repro.flsim.scheduler import CrossRoundPipeline
from repro.metrics.evaluation import AttackSpec, EvalPlan
from repro.models import build_vgg


@pytest.fixture
def forks(monkeypatch):
    """One spare core at the shipped floors; yields the pids of the workers forked."""
    if not executor_module._Blas.pinnable():
        pytest.skip("the OpenBLAS thread count cannot be pinned on this host")
    pids = []

    class Recorded(executor_module._Worker):
        def __init__(self, *args):
            super().__init__(*args)
            pids.append(self.pid)

    monkeypatch.setattr(executor_module, "spare_cores", lambda: 1)
    monkeypatch.setattr(executor_module, "_Worker", Recorded)
    yield pids
    assert not executor_module._live_workers
    for pid in pids:  # every worker reaped: none left a zombie
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def workers(forks, monkeypatch):
    """Fork and exchange floors 0, one spare core; yields the pids of the workers forked."""
    monkeypatch.setattr(executor_module, "FORK_FLOOR_FLOPS", 0.0)
    monkeypatch.setattr(executor_module, "EXCHANGE_FLOOR_FLOPS", 0.0)
    return forks


# -- the oracle rows: recorded digests, journals and checkpoints ----------------


@pytest.mark.round_engine
@pytest.mark.parametrize(
    "case", [pytest.param(c, id=sync_digests._case_id(c)) for c in sync_digests.CASES]
)
def test_sync_round_digest_with_workers(case, workers):
    digest, _, _, _ = sync_digests._digest(*case)
    assert digest == sync_digests._recorded(case)
    assert workers


@pytest.mark.round_engine
@pytest.mark.parametrize(
    "case", [pytest.param(c, id=prophet_digests._case_id(c)) for c in prophet_digests.CASES]
)
def test_fedprophet_digest_with_workers(case, workers):
    with open(prophet_digests.DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert prophet_digests._digest(*case) == recorded[prophet_digests._case_id(case)]
    assert workers


@pytest.mark.round_engine
def test_cascade_pins_with_a_replica(workers):
    # The pinned cases as one group split between the caller and a replica
    # that lives for the scope: each result is the pinned one, wherever it ran.
    executor = RoundExecutor(client_flops=1.0)
    with executor.scope(float("inf")):
        results = executor.run_group(lambda case: cascade_pins._run(*case), cascade_pins.CASES)
    assert results == [cascade_pins.PINS[case] for case in cascade_pins.CASES]
    assert len(workers) == 1


@pytest.mark.round_engine
def test_recorded_journals_replay_with_workers(workers):
    report = replay_run(sync_digests.JOURNAL, sync_digests._journal_experiment)
    assert (report.rounds, report.merges) == (3, 0)
    report = replay_run(prophet_digests.JOURNAL, prophet_digests._journal_experiment)
    assert (report.rounds, report.evals, report.merges) == (7, 4, 0)
    report = replay_run(
        sync_digests.DISTILLATION_JOURNAL, sync_digests._distillation_experiment
    )
    assert (report.rounds, report.merges, report.skipped_checkpoints) == (3, 0, 1)
    assert workers


@pytest.mark.round_engine
def test_recorded_checkpoint_resumes_with_workers(tmp_path, workers):
    ft.TestCheckpointResume().test_resume_from_a_checkpoint_written_before_pr23(tmp_path)
    os.makedirs(tmp_path / "feddf")
    sync_digests.test_parent_feddf_checkpoint_resumes(tmp_path / "feddf", {})
    assert workers


def _forks_of(method, workers):
    """Wrap ``method`` to also return the workers each call forked."""

    def recording(*args):
        before = len(workers)
        return method(*args), len(workers) - before

    return recording


@pytest.mark.round_engine
@pytest.mark.parametrize("method", list(sync_digests.METHODS))
def test_final_eval_with_workers(method, monkeypatch, workers):
    evals = {}
    for name, spare in (("inline", 0), ("forked", 1)):
        monkeypatch.setattr(executor_module, "spare_cores", lambda spare=spare: spare)
        with sync_digests._experiment(
            method, "unbalanced", "serial", "median_faults_signflip", rounds=1
        ) as exp:
            exp.run()
            evals[name] = _forks_of(exp.final_eval, workers)(24)
    # The forked eval ran [clean, PGD] inline and the AutoAttack shard on a worker.
    assert evals["inline"][1] == 0 and evals["forked"][1] == 1
    assert evals["forked"][0] == evals["inline"][0]


@pytest.mark.round_engine
def test_cascade_eval_with_workers(monkeypatch, workers):
    # Validation plans reversed to [PGD, clean] at 8 rows a shard: the
    # replica's run holds the clean shards, so it reads and fills the prefix
    # cache, and the caller must adopt its rows, hits and misses.
    monkeypatch.setattr(
        prophet_module, "EvalPlan",
        lambda attacks, seed: EvalPlan(attacks=attacks[::-1], batch_size=8, seed=seed),
    )
    received, receive = [], executor_module._Scope._receive

    def counting(self, link, seq, pos, idxs):
        received.append(seq)
        return receive(self, link, seq, pos, idxs)

    monkeypatch.setattr(executor_module._Scope, "_receive", counting)
    runs = {}
    for name, spare in (("inline", 0), ("forked", 1)):
        monkeypatch.setattr(executor_module, "spare_cores", lambda spare=spare: spare)
        with prophet_digests._experiment("plain", "sync", "serial", rounds=5) as exp:
            evals = []

            def recording(module_idx, cascade_eval=exp.cascade_eval):
                before = len(received)
                evals.append((cascade_eval(module_idx), len(received) - before))
                return evals[-1][0]

            exp.cascade_eval = recording
            _forks_of(exp.run, workers)()
            cache = exp.prefix_cache
            runs[name] = (evals, cache.stats(), {
                key: (entry.filled.copy(), entry.data[entry.filled].copy())
                for key, entry in cache._entries.items() if entry.data is not None
            })
    (evals, stats, rows), (ref_evals, ref_stats, ref_rows) = runs["forked"], runs["inline"]
    assert len(workers) == 1  # the run's one replica served every validation
    assert len(evals) == 5 and all(shards for _, shards in evals)
    assert [shards for _, shards in ref_evals] == [0] * 5
    assert [result for result, _ in evals] == [result for result, _ in ref_evals]
    assert stats == ref_stats and stats["hits"] > 0
    assert list(rows) == list(ref_rows)
    for key, (filled, data) in rows.items():
        np.testing.assert_array_equal(filled, ref_rows[key][0])
        np.testing.assert_array_equal(data, ref_rows[key][1])


# -- worker hygiene ---------------------------------------------------------------


def _jfat(**overrides):
    return JointFAT(ft._task(), ft._builder, ft._cfg(**overrides))


def test_journal_has_the_lines_of_an_inline_run(tmp_path, monkeypatch, workers):
    # A worker leaves by os._exit: the journal buffer it inherited is never
    # flushed a second time, so the file is the inline run's, line for line.
    paths = {}
    for name, spare in (("inline", 0), ("forked", 1)):
        monkeypatch.setattr(executor_module, "spare_cores", lambda spare=spare: spare)
        paths[name] = str(tmp_path / f"{name}.jsonl")
        with _jfat(journal_path=paths[name], checkpoint_every=2) as exp:
            exp.run()
    assert workers
    lines = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            lines[name] = [json.loads(line) for line in fh]
        for event in lines[name]:
            event.pop("t", None)
            if event["kind"] == "checkpoint":
                event.pop("path")
    assert lines["forked"] == lines["inline"]


class Refused(ValueError):
    pass


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


def _raising_in_worker(exc, parent=None):
    """A jFAT whose clients raise ``exc`` in any process but the caller."""
    parent = os.getpid() if parent is None else parent

    class Raising(JointFAT):
        def async_client_fn(self, ctx, base_state):
            inner = super().async_client_fn(ctx, base_state)

            def cohort(items):
                if os.getpid() != parent:
                    raise exc
                return inner.cohort_fn(items)

            return CohortFn(cohort, group_key=inner.group_key)

    return Raising


@pytest.mark.parametrize("mode", ft.MODES)
def test_work_unit_error_keeps_its_type(tmp_path, workers, mode):
    path = str(tmp_path / "run.jsonl")
    cls = _raising_in_worker(Refused("client refused"))
    exp = cls(ft._task(), ft._builder, ft._cfg(journal_path=path, fusion_width=1, **mode))
    with pytest.raises(Refused, match="client refused") as info:
        exp.run()
    assert any("raised in round worker" in note for note in info.value.__notes__)
    assert list(RunJournal.read(path))[-1]["kind"] == "run_abort"


def test_unpicklable_error_carries_its_traceback(workers):
    cls = _raising_in_worker(Unpicklable("lost in transit"))
    exp = cls(ft._task(), ft._builder, ft._cfg(fusion_width=1))
    with pytest.raises(RuntimeError, match="cannot be pickled") as info:
        exp.run()
    assert "Unpicklable: lost in transit" in str(info.value)
    with pytest.raises(TypeError):
        pickle.dumps(Unpicklable())


@pytest.mark.fault_tolerance
def test_killed_worker_is_a_typed_error_naming_its_cohort(tmp_path, workers):
    path = str(tmp_path / "run.jsonl")
    parent = os.getpid()

    class Killed(JointFAT):
        def async_client_fn(self, ctx, base_state):
            inner = super().async_client_fn(ctx, base_state)

            def cohort(items):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return inner.cohort_fn(items)

            return CohortFn(cohort, group_key=inner.group_key)

    exp = Killed(ft._task(), ft._builder, ft._cfg(journal_path=path, fusion_width=1))
    with pytest.raises(RoundWorkerError, match=r"killed by signal 9 before returning "
                       r"the cohort of items \[1\]"):
        exp.run()
    assert list(RunJournal.read(path))[-1]["kind"] == "run_abort"


def _eval_in_a_worker(monkeypatch, action):
    """Evaluate a [clean, PGD] plan whose PGD shard, the worker's, first calls ``action``."""
    parent, perturb = os.getpid(), AttackSpec.perturb

    def perturb_in_worker(spec, *args):
        if os.getpid() != parent:
            action()
        return perturb(spec, *args)

    monkeypatch.setattr(AttackSpec, "perturb", perturb_in_worker)
    target = EvalTarget(ModelWithLoss(ft._builder(np.random.default_rng(0))))
    plan = EvalPlan.standard(eps=0.03, pgd_steps=2, max_samples=16)
    return EvalExecutor(RoundExecutor()).run(plan, ft._task().test, target)


def test_eval_shard_error_keeps_its_type(monkeypatch, workers):
    def refuse():
        raise Refused("shard refused")

    with pytest.raises(Refused, match="shard refused") as info:
        _eval_in_a_worker(monkeypatch, refuse)
    assert any("raised in round worker" in note for note in info.value.__notes__)
    assert len(workers) == 1


@pytest.mark.fault_tolerance
def test_killed_eval_worker_is_a_typed_error(monkeypatch, workers):
    with pytest.raises(RoundWorkerError, match=r"killed by signal 9 before returning "
                       r"the cohort of items \[1\]"):
        _eval_in_a_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert len(workers) == 1 and not executor_module._live_workers


def _group(executor, stop=None):
    """A four-item group, items 0 and 1 the caller's, whose work unit
    raises ``stop`` in the caller at item 1."""
    parent = os.getpid()

    def unit(item):
        if stop is not None and os.getpid() == parent and item == 1:
            raise stop
        return item * 10

    return executor.submit_group(unit, range(4))


@pytest.mark.fault_tolerance
@pytest.mark.parametrize("end", ["close", "drop", "keyboard_interrupt", "error"])
def test_ending_a_group_early_kills_and_reaps_its_worker(workers, end):
    # The group ends early inside a scope, whose exit kills and reaps the
    # worker.  What the caller saw is checked past the scope, which the
    # replica never leaves alive.
    executor = RoundExecutor(client_flops=1.0)
    stop = {"keyboard_interrupt": KeyboardInterrupt(), "error": Refused("x")}.get(end)
    seen = []
    with pytest.raises(type(stop)) if stop else contextlib.nullcontext():
        with executor.scope(1.0):
            group = _group(executor, stop)
            seen += [next(group), list(executor_module._live_workers)]
            if end == "close":
                group.close()
            elif end == "drop":
                del group  # refcounting alone: no cyclic GC runs
            else:
                next(group)
    assert seen == [(0, 0), workers] and len(workers) == 1
    # the fixture asserts the worker is reaped


@pytest.mark.fault_tolerance
def test_export_state_lands_inflight_rounds_beside_the_replica(tmp_path, monkeypatch, workers):
    # A checkpoint lands every in-flight round's group, the replica landing
    # the same groups beside the caller: it lives on to the run's end.
    export, alive = CrossRoundPipeline.export_state, []

    def recording(self, export_meta):
        state = export(self, export_meta)
        alive.append(len(executor_module._live_workers))
        return state

    monkeypatch.setattr(CrossRoundPipeline, "export_state", recording)
    path = str(tmp_path / "run.jsonl")
    with _jfat(journal_path=path, checkpoint_every=1, aggregation_mode="async",
               pipeline_depth=2, fusion_width=1) as exp:
        exp.run()
    assert len(workers) == 1 and alive == [1] * 5
    assert not executor_module._live_workers


def test_a_group_forks_at_most_one_worker_per_spare_core(monkeypatch, workers):
    # A second scope, on another executor, opened while the first one's
    # workers live finds no core left and runs inline.
    monkeypatch.setattr(executor_module, "spare_cores", lambda: 2)
    first, second = RoundExecutor(client_flops=1.0), RoundExecutor(client_flops=1.0)
    with first.scope(1.0):
        squares = first.run_group(lambda i: i * i, range(7))
        forked = len(workers)
        with second.scope(1.0):
            again = second.run_group(abs, range(4))
    assert squares == [i * i for i in range(7)] and again == list(range(4))
    assert forked == len(workers) == 2


def test_a_lone_fused_cohort_is_split_between_caller_and_worker(workers):
    executor = RoundExecutor(fusion_width=8, client_flops=1.0)
    seen = []
    fn = CohortFn(lambda items: seen.append(len(items)) or [-i for i in items],
                  group_key=lambda i: "g")
    with executor.scope(1.0):
        results = executor.run_group(fn, range(5))
    assert results == [0, -1, -2, -3, -4]
    assert seen == [2]  # the caller's smaller run, fused; the worker ran the other three
    assert len(workers) == 1


@pytest.mark.round_engine
def test_a_group_outside_any_scope_runs_inline(workers):
    # Both floors at 0, yet nothing forks: only a scope forks.
    executor = RoundExecutor(fusion_width=8, client_flops=1.0)
    fn = CohortFn(lambda items: [-i for i in items], group_key=lambda i: i % 2)
    assert executor.run_group(fn, range(5)) == [0, -1, -2, -3, -4]
    assert executor.run_group(abs, range(-3, 0), [1e12] * 3) == [3, 2, 1]
    assert not workers and executor_module._Blas.saved is None


@pytest.mark.round_engine
def test_prefix_cache_rows_filled_in_a_worker_are_adopted(monkeypatch, workers):
    runs = {}
    for name, spare in (("inline", 0), ("forked", 1)):
        monkeypatch.setattr(executor_module, "spare_cores", lambda spare=spare: spare)
        with prophet_digests._experiment("plain", "sync", "serial", rounds=5) as exp:
            exp.run()
            cache = exp.prefix_cache
            runs[name] = (cache.stats(), {
                key: (entry.filled.copy(), entry.data[entry.filled].copy())
                for key, entry in cache._entries.items() if entry.data is not None
            })
    assert workers
    (stats, rows), (ref_stats, ref_rows) = runs["forked"], runs["inline"]
    assert stats == ref_stats and stats["hits"] > 0
    assert list(rows) == list(ref_rows)  # same entries, in the same order
    for key, (filled, data) in rows.items():
        np.testing.assert_array_equal(filled, ref_rows[key][0])
        np.testing.assert_array_equal(data, ref_rows[key][1])


# -- the run-scoped replica -----------------------------------------------------


@pytest.mark.round_engine
@pytest.mark.parametrize("mode", ft.MODES)
def test_a_run_forks_once(mode, workers):
    with _jfat(rounds=4, **mode) as exp:
        exp.run()
        assert len(workers) == 1  # every round and merge of the run, one replica
        exp.final_eval(8)  # outside the run: a scope of its own
    assert len(workers) == 2


@pytest.mark.round_engine
def test_journal_and_checkpoint_bytes_equal_an_inline_run(tmp_path, monkeypatch, workers):
    # The replica writes nothing: every journal append and checkpoint write
    # happens in the caller, and the files are an inline run's, byte for byte.
    from repro.flsim import checkpoint

    writers = str(tmp_path / "writers")
    append, write_checkpoint = RunJournal.append, checkpoint.write_checkpoint

    def noting(write):
        def noted(*args, **kwargs):
            fd = os.open(writers, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, b"%d\n" % os.getpid())
            os.close(fd)
            return write(*args, **kwargs)
        return noted

    monkeypatch.setattr(RunJournal, "append", noting(append))
    monkeypatch.setattr(checkpoint, "write_checkpoint", noting(write_checkpoint))
    paths = {}
    for name, spare in (("inline", 0), ("forked", 1)):
        monkeypatch.setattr(executor_module, "spare_cores", lambda spare=spare: spare)
        os.makedirs(tmp_path / name)
        paths[name] = str(tmp_path / name / "run.jsonl")
        with _jfat(journal_path=paths[name], checkpoint_every=2, aggregation_mode="async",
                   pipeline_depth=2, max_staleness=2, fusion_width=1) as exp:
            exp.run(verbose=True)
    assert len(workers) == 1
    with open(writers, encoding="utf-8") as fh:
        assert set(fh.read().split()) == {str(os.getpid())}
    for suffix in ("", ".ckpt"):
        with open(paths["inline"] + suffix, "rb") as a, open(paths["forked"] + suffix, "rb") as b:
            assert a.read() == b.read()


@pytest.mark.round_engine
def test_a_recorder_writes_only_in_the_process_that_opened_it(tmp_path):
    # A forked copy of a run's recorder is inert: what the child records,
    # checkpoints, aborts and closes lands in no journal, file or status.
    path = str(tmp_path / "run.jsonl")
    recorder = RunRecorder(path, status_port=0)
    try:
        recorder.start({"experiment": "jfat", "rounds": 2})
        recorder.record("round", round=0, sim_time_s=1.0)
        with open(path, "rb") as fh:
            journal = fh.read()
        observed = recorder.status.snapshot()["events_observed"]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                recorder.record("round", round=1, sim_time_s=2.0)
                recorder.checkpoint(2, lambda: {"format": 1})
                recorder.abort()
                recorder.close()  # the endpoint's thread is the parent's: this must not wait on it
                code = 0 if recorder.status.snapshot()["events_observed"] == observed else 2
            finally:
                os._exit(code)
        for _ in range(200):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked recorder hung")
        assert os.waitstatus_to_exitcode(status) == 0  # 2: the child's status observed
        with open(path, "rb") as fh:
            assert fh.read() == journal
        assert not os.path.exists(recorder.checkpoint_path)
        assert recorder.status.snapshot()["events_observed"] == observed
        recorder.checkpoint(2, lambda: {"format": 1})  # the opener still writes
        assert os.path.exists(recorder.checkpoint_path)
        assert RunJournal.read(path)[-1]["kind"] == "checkpoint"
    finally:
        recorder.close()


def _replicas_after(exp, round_idx, action):
    """Run ``action(replica pids)`` in the caller as round ``round_idx`` is sampled."""
    parent, sample = os.getpid(), exp.sample_round

    def sample_round(t):
        if t == round_idx and os.getpid() == parent:
            action(list(executor_module._live_workers))
        return sample(t)

    exp.sample_round = sample_round


@pytest.mark.fault_tolerance
def test_a_killed_replica_is_a_typed_error_and_an_abort(tmp_path, workers):
    path = str(tmp_path / "run.jsonl")
    with _jfat(journal_path=path, fusion_width=1) as exp:
        _replicas_after(exp, 2, lambda pids: os.kill(pids[0], signal.SIGKILL))
        with pytest.raises(RoundWorkerError, match=r"round worker \d+ was killed by signal 9 "
                           r"before returning the cohort of items \[1\] \(group 2\)"):
            exp.run()
    assert list(RunJournal.read(path))[-1]["kind"] == "run_abort"
    assert len(workers) == 1  # reaped: the fixture finds no zombie


@pytest.mark.fault_tolerance
@pytest.mark.parametrize("stop", [KeyboardInterrupt(), Refused("caller refused")],
                         ids=["keyboard_interrupt", "abort"])
def test_an_interrupted_run_reaps_its_replica(tmp_path, workers, stop):
    path = str(tmp_path / "run.jsonl")
    with _jfat(journal_path=path, fusion_width=1) as exp:
        def interrupt(pids):
            assert len(pids) == 1
            raise stop

        _replicas_after(exp, 3, interrupt)
        with pytest.raises(type(stop)):
            exp.run()
    assert list(RunJournal.read(path))[-1]["kind"] == "run_abort"
    assert len(workers) == 1 and not executor_module._live_workers


@pytest.mark.fault_tolerance
def test_a_diverged_replica_is_a_typed_error_naming_the_group(tmp_path, monkeypatch, workers):
    # Group 0 forks the replica; from group 1 on it plans other costs.
    parent, submit = os.getpid(), RoundExecutor.submit_group

    def perturbed(self, fn, items, costs=None):
        if os.getpid() != parent:
            costs = [2.0 * self.client_flops] * len(list(items))
        return submit(self, fn, items, costs)

    monkeypatch.setattr(RoundExecutor, "submit_group", perturbed)
    path = str(tmp_path / "run.jsonl")
    with _jfat(journal_path=path, fusion_width=1) as exp:
        with pytest.raises(RoundWorkerError, match=r"diverged from this process at group 1"):
            exp.run()
    assert list(RunJournal.read(path))[-1]["kind"] == "run_abort"
    assert len(workers) == 1


@pytest.mark.fault_tolerance
def test_the_status_port_answers_while_the_replica_lives(monkeypatch, workers):
    # Polls made while the replica runs are answered, and so is a request
    # whose connection the endpoint accepted before the fork: the reply ends
    # the connection though the replica holds a copy of it.
    import socket
    import time
    import urllib.request

    polls, closed = [], []

    def poll(pids):
        with urllib.request.urlopen(f"{exp.status_address}/status", timeout=10) as resp:
            polls.append((len(pids), json.loads(resp.read())["state"]))

    def finish_the_early_request(pids):
        early.sendall(b"\r\n")
        reply = b""
        while chunk := early.recv(1 << 16):  # to the end of the reply
            reply += chunk
        closed.append(reply.startswith(b"HTTP/1.0 200"))

    with _jfat(status_port=0, rounds=4) as exp:
        port = int(exp.status_address.rsplit(":", 1)[1])
        early = socket.create_connection(("127.0.0.1", port), timeout=10)
        early.sendall(b"GET /health HTTP/1.0\r\n")  # accepted, awaiting its blank line
        time.sleep(0.2)
        _replicas_after(exp, 1, finish_the_early_request)
        for round_idx in (1, 2, 3):
            _replicas_after(exp, round_idx, poll)
        exp.run()
        early.close()
    assert closed == [True]
    assert polls == [(1, "running")] * 3 and len(workers) == 1


# -- the oracle the OpenBLAS pin relies on -------------------------------------------

_BLAS_SCRIPT = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from repro.baselines import JointFAT
    from repro.core import FedProphet, FedProphetConfig
    from repro.data import make_cifar10_like
    from repro.flsim import FLConfig, executor
    from repro.models import build_vgg

    executor.FORK_FLOOR_FLOPS = float("inf")  # inline: the thread count under test rules
    task = make_cifar10_like(image_size=16, train_per_class=12, test_per_class=4, seed=0)
    build = lambda rng: build_vgg("vgg11", 10, (3, 16, 16), width_mult=0.25, rng=rng)
    sizes = dict(num_clients=3, clients_per_round=2, local_iters=2, batch_size=32,
                 lr=0.05, train_pgd_steps=1, eval_every=0, seed=0)
    sha = hashlib.sha256()
    with JointFAT(task, build, FLConfig(rounds=2, **sizes)) as jfat:
        jfat.run()
    prophet_config = FedProphetConfig(rounds=1, rounds_per_module=1, val_samples=8,
                                      val_pgd_steps=1, **sizes)
    with FedProphet(task, build, prophet_config) as prophet:
        prophet.run()
    for model in (jfat.global_model, prophet.global_model):
        for key, value in sorted(model.state_dict().items()):
            sha.update(key.encode())
            sha.update(np.ascontiguousarray(value).tobytes())
    print(sha.hexdigest())
    """
)


@pytest.mark.round_engine
@pytest.mark.slow
def test_one_blas_thread_changes_no_bit():
    """jFAT on VGG11x0.25 at 16x16 (multithreaded weight-gradient GEMMs)
    and a FedProphet stage: the same state at 1 and 2 OpenBLAS threads."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_SCRIPT], env=env, capture_output=True,
            text=True, check=True, timeout=600,
        )
        digests[threads] = out.stdout.strip().splitlines()[-1]
    assert digests["1"] == digests["2"]
    assert len(digests["1"]) == 64


def test_describe_parallelism_states_workers_pin_and_floors(monkeypatch):
    if not executor_module._Blas.pinnable():
        pytest.skip("the OpenBLAS thread count cannot be pinned on this host")
    monkeypatch.setattr(executor_module, "spare_cores", lambda: 1)
    task = ft.make_cifar10_like(image_size=16, train_per_class=4, test_per_class=2, seed=0)
    dense = ft._cfg(num_clients=4, clients_per_round=2, local_iters=5, batch_size=32)
    with JointFAT(task, lambda rng: build_vgg("vgg11", 10, (3, 16, 16), width_mult=0.25,
                                              rng=rng), dense) as exp:
        text = exp.describe_parallelism()
    assert "engine: 1 run-scoped round worker(s) beside the caller (1 spare core(s))" in text
    assert "each a replica of the run loop, OpenBLAS pinned to 1 thread while they live" in text
    assert "splits between the processes when each share clears 0.015 GFLOP" in text
    assert ("a scope (a run, or an evaluation outside one) forks its round workers once, "
            "at its first group, when its modelled work (a run's: rounds × cohort × one "
            "client's 7.29 GFLOP) clears 1 GFLOP") in text
    with _jfat() as small:  # an 8x8 CNN: five rounds of three clients, far below the floor
        text = small.describe_parallelism()
    assert "engine: serial, one work unit at a time (a scope (a run, or an evaluation" in text


@pytest.mark.round_engine
@pytest.mark.slow
def test_prefix_cache_hit_ratio_on_the_prophet_workload():
    """The benchmark's ``prophet_cascade`` at seed 0 forks as shipped, and
    its cache reads what a run without workers reads (0.73)."""
    from perfbench import workloads

    size = workloads.sizes_for("prophet_cascade", smoke=False)
    exp = workloads.build_prophet_cascade(size, 0, None)
    assert 2 * exp.client_flops > executor_module.FORK_FLOOR_FLOPS  # a worker's share
    with exp:
        exp.run()
        assert exp.prefix_cache.stats()["hit_rate"] == 30 / 41  # 0.7317


@pytest.mark.round_engine
def test_eval_forks_at_the_shipped_floor_only_where_it_pays(tmp_path, monkeypatch, forks):
    """An evaluation outside a run forks iff its plan's modelled work clears
    the floor: ``prophet_cascade``'s standalone validations ([clean, PGD-3]
    on 100 rows) and final eval, and ``swarm_async``'s final eval."""
    from perfbench import workloads

    scoped, scope = [], RoundExecutor.scope

    def recording(self, work_flops):
        scoped.append([work_flops, len(forks)])
        return scope(self, work_flops)

    monkeypatch.setattr(RoundExecutor, "scope", recording)
    size = workloads.sizes_for("prophet_cascade", smoke=False)
    with workloads.build_prophet_cascade(size, 0, None) as exp:
        for module_idx in range(len(exp.partition)):
            exp.cascade_eval(module_idx)
        exp.final_eval(size["final_eval_samples"])
    size = workloads.sizes_for("swarm_async", smoke=False)
    with workloads.build_swarm_async(size, 0, str(tmp_path)) as exp:
        exp.final_eval(size["final_eval_samples"])
    forked = [after - before for (_, before), (_, after) in zip(scoped, scoped[1:])]
    forked.append(len(forks) - scoped[-1][1])
    floor = executor_module.FORK_FLOOR_FLOPS
    assert forked == [int(work > floor) for work, _ in scoped]
    assert forked[-2:] == [1, 0]  # prophet_cascade's final eval forks, swarm_async's not
    assert sum(forked[:-2]) == 3 and len(forked) == 6  # 3 of its 4 validations fork


def test_a_fork_that_fails_trains_the_run_inline(monkeypatch, workers):
    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    executor = RoundExecutor(client_flops=1.0)
    with executor.scope(1.0):
        results = executor.run_group(lambda i: i + 1, range(4))
    assert results == [1, 2, 3, 4]
    assert not workers and executor_module._Blas.saved is None  # the pin is released


# -- the cost-weighted cut splits equal costs where the count did -----------------


def _split_by_count(plan, parts):
    """``_split`` as it was before items carried costs (verbatim)."""
    total = sum(len(c) for c in plan)
    runs = []
    start, done = 0, 0
    for j in range(1, parts):
        target = total * j / parts
        cut, seen = start + 1, done + len(plan[start])  # every run takes a cohort
        while cut < len(plan) - (parts - j) and abs(seen + len(plan[cut]) - target) <= abs(
            seen - target
        ):
            seen += len(plan[cut])
            cut += 1
        runs.append(plan[start:cut])
        start, done = cut, seen
    runs.append(plan[start:])
    return runs


def _contiguous(sizes):
    starts = np.cumsum([0] + sizes)
    return [list(range(a, b)) for a, b in zip(starts, starts[1:])]


_PLANS = st.lists(st.integers(1, 8), min_size=1, max_size=12).map(_contiguous)


@pytest.mark.round_engine
@settings(max_examples=400, deadline=None)
@given(plan=_PLANS, share=st.floats(0.01, 3.0))
@example(plan=[[0], [1, 2]], share=1.0)  # a forced cut
@example(plan=[[0], [1, 2, 3, 4]], share=0.5)
def test_uniform_costs_cut_where_the_count_did(plan, share):
    """Every client costing the same, the cost-weighted ``_split`` returns
    the count-balanced runs."""
    cost = share * 1e9
    for parts in range(2, min(len(plan), 4) + 1):
        weights = [Fraction(cost) * len(c) for c in plan]
        assert executor_module._split(plan, weights, parts) == _split_by_count(plan, parts)
