"""Round workers: forked processes that run the tail of a round's cohort plan.

The ``workers`` fixture forces the fork floor to 0 and one spare core,
so the small experiments of the digest suites fork too, and the oracle
rows check that nothing a run produces can tell: the recorded sync and
FedProphet digests, the recorded journals and the recorded checkpoint
all come out as they do inline.  The hygiene tests then pin what a
worker must never do: flush the journal it inherited, lose an
exception's type, hang when it dies, outlive its group, or keep to
itself the prefix-cache rows it filled.  Two run as shipped: one
OpenBLAS thread changes no bit, and the benchmark's FedProphet
workload keeps its cache hit ratio.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tests.test_fault_tolerance as ft
import tests.test_prophet_engine_digests as prophet_digests
import tests.test_sync_round_digests as sync_digests
from repro.baselines import JointFAT
from repro.flsim import RoundExecutor
from repro.flsim import executor as executor_module
from repro.flsim.executor import CohortFn, RoundWorkerError
from repro.flsim.journal import RunJournal
from repro.flsim.replay import replay_run
from repro.flsim.scheduler import CrossRoundPipeline
from repro.models import build_vgg


@pytest.fixture
def workers(monkeypatch):
    """Floor 0, one spare core; yields the pids of the workers forked."""
    if not executor_module._Blas.pinnable():
        pytest.skip("the OpenBLAS thread count cannot be pinned on this host")
    pids = []

    class Recorded(executor_module._Worker):
        def __init__(self, *args):
            super().__init__(*args)
            pids.append(self.pid)

    monkeypatch.setattr(executor_module, "FORK_FLOOR_FLOPS", 0.0)
    monkeypatch.setattr(executor_module, "spare_cores", lambda: 1)
    monkeypatch.setattr(executor_module, "_Worker", Recorded)
    yield pids
    assert not executor_module._live_workers
    for pid in pids:  # every worker reaped: none left a zombie
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# -- the oracle rows: recorded digests, journals and checkpoints ----------------


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, id=sync_digests._case_id(c)) for c in sync_digests.SERIAL_CASES
     if c[1:] == ("unbalanced", "serial", "median_faults_signflip")],  # one per method
)
def test_sync_round_digest_with_workers(case, workers):
    digest, _, _, _ = sync_digests._digest(*case)
    assert digest == sync_digests._recorded(case)
    assert workers


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, id=prophet_digests._case_id(c)) for c in prophet_digests.CASES
     if c[:2] in (("faults", "sync"), ("median_signflip", "async"))],
)
def test_fedprophet_digest_with_workers(case, workers):
    with open(prophet_digests.DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert prophet_digests._digest(*case) == recorded[prophet_digests._case_id(case)]
    assert workers


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


def test_recorded_checkpoint_resumes_with_workers(tmp_path, workers):
    ft.TestCheckpointResume().test_resume_from_a_checkpoint_written_before_pr23(tmp_path)
    assert workers


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
    """A jFAT whose last client raises ``exc`` — in the worker's share."""
    parent = os.getpid() if parent is None else parent

    class Raising(JointFAT):
        def async_client_fn(self, round_idx, base_state):
            inner = super().async_client_fn(round_idx, base_state)

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


def test_killed_worker_is_a_typed_error_naming_its_cohort(tmp_path, workers):
    path = str(tmp_path / "run.jsonl")
    parent = os.getpid()

    class Killed(JointFAT):
        def async_client_fn(self, round_idx, base_state):
            inner = super().async_client_fn(round_idx, base_state)

            def cohort(items):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return inner.cohort_fn(items)

            return CohortFn(cohort, group_key=inner.group_key)

    exp = Killed(ft._task(), ft._builder, ft._cfg(journal_path=path, fusion_width=1))
    with pytest.raises(RoundWorkerError, match=r"killed by signal 9 before returning "
                       r"the cohort of items \[2\]"):
        exp.run()
    assert list(RunJournal.read(path))[-1]["kind"] == "run_abort"


def _group(executor, stop=None):
    """A three-item group whose work unit raises ``stop`` in the caller."""
    parent = os.getpid()

    def unit(item):
        if stop is not None and os.getpid() == parent and item == 1:
            raise stop
        return item * 10

    return executor.submit_group(unit, range(3))


@pytest.mark.parametrize("end", ["close", "drop", "keyboard_interrupt", "error"])
def test_ending_a_group_early_kills_and_reaps_its_worker(workers, end):
    executor = RoundExecutor(client_flops=1.0)
    stop = {"keyboard_interrupt": KeyboardInterrupt(), "error": Refused("x")}.get(end)
    group = _group(executor, stop)
    assert next(group) == (0, 0)
    assert len(workers) == 1 and workers[0] in executor_module._live_workers
    if end == "close":
        group.close()
    elif end == "drop":
        del group  # refcounting alone: no cyclic GC runs
    else:
        with pytest.raises(type(stop)):
            next(group)
    # the fixture asserts the worker is reaped


def test_export_state_reaps_the_workers_of_inflight_rounds(tmp_path, monkeypatch, workers):
    # A checkpoint lands every in-flight round's group, so its worker is
    # read to the end and reaped before the checkpoint is written.
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
    assert workers and alive == [0] * 5


def test_a_group_forks_at_most_one_worker_per_spare_core(monkeypatch, workers):
    monkeypatch.setattr(executor_module, "spare_cores", lambda: 2)
    executor = RoundExecutor(client_flops=1.0)
    assert executor.run_group(lambda i: i * i, range(7)) == [i * i for i in range(7)]
    assert len(workers) == 2
    first, second = executor.submit_group(abs, range(4)), executor.submit_group(abs, range(4))
    assert next(first) == (0, 0) and len(workers) == 2 + 2
    assert next(second) == (0, 0) and len(workers) == 4  # no core left: inline
    assert sorted(first) + sorted(second) == [(i, i) for i in range(1, 4)] * 2


def test_a_lone_fused_cohort_is_split_between_caller_and_worker(workers):
    executor = RoundExecutor(fusion_width=8, client_flops=1.0)
    seen = []
    fn = CohortFn(lambda items: seen.append(len(items)) or [-i for i in items],
                  group_key=lambda i: "g")
    assert executor.run_group(fn, range(5)) == [0, -1, -2, -3, -4]
    assert seen == [3]  # the caller's chunk; the worker ran the other two
    assert len(workers) == 1


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


def test_describe_parallelism_states_workers_pin_and_floor(monkeypatch):
    if not executor_module._Blas.pinnable():
        pytest.skip("the OpenBLAS thread count cannot be pinned on this host")
    monkeypatch.setattr(executor_module, "spare_cores", lambda: 1)
    task = ft.make_cifar10_like(image_size=16, train_per_class=4, test_per_class=2, seed=0)
    dense = ft._cfg(num_clients=4, clients_per_round=2, local_iters=5, batch_size=32)
    with JointFAT(task, lambda rng: build_vgg("vgg11", 10, (3, 16, 16), width_mult=0.25,
                                              rng=rng), dense) as exp:
        text = exp.describe_parallelism()
    assert "engine: 1 forked round worker(s) beside the caller (1 spare core(s))" in text
    assert "OpenBLAS pinned to 1 thread while they run" in text
    assert "share above 1 GFLOP of modelled training, one client 7.29 GFLOP" in text
    with _jfat() as small:  # an 8x8 CNN: far below the floor
        text = small.describe_parallelism()
    assert "engine: serial, one work unit at a time (a worker forks for a share above" in text


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


def test_a_fork_that_fails_trains_the_run_inline(monkeypatch, workers):
    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    executor = RoundExecutor(client_flops=1.0)
    assert executor.run_group(lambda i: i + 1, range(4)) == [1, 2, 3, 4]
    assert not workers and executor_module._Blas.saved is None  # the pin is released
