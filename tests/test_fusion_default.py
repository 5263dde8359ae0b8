"""Fusion is the default round path on every backend (PR 16).

What is observable about that, pinned here:

* a default ``FLConfig`` fuses equal-key clients of a small-tensor model
  (the width is derived; ``tests/test_fusion_width.py`` pins the rule) into
  one stacked trainer call; ragged shards, ``None`` keys and plain work functions stay per
  item, and FedProphet (a plain work function) trains exactly as before;
* the ``process`` backend forks over *cohorts*, and ``forks_for`` asked
  with the cohort count mirrors that dispatch;
* ``fusion_width`` is non-semantic: a run journalled and checkpointed
  per item resumes and replays bit-identically fused, on another backend;
* hostile input inside an inline cohort — a raising work unit, a NaN
  shard — ends the round exactly as the per-item path does and leaves the
  slot model in the serial layout.
"""

import os

import numpy as np
import pytest

import repro.baselines.jfat as jfat_module
import repro.core.prophet as prophet_module
from repro.baselines import JointFAT
from repro.cli import build_parser
from repro.core import FedProphet, FedProphetConfig
from repro.data import ArrayDataset, make_cifar10_like
from repro.flsim import FLConfig, RunJournal, replay_run
from repro.flsim.executor import CohortFn, RoundExecutor
from repro.flsim.scheduler import FLScheduler
from repro.models import build_cnn
from tests.helpers import record_cohort_widths


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _cfg(cls=FLConfig, **overrides):
    # Engine fields (executor_backend, fusion_width, ...) stay at their
    # defaults unless a test overrides them.
    defaults = dict(
        num_clients=8, clients_per_round=8, local_iters=2, batch_size=8,
        lr=0.02, rounds=2, train_pgd_steps=1, eval_pgd_steps=1,
        eval_every=0, eval_max_samples=16, seed=0,
    )
    defaults.update(overrides)
    return cls(**defaults)


def _jfat(**overrides):
    return JointFAT(_task(), _builder, _cfg(**overrides))


def _weights(exp):
    return {k: v.copy() for k, v in exp.global_model.state_dict().items()}


def _assert_same_weights(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


@pytest.fixture
def trainer_calls(monkeypatch):
    """Count jFAT's leaf-trainer calls; ``cohort`` records each width."""
    calls = {"item": 0, "cohort": []}
    item, cohort = (
        jfat_module.adversarial_local_train,
        jfat_module.cohort_adversarial_local_train,
    )

    def counted_item(*args, **kwargs):
        calls["item"] += 1
        return item(*args, **kwargs)

    def counted_cohort(model, datasets, *args, **kwargs):
        calls["cohort"].append(len(datasets))
        return cohort(model, datasets, *args, **kwargs)

    monkeypatch.setattr(jfat_module, "adversarial_local_train", counted_item)
    monkeypatch.setattr(jfat_module, "cohort_adversarial_local_train", counted_cohort)
    return calls


# ---------------------------------------------------------------------------
# The default fuses — where fusing is possible
# ---------------------------------------------------------------------------


class TestDefaultRoundPath:
    def test_default_config_is_serial_width_derived(self):
        cfg = FLConfig()
        assert (cfg.executor_backend, cfg.fusion_width) == ("serial", None)
        assert RoundExecutor().fusion_width == 8  # the derived width's bound
        args = build_parser().parse_args(["train"])
        assert (args.executor, args.fusion_width) == ("serial", None)
        assert build_parser().parse_args(["train", "--fusion-width", "4"]).fusion_width == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--executor", "batched"])

    def test_equal_shards_train_as_one_cohort_call(self, trainer_calls):
        with _jfat(rounds=1) as exp:
            exp.run()
        assert trainer_calls == {"item": 0, "cohort": [8]}

    def test_ragged_shards_train_per_item(self, trainer_calls):
        with _jfat(rounds=1) as exp:
            for client in exp.clients:  # 25, 24, ... samples: 8 fusion keys
                client._dataset = client.dataset.subset(range(25 - client.cid))
            exp.run()
        assert trainer_calls == {"item": 8, "cohort": []}

    def test_fusion_width_one_trains_per_item(self, trainer_calls):
        with _jfat(rounds=1, fusion_width=1) as exp:
            exp.run()
        assert trainer_calls == {"item": 8, "cohort": []}

    def test_none_keys_and_plain_functions_run_per_item(self):
        scheduler = FLScheduler(RoundExecutor())
        log = []

        def item_fn(i, slot):
            log.append(("item", i))
            return i

        def cohort_fn(items, slot):
            log.append(("cohort", tuple(items)))
            return list(items)

        unkeyed = CohortFn(item_fn, cohort_fn, group_key=lambda i: None)
        assert scheduler.run_group("t", unkeyed, range(4)) == [0, 1, 2, 3]
        assert scheduler.run_group("t", item_fn, range(4)) == [0, 1, 2, 3]
        assert log == [("item", i) for i in range(4)] * 2
        keyed = CohortFn(item_fn, cohort_fn, group_key=lambda i: "g")
        del log[:]
        assert scheduler.run_group("t", keyed, range(10)) == list(range(10))
        assert log == [("cohort", tuple(range(8))), ("cohort", (8, 9))]

    def test_fedprophet_trains_per_item_as_before(self, monkeypatch):
        calls = []
        real = prophet_module.cascade_local_train

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(prophet_module, "cascade_local_train", counted)
        cfg = _cfg(FedProphetConfig, num_clients=6, clients_per_round=4, rounds=2)
        with FedProphet(_task(), _builder, cfg) as exp:
            exp.run()
        assert len(calls) == 2 * 4  # one per sampled client per round


class TestProcessForksOverCohorts:
    @staticmethod
    def _pid_fn():
        return CohortFn(
            lambda item, slot: (os.getpid(), 1),
            lambda items, slot: [(os.getpid(), len(items))] * len(items),
            group_key=lambda item: "g",
        )

    def test_sixteen_fusable_clients_fork_over_two_cohorts(self):
        ex = RoundExecutor("process", max_workers=2, fusion_width=8)
        fn = self._pid_fn()
        cohorts = ex.plan_cohorts(fn, range(16))
        assert [len(c) for c in cohorts] == [8, 8]
        assert ex.forks_for(len(cohorts))
        out = FLScheduler(ex).run_group("t", fn, range(16))
        assert all(width == 8 for _pid, width in out)
        assert all(pid != os.getpid() for pid, _width in out)

    def test_one_cohort_does_not_fork(self):
        ex = RoundExecutor("process", max_workers=2, fusion_width=8)
        fn = self._pid_fn()
        assert not ex.forks_for(len(ex.plan_cohorts(fn, range(8))))
        out = FLScheduler(ex).run_group("t", fn, range(8))
        assert out == [(os.getpid(), 8)] * 8

    def test_fork_failure_fails_every_item(self):
        ex = RoundExecutor("process", max_workers=2, fusion_width=2)

        def boom(items, slot):
            raise ValueError("bad cohort")

        fn = CohortFn(lambda i, s: i, boom, group_key=lambda i: "g")
        group = FLScheduler(ex).submit_group("t", fn, range(4))
        with pytest.raises(ValueError, match="bad cohort"):
            group.results()
        assert group.done()


# ---------------------------------------------------------------------------
# fusion_width is non-semantic: resume and replay across widths and backends
# ---------------------------------------------------------------------------

ASYNC = dict(aggregation_mode="async", max_staleness=2, pipeline_depth=2)


@pytest.mark.parametrize("mode", [{}, ASYNC], ids=["sync", "async2"])
def test_per_item_journal_resumes_and_replays_fused(tmp_path, mode):
    kw = dict(rounds=3, checkpoint_every=1, **mode)
    with _jfat(fusion_width=1, rounds=3, **mode) as ref:
        ref.run()
        want = _weights(ref)

    path = str(tmp_path / "run.jsonl")
    with _jfat(journal_path=path, fusion_width=1, **kw) as interrupted:
        interrupted.run(rounds=2)
    with _jfat(
        journal_path=path, fusion_width=8, executor_backend="thread",
        round_parallelism=2, **kw,
    ) as resumed:
        widths = record_cohort_widths(resumed)
        resumed.resume(path)
        _assert_same_weights(_weights(resumed), want)
        assert widths == [8]  # the one remaining round really ran fused

    for n, engine in enumerate(
        [dict(fusion_width=8), dict(fusion_width=4, executor_backend="process",
                                    round_parallelism=2)]
    ):
        replay_path = str(tmp_path / f"replay{n}" / "run.jsonl")
        report = replay_run(
            path, lambda: _jfat(journal_path=replay_path, **engine, **kw)
        )
        assert report.rounds == 3
        assert report.resumes_folded == 1
        assert report.skipped_checkpoints == 0


# ---------------------------------------------------------------------------
# Hostile input inside an inline width-8 cohort
# ---------------------------------------------------------------------------


def _serial_layout(model):
    return model._cohort_k == 0 and all(
        p.slab is None and p.slab_grad is None for _, p in model.named_parameters()
    ) and not any(m._slab_buffers for m in model.modules())


class TestHostileCohort:
    def _abort(self, tmp_path, monkeypatch, width, target):
        """Run with ``target`` (a jfat leaf trainer) raising; return the error."""

        def explode(*args, **kwargs):
            raise FloatingPointError("client exploded")

        monkeypatch.setattr(jfat_module, target, explode)
        path = str(tmp_path / f"w{width}.jsonl")
        exp = _jfat(journal_path=path, fusion_width=width)
        with pytest.raises(FloatingPointError, match="client exploded") as info:
            exp.run()
        kinds = [e["kind"] for e in RunJournal.read(path)]
        exp.close()
        return exp, info.value, kinds

    def test_raising_unit_aborts_like_the_per_item_path(self, tmp_path, monkeypatch):
        _, per_item, kinds_1 = self._abort(
            tmp_path, monkeypatch, 1, "adversarial_local_train"
        )
        exp, fused, kinds_8 = self._abort(
            tmp_path, monkeypatch, 8, "cohort_adversarial_local_train"
        )
        assert type(fused) is type(per_item)
        assert kinds_8 == kinds_1 and kinds_8[-1] == "run_abort"
        assert "round" not in kinds_8
        assert _serial_layout(exp._async_slot_model(0))

    def test_failed_cohort_fails_its_members_and_everything_after(self):
        done = []

        def cohort_fn(items, slot):
            if 8 in items:
                raise ValueError("second cohort")
            done.append(tuple(items))
            return list(items)

        fn = CohortFn(lambda i, s: i, cohort_fn, group_key=lambda i: "g")
        scheduler = FLScheduler(RoundExecutor())
        group = scheduler.submit_group("t", fn, range(24))
        assert done == []  # inline cohorts run when pulled
        assert [group.next_completion() for _ in range(8)] == [(i, i) for i in range(8)]
        assert done == [tuple(range(8))]
        for _ in range(8, 24):  # the second cohort's members and the third's
            with pytest.raises(ValueError, match="second cohort"):
                group.next_completion()
        assert group.done() and done == [tuple(range(8))]  # third never ran
        with pytest.raises(RuntimeError, match="handed out all 24"):
            group.next_completion()
        # the barrier view raises the same error, with the same cohorts run
        done.clear()
        with pytest.raises(ValueError, match="second cohort"):
            scheduler.submit_group("t", fn, range(24)).results()
        assert done == [tuple(range(8))]

    def test_slot_model_trains_correctly_after_a_failed_cohort(
        self, tmp_path, monkeypatch
    ):
        with _jfat() as ref:
            ref.run()
            want = _weights(ref)
        exp = _jfat()
        real = jfat_module.cohort_adversarial_local_train

        def explode_mid_training(model, *args, **kwargs):
            real(model, *args, **kwargs)  # slabs installed *and* trained
            raise FloatingPointError("after training")

        with monkeypatch.context() as patch:
            patch.setattr(
                jfat_module, "cohort_adversarial_local_train", explode_mid_training
            )
            fn = exp.async_client_fn(0, exp.async_server_state())
            items = [(client, None) for client in exp.clients]
            with pytest.raises(FloatingPointError):
                exp.scheduler.run_group("train", fn, items)
        assert _serial_layout(exp._async_slot_model(0))
        exp.run()  # same slot model, next rounds: as if nothing happened
        _assert_same_weights(_weights(exp), want)
        exp.close()

    @pytest.mark.parametrize("rule", ["fedavg", "median", "trimmed_mean"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_shard_in_a_cohort_matches_the_per_item_outcome(self, rule):
        def run(width):
            with _jfat(rounds=1, fusion_width=width, aggregation_rule=rule) as exp:
                widths = record_cohort_widths(exp)
                client = exp.clients[3]  # a shard gathered per read: inject one
                clean = client.dataset
                client._dataset = ArrayDataset(np.full_like(clean.x, np.inf), clean.y)
                updates = exp.scheduler.run_group(
                    "train",
                    exp.async_client_fn(0, exp.async_server_state()),
                    [(client, None) for client in exp.clients],
                )
                exp.run()
                assert _serial_layout(exp._async_slot_model(0))
                assert set(widths) == {width}  # per item vs really stacked
                return updates, _weights(exp)

        (per_item, want), (fused, got) = run(1), run(8)
        # the non-finite client stays inside its own slab slice ...
        for cid, (a, b) in enumerate(zip(per_item, fused)):
            _assert_same_weights(a, b)
            finite = all(np.isfinite(v).all() for v in b.values())
            assert finite == (cid != 3)
        # ... and the aggregation rule sees exactly what it saw per item
        _assert_same_weights(want, got)
