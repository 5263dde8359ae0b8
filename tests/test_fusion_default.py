"""Fusion is the default round path (PR 16).

What is observable about that, pinned here:

* a default ``FLConfig`` fuses equal-key clients of a small-tensor model
  (the width is derived; ``tests/test_fusion_width.py`` pins the rule) into
  one stacked trainer call; ragged shards, ``None`` keys and plain work functions stay per
  item, and FedProphet (a plain work function) trains exactly as before;
* the executor runs one call per *cohort*;
* ``fusion_width`` is non-semantic: a run journalled and checkpointed
  per item resumes and replays bit-identically fused;
* hostile input inside a cohort — a raising work unit, a NaN shard —
  ends the round exactly as the per-item path does and leaves the
  workspace model in the serial layout.
"""

import numpy as np
import pytest

import repro.baselines.fedrbn as fedrbn_module
import repro.baselines.jfat as jfat_module
import repro.core.prophet as prophet_module
import repro.nn.cohort as cohort_module
from repro.baselines import FedRBN, JointFAT
from repro.cli import build_parser
from repro.core import FedProphet, FedProphetConfig
from repro.data import ArrayDataset, make_cifar10_like
from repro.flsim import FLConfig, RunJournal, replay_run
from repro.flsim.executor import CohortFn, RoundExecutor
from repro.hardware import Device, DeviceSampler
from repro.hardware.memory import MemoryModel
from repro.models import build_cnn
from repro.nn import DualBatchNorm2d
from repro.optim.sgd import SGD
from tests.helpers import record_cohort_widths

pytestmark = pytest.mark.fusion


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _cfg(cls=FLConfig, **overrides):
    # Engine fields (fusion_width, ...) stay at their defaults unless a
    # test overrides them.
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
    """The width of every call to jFAT's one leaf trainer, in call order."""
    widths = []
    real = jfat_module.cohort_adversarial_local_train

    def counted(model, datasets, *args, **kwargs):
        widths.append(len(datasets))
        return real(model, datasets, *args, **kwargs)

    monkeypatch.setattr(jfat_module, "cohort_adversarial_local_train", counted)
    return widths


# ---------------------------------------------------------------------------
# The default fuses — where fusing is possible
# ---------------------------------------------------------------------------


class TestDefaultRoundPath:
    def test_default_config_is_serial_width_derived(self):
        assert FLConfig().fusion_width is None
        assert RoundExecutor().fusion_width == 8  # the derived width's bound
        assert build_parser().parse_args(["train"]).fusion_width is None
        assert build_parser().parse_args(["train", "--fusion-width", "4"]).fusion_width == 4

    def test_equal_shards_train_as_one_cohort_call(self, trainer_calls):
        with _jfat(rounds=1) as exp:
            exp.run()
        assert trainer_calls == [8]

    def test_ragged_shards_train_per_item(self, trainer_calls):
        with _jfat(rounds=1) as exp:
            for client in exp.clients:  # 25, 24, ... samples: 8 fusion keys
                client._dataset = client.dataset.subset(range(25 - client.cid))
            exp.run()
        assert trainer_calls == [1] * 8

    def test_fusion_width_one_trains_per_item(self, trainer_calls):
        with _jfat(rounds=1, fusion_width=1) as exp:
            exp.run()
        assert trainer_calls == [1] * 8

    def test_none_keys_and_plain_functions_run_per_item(self):
        ex = RoundExecutor()
        log = []

        def item_fn(i):
            log.append(("item", i))
            return i

        def cohort_fn(items):
            log.append(("cohort", tuple(items)))
            return list(items)

        unkeyed = CohortFn(cohort_fn, group_key=lambda i: None)
        assert ex.run_group(unkeyed, range(4)) == [0, 1, 2, 3]
        assert log == [("cohort", (i,)) for i in range(4)]
        del log[:]
        assert ex.run_group(item_fn, range(4)) == [0, 1, 2, 3]
        assert log == [("item", i) for i in range(4)]
        keyed = CohortFn(cohort_fn, group_key=lambda i: "g")
        del log[:]
        assert ex.run_group(keyed, range(10)) == list(range(10))
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


class TestExecutorRunsCohorts:
    def test_sixteen_fusable_clients_run_as_two_cohorts(self):
        fn = CohortFn(lambda items: [len(items)] * len(items), group_key=lambda item: "g")
        ex = RoundExecutor(fusion_width=8)
        assert [len(c) for c in ex.plan_cohorts(fn, range(16))] == [8, 8]
        assert ex.run_group(fn, range(16)) == [8] * 16


# ---------------------------------------------------------------------------
# fusion_width is non-semantic: resume and replay across widths
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
    with _jfat(journal_path=path, fusion_width=8, **kw) as resumed:
        widths = record_cohort_widths(resumed)
        resumed.resume(path)
        _assert_same_weights(_weights(resumed), want)
        assert widths == [8]  # the one remaining round really ran fused

    for n, engine in enumerate([dict(fusion_width=8), dict(fusion_width=4)]):
        replay_path = str(tmp_path / f"replay{n}" / "run.jsonl")
        report = replay_run(
            path, lambda: _jfat(journal_path=replay_path, **engine, **kw)
        )
        assert report.rounds == 3
        assert report.resumes_folded == 1
        assert report.skipped_checkpoints == 0


# ---------------------------------------------------------------------------
# Hostile input inside a width-8 cohort
# ---------------------------------------------------------------------------


def _serial_layout(model):
    return model._cohort_k == 0 and all(
        p.slab is None and p.slab_grad is None for _, p in model.named_parameters()
    ) and not any(m._slab_buffers for m in model.modules())


class TestHostileCohort:
    def _abort(self, tmp_path, monkeypatch, width):
        """Run with jFAT's leaf trainer raising; return the error."""

        def explode(*args, **kwargs):
            raise FloatingPointError("client exploded")

        monkeypatch.setattr(jfat_module, "cohort_adversarial_local_train", explode)
        path = str(tmp_path / f"w{width}.jsonl")
        exp = _jfat(journal_path=path, fusion_width=width)
        with pytest.raises(FloatingPointError, match="client exploded") as info:
            exp.run()
        kinds = [e["kind"] for e in RunJournal.read(path)]
        exp.close()
        return exp, info.value, kinds

    def test_raising_unit_aborts_like_the_per_item_path(self, tmp_path, monkeypatch):
        _, per_item, kinds_1 = self._abort(tmp_path, monkeypatch, 1)
        exp, fused, kinds_8 = self._abort(tmp_path, monkeypatch, 8)
        assert type(fused) is type(per_item)
        assert kinds_8 == kinds_1 and kinds_8[-1] == "run_abort"
        assert "round" not in kinds_8
        assert _serial_layout(exp._async_workspace())

    @pytest.mark.scheduler
    def test_failed_cohort_raises_once_and_ends_the_group(self):
        done = []

        def cohort_fn(items):
            if 8 in items:
                raise ValueError("second cohort")
            done.append(tuple(items))
            return list(items)

        fn = CohortFn(cohort_fn, group_key=lambda i: "g")
        ex = RoundExecutor()
        group = ex.submit_group(fn, range(24))
        assert done == []  # inline cohorts run when pulled
        assert [next(group) for _ in range(8)] == [(i, i) for i in range(8)]
        assert done == [tuple(range(8))]
        with pytest.raises(ValueError, match="second cohort"):
            next(group)  # raised once, at the pull that runs the second cohort
        assert list(group) == [] and done == [tuple(range(8))]  # the third never ran
        # the barrier view raises the same error, with the same cohorts run
        done.clear()
        with pytest.raises(ValueError, match="second cohort"):
            ex.run_group(fn, range(24))
        assert done == [tuple(range(8))]

    def test_workspace_trains_correctly_after_a_failed_cohort(
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
            ctx = exp.async_round_context(0, [], [])
            fn = exp.async_client_fn(ctx, exp.async_server_state())
            items = [(client, None) for client in exp.clients]
            with pytest.raises(FloatingPointError):
                exp.executor.run_group(fn, items)
        assert _serial_layout(exp._async_workspace())
        exp.run()  # same workspace, next rounds: as if nothing happened
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
                ctx = exp.async_round_context(0, [], [])
                updates = exp.executor.run_group(
                    exp.async_client_fn(ctx, exp.async_server_state()),
                    [(client, None) for client in exp.clients],
                )
                exp.run()
                assert _serial_layout(exp._async_workspace())
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


# ---------------------------------------------------------------------------
# A cohort of one trains on the serial layout
# ---------------------------------------------------------------------------


def _bracketing_sampler(model):
    """Devices around the model's training footprint: FedRBN runs both branches."""
    r_max_gb = MemoryModel(batch_size=8).bytes_for(model, model.in_shape) / 1024**3
    pool = [Device("small", 0.5, 2 * r_max_gb, 2), Device("large", 3.0, 12 * r_max_gb, 16)]
    return DeviceSampler(pool, "balanced")


class TestCohortOfOneNeverInstallsASlab:
    """``fusion_width=1`` trains every client with no slab: no stacked copy of
    the model's parameters exists at any step (the round's memory peak)."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """Every SGD step's parameters must be slab-free; counts the steps."""
        seen = []
        real = SGD.step

        def checked(opt):
            assert all(p.slab is None and p.slab_grad is None for p in opt.params)
            seen.append(1)
            return real(opt)

        def refuse(*args, **kwargs):
            raise AssertionError("a cohort of one installed a slab")

        monkeypatch.setattr(SGD, "step", checked)
        monkeypatch.setattr(cohort_module, "install_cohort", refuse)
        return seen

    def test_jfat_round(self, steps):
        with _jfat(rounds=1, fusion_width=1) as exp:
            widths = record_cohort_widths(exp)
            exp.run()
            assert _serial_layout(exp._async_workspace())
        assert widths == [1] * 8
        assert len(steps) == 8 * 2  # every client's local iterations ran

    def test_fedrbn_round(self, steps, monkeypatch):
        branches = []
        real_dual = FedRBN._cohort_dual_adversarial_train
        real_standard = fedrbn_module.cohort_standard_local_train

        def dual(self, *args):
            branches.append("at")
            return real_dual(self, *args)

        def standard(*args, **kwargs):
            branches.append("standard")
            return real_standard(*args, **kwargs)

        monkeypatch.setattr(FedRBN, "_cohort_dual_adversarial_train", dual)
        monkeypatch.setattr(fedrbn_module, "cohort_standard_local_train", standard)

        def builder(rng):
            return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng,
                             bn_cls=DualBatchNorm2d)

        sampler = _bracketing_sampler(builder(np.random.default_rng(0)))
        with FedRBN(_task(), builder, _cfg(rounds=1, fusion_width=1),
                    device_sampler=sampler) as exp:
            widths = record_cohort_widths(exp)
            exp.run()
            assert _serial_layout(exp._async_workspace())
        assert widths == [1] * 8
        assert set(branches) == {"at", "standard"}
        assert len(steps) == 8 * 2
