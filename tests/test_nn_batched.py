"""Client fusion: slab kernels and cohort dispatch on every backend.

Two layers of guarantees, both **bit-exact** (``np.array_equal``, not
allclose — determinism is the contract, not a tolerance):

* kernel level: a cohort-aware layer with K client slabs installed must
  reproduce K independent serial layers exactly — forward outputs, input
  gradients, parameter-gradient slabs, and BatchNorm running-statistic
  slabs — because the stacked GEMMs run the same BLAS kernel over the
  same contiguous per-client layout and every multi-axis reduction runs
  per client slice;
* round level: a federated run fused at any width on any backend must be
  bit-identical to the per-item reference (``serial``,
  ``fusion_width=1`` — always the reference side, since ``serial`` fuses
  by default), for sync and cross-round-pipelined async aggregation,
  with fault and threat plans active, across homogeneous (jFAT, FedRBN)
  and identical-mask-grouped heterogeneous (HeteroFL) baselines.
"""

import numpy as np
import pytest

from repro.baselines import FedRBN, HeteroFLAT, JointFAT
from repro.core.prefix_cache import PrefixCache
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.flsim.executor import CohortFn, RoundExecutor
from repro.flsim.faults import FaultPlan
from repro.flsim.scheduler import FLScheduler
from repro.flsim.threats import ThreatPlan
from repro.hardware import DEVICE_POOL_CIFAR10, DeviceSampler
from repro.models import build_cnn, build_vgg
from repro.nn import BatchNorm2d, Conv2d, DualBatchNorm2d, Linear
from repro.nn.cohort import (
    CohortCrossEntropyLoss,
    clear_cohort,
    extract_cohort,
    install_cohort,
)
from repro.nn.losses import CrossEntropyLoss
from tests.helpers import record_cohort_widths


def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


# ---------------------------------------------------------------------------
# Kernel-level slab semantics: stacked layer == K serial layers, bit for bit
# ---------------------------------------------------------------------------


def _clone_layers(make_layer, k):
    """K serial layers with distinct weights + one cohort layer over them."""
    serial = [make_layer(np.random.default_rng(10 + i)) for i in range(k)]
    cohort = make_layer(np.random.default_rng(0))
    install_cohort(cohort, [layer.state_dict() for layer in serial])
    return serial, cohort


def _layer_case(make_layer, x_shape, k=3, b=4, train=True):
    rng = np.random.default_rng(99)
    serial, cohort = _clone_layers(make_layer, k)
    xs = [rng.normal(size=(b,) + x_shape).astype(np.float32) for _ in range(k)]
    for layer in serial + [cohort]:
        layer.train() if train else layer.eval()

    outs = [layer.forward(x) for layer, x in zip(serial, xs)]
    stacked_out = cohort.forward(np.concatenate(xs))
    np.testing.assert_array_equal(stacked_out, np.concatenate(outs))

    gs = [rng.normal(size=out.shape).astype(np.float32) for out in outs]
    gx = [layer.backward(g) for layer, g in zip(serial, gs)]
    stacked_gx = cohort.backward(np.concatenate(gs))
    np.testing.assert_array_equal(stacked_gx, np.concatenate(gx))

    for (name, p_cohort) in cohort.named_parameters():
        for i, layer in enumerate(serial):
            p_serial = dict(layer.named_parameters())[name]
            np.testing.assert_array_equal(
                p_cohort.slab_grad[i], p_serial.grad, err_msg=f"{name}[{i}]"
            )
    # Buffers (BN running stats) updated per client slice.
    trained = extract_cohort(cohort)
    for i, layer in enumerate(serial):
        _assert_states_equal(layer.state_dict(), trained[i], f"client {i}: ")


class TestSlabKernels:
    def test_linear(self):
        _layer_case(lambda rng: Linear(6, 5, rng=rng), (6,))

    def test_linear_no_bias(self):
        _layer_case(lambda rng: Linear(6, 5, bias=False, rng=rng), (6,))

    def test_conv2d(self):
        _layer_case(
            lambda rng: Conv2d(3, 4, kernel_size=3, padding=1, rng=rng), (3, 6, 6)
        )

    def test_conv2d_strided(self):
        _layer_case(
            lambda rng: Conv2d(3, 4, kernel_size=3, stride=2, rng=rng), (3, 7, 7)
        )

    def test_conv2d_image_layer(self):
        # im2col forward (k·C < out_w) and col2im input gradient (C_out > 4·C)
        _layer_case(
            lambda rng: Conv2d(1, 6, kernel_size=3, padding=1, rng=rng), (1, 6, 6)
        )

    def test_batchnorm_train(self):
        _layer_case(lambda rng: BatchNorm2d(3), (3, 5, 5))

    def test_batchnorm_eval(self):
        _layer_case(lambda rng: BatchNorm2d(3), (3, 5, 5), train=False)

    def test_dual_batchnorm_both_banks(self):
        for adversarial in (False, True):
            def make(rng, adv=adversarial):
                layer = DualBatchNorm2d(3)
                layer.set_mode(adv)
                return layer

            _layer_case(make, (3, 5, 5))

    def test_whole_model_forward_backward(self):
        k, b = 3, 4
        serial, cohort = _clone_layers(
            lambda rng: build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=rng), k
        )
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=(b, 3, 8, 8)).astype(np.float32) for _ in range(k)]
        for m in serial + [cohort]:
            m.train()
        outs = [m(x) for m, x in zip(serial, xs)]
        np.testing.assert_array_equal(
            cohort(np.concatenate(xs)), np.concatenate(outs)
        )

    def test_extract_roundtrips_install(self):
        model = build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))
        states = [
            build_cnn(2, 10, (3, 8, 8), base_channels=4,
                      rng=np.random.default_rng(i)).state_dict()
            for i in (2, 3)
        ]
        install_cohort(model, states)
        for got, want in zip(extract_cohort(model), states):
            _assert_states_equal(got, want)
        clear_cohort(model)
        assert model._cohort_k == 0
        with pytest.raises(RuntimeError):
            extract_cohort(model)

    def test_clear_restores_serial_path(self):
        model = build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))
        model.eval()
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
        before = model(x)
        install_cohort(model, [model.state_dict()] * 2)
        clear_cohort(model)
        np.testing.assert_array_equal(model(x), before)


class TestCohortCrossEntropy:
    def test_matches_serial_loss_and_grad(self):
        k, b, c = 3, 5, 7
        rng = np.random.default_rng(2)
        logits = [rng.normal(size=(b, c)).astype(np.float32) for _ in range(k)]
        labels = [rng.integers(0, c, size=b) for _ in range(k)]
        serial = [CrossEntropyLoss() for _ in range(k)]
        losses = [ce(lg, y) for ce, lg, y in zip(serial, logits, labels)]
        grads = [ce.backward() for ce in serial]

        cohort = CohortCrossEntropyLoss(k)
        stacked = cohort(np.concatenate(logits), np.concatenate(labels))
        np.testing.assert_array_equal(stacked, np.array(losses))
        np.testing.assert_array_equal(cohort.backward(), np.concatenate(grads))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            CohortCrossEntropyLoss(0)


# ---------------------------------------------------------------------------
# Cohort planning and the CohortFn contract
# ---------------------------------------------------------------------------


class TestCohortPlanning:
    def test_groups_chunked_to_fusion_width(self):
        ex = RoundExecutor("serial", max_workers=1, fusion_width=4)
        fn = CohortFn(lambda i, s: i, lambda it, s: it, group_key=lambda i: "g")
        assert ex.plan_cohorts(fn, list(range(6))) == [[0, 1, 2, 3], [4, 5]]

    def test_none_keys_stay_singletons(self):
        ex = RoundExecutor("serial", max_workers=1, fusion_width=4)
        fn = CohortFn(
            lambda i, s: i, lambda it, s: it,
            group_key=lambda i: None if i % 2 else "g",
        )
        plan = ex.plan_cohorts(fn, list(range(5)))
        assert [0, 2, 4] in plan
        assert [1] in plan and [3] in plan

    def test_distinct_keys_never_fuse(self):
        ex = RoundExecutor("serial", max_workers=1, fusion_width=4)
        fn = CohortFn(lambda i, s: i, lambda it, s: it, group_key=lambda i: i % 2)
        assert sorted(ex.plan_cohorts(fn, list(range(4)))) == [[0, 2], [1, 3]]

    def test_fusion_width_one_disables_fusion(self):
        ex = RoundExecutor("serial", max_workers=1, fusion_width=1)
        fn = CohortFn(lambda i, s: i, lambda it, s: it, group_key=lambda i: "g")
        assert ex.plan_cohorts(fn, list(range(3))) == [[0], [1], [2]]

    def test_plain_fn_runs_per_item(self):
        # A baseline without a cohort path still runs (per item).
        ex = RoundExecutor("serial", max_workers=1, fusion_width=4)
        assert ex.map(lambda i, s: i * i, list(range(5))) == [0, 1, 4, 9, 16]

    def test_map_preserves_item_order(self):
        # Cohort dispatch lives in the scheduler (RoundExecutor.map never
        # fuses), so the barrier view is FLScheduler.run_group.
        ex = RoundExecutor("serial", max_workers=1, fusion_width=3)
        fn = CohortFn(
            lambda i, s: ("item", i),
            lambda items, s: [("cohort", i) for i in items],
            group_key=lambda i: None if i in (1, 4) else "g",
        )
        out = FLScheduler(ex).run_group("t", fn, list(range(6)))
        assert [v[1] for v in out] == list(range(6))
        assert out[1][0] == "item" and out[4][0] == "item"
        assert out[0][0] == "cohort"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(fusion_width=0)
        with pytest.raises(ValueError):
            RoundExecutor("serial", fusion_width=0)
        with pytest.raises(ValueError, match="unknown executor backend"):
            RoundExecutor("batched")
        with pytest.raises(ValueError, match="use `fusion_width`"):
            FLConfig(executor_backend="batched")


class TestPrefixCacheStacked:
    def test_fetch_stacked_matches_serial_fetch(self):
        calls = []

        def forward(x):
            calls.append(len(x))
            return x * 2.0

        rng = np.random.default_rng(0)
        data = [rng.normal(size=(8, 3)).astype(np.float32) for _ in range(3)]

        serial = PrefixCache()
        serial_out = []
        for cid, x in enumerate(data):
            serial.fetch(("c", cid), np.arange(4), x[:4], forward, 8)
            serial_out.append(
                serial.fetch(("c", cid), np.arange(2, 8), x[2:8], forward, 8)
            )

        calls.clear()
        stacked = PrefixCache()
        stacked.fetch_stacked(
            [("c", cid) for cid in range(3)],
            [np.arange(4)] * 3,
            [x[:4] for x in data],
            forward,
            [8] * 3,
        )
        assert calls == [12]  # one fused forward over the 3 clients' misses
        out = stacked.fetch_stacked(
            [("c", cid) for cid in range(3)],
            [np.arange(2, 8)] * 3,
            [x[2:8] for x in data],
            forward,
            [8] * 3,
        )
        assert calls == [12, 12]  # rows 2-3 hit, rows 4-7 fused again
        for got, want in zip(out, serial_out):
            np.testing.assert_array_equal(got, want)
        assert stacked.stats()["hits"] == serial.stats()["hits"]
        assert stacked.stats()["misses"] == serial.stats()["misses"]


# ---------------------------------------------------------------------------
# Round-level bit-identity: fused == per-item across baselines and modes
# ---------------------------------------------------------------------------


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)


BASELINES = {
    "jfat": (
        JointFAT,
        lambda rng: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng),
    ),
    "fedrbn": (
        FedRBN,
        lambda rng: build_vgg(
            "vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng, bn_cls=DualBatchNorm2d
        ),
    ),
    "heterofl": (
        HeteroFLAT,
        lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng),
    ),
}


def _run(name, backend, fusion_width=1, heterogeneity="balanced", **overrides):
    cls, builder = BASELINES[name]
    defaults = dict(
        num_clients=6, clients_per_round=5, local_iters=2, batch_size=8,
        lr=0.02, rounds=2, train_pgd_steps=2, eval_every=0,
        eval_pgd_steps=2, seed=0,
        executor_backend=backend, round_parallelism=2,
        fusion_width=fusion_width,
    )
    defaults.update(overrides)
    sampler = DeviceSampler(DEVICE_POOL_CIFAR10, heterogeneity)
    exp = cls(_task(), builder, FLConfig(**defaults), device_sampler=sampler)
    widths = record_cohort_widths(exp)
    exp.run()
    state = {k: v.copy() for k, v in exp.global_model.state_dict().items()}
    history = [(r.round, r.sim_time_s, r.compute_s, r.aborted) for r in exp.history]
    log = list(exp.async_log)
    exp.close()
    return state, history, log, max(widths)


ASYNC_DEPTH2 = dict(
    rounds=3, aggregation_mode="async", max_staleness=2,
    pipeline_depth=2, heterogeneity="unbalanced",
)
# Nine clients a round: tail chunks at every width (2+2+2+2+1, 4+4+1, 8+1).
MATRIX_MODES = {
    "sync": dict(num_clients=10, clients_per_round=9),
    "async2": dict(num_clients=10, clients_per_round=9, **ASYNC_DEPTH2),
}
_matrix_refs = {}


def _matrix_reference(name, mode):
    """The per-item path (serial, fusion_width=1), run once per cell."""
    if (name, mode) not in _matrix_refs:
        _matrix_refs[name, mode] = _run(name, "serial", **MATRIX_MODES[mode])
    return _matrix_refs[name, mode]


def _assert_realised(ref, got, width):
    """The reference side ran per item; the fused side's widest cohort
    was really ``width`` (``_run`` returns the widest planned cohort)."""
    assert ref[3] == 1
    assert got[3] == width


class TestBatchedBackendDeterminism:
    """Fused cohorts vs the per-item reference (``_run``'s default
    ``fusion_width=1`` on ``serial``) — never serial-default vs itself,
    and never per-item vs per-item: every test asserts the widths realised."""

    # clients_per_round=5 with equal shards gives one ragged cohort at
    # width 2 (2+2+1) and width 4 (4+1) — the planner's tail chunks.
    @pytest.mark.parametrize("name", sorted(BASELINES))
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_sync_matches_serial(self, name, width):
        ref = _run(name, "serial")
        got = _run(name, "thread", fusion_width=width)
        _assert_states_equal(ref[0], got[0], f"{name} w{width}: ")
        assert ref[1] == got[1]
        _assert_realised(ref, got, width)

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_async_pipeline_depth2_matches_serial(self, name):
        ref = _run(name, "serial", **ASYNC_DEPTH2)
        got = _run(name, "thread", fusion_width=4, **ASYNC_DEPTH2)
        _assert_states_equal(ref[0], got[0], f"{name} async: ")
        assert ref[2] == got[2]
        _assert_realised(ref, got, 4)

    # The cheap CNN covers every cell; the VGG baselines the default width.
    @pytest.mark.parametrize(
        "name,backend,width,mode",
        [
            (name, backend, width, mode)
            for name in sorted(BASELINES)
            for backend in ("serial", "thread", "process")
            for width in (2, 4, 8)
            for mode in sorted(MATRIX_MODES)
            if name == "heterofl" or width == 8
        ],
    )
    def test_fused_matches_per_item_on_every_backend(self, name, backend, width, mode):
        ref = _matrix_reference(name, mode)
        got = _run(name, backend, fusion_width=width, **MATRIX_MODES[mode])
        _assert_states_equal(ref[0], got[0], f"{name} {backend} w{width} {mode}: ")
        assert ref[1] == got[1]
        assert ref[2] == got[2]
        _assert_realised(ref, got, width)

    def test_sync_with_fault_and_threat_plans(self):
        kw = dict(
            rounds=3,
            fault_plan=FaultPlan(seed=3, dropout_prob=0.2, straggler_prob=0.2),
            threat_plan=ThreatPlan(seed=7, byzantine_prob=0.3, attack="sign_flip"),
            aggregation_rule="trimmed_mean", trim_ratio=0.2,
        )
        ref = _run("jfat", "serial", **kw)
        for backend in ("serial", "thread"):
            got = _run("jfat", backend, fusion_width=4, **kw)
            _assert_states_equal(ref[0], got[0], f"faults+threats {backend}: ")
            assert ref[1] == got[1]
            assert ref[3] == 1 and got[3] > 1  # dropouts thin the cohorts

    def test_unbalanced_fedrbn_mixes_cohort_kinds(self):
        # Unbalanced devices split FedRBN clients between the AT and
        # standard-training branches; the fusion key separates them.
        ref = _run("fedrbn", "serial", heterogeneity="unbalanced")
        got = _run("fedrbn", "thread", fusion_width=4, heterogeneity="unbalanced")
        _assert_states_equal(ref[0], got[0], "fedrbn unbalanced: ")
        _assert_realised(ref, got, 4)


class TestDescribeParallelism:
    def _exp(self, **overrides):
        cls, builder = BASELINES["jfat"]
        defaults = dict(
            num_clients=4, clients_per_round=2, local_iters=1, batch_size=8,
            lr=0.02, rounds=1, train_pgd_steps=1, eval_every=0,
            eval_pgd_steps=1, seed=0,
        )
        defaults.update(overrides)
        return cls(_task(), builder, FLConfig(**defaults))

    def test_reports_backend_workers_and_fusion(self):
        exp = self._exp(
            executor_backend="thread", round_parallelism=2, fusion_width=3
        )
        text = exp.describe_parallelism()
        exp.close()
        assert "thread x2" in text
        assert "fusion width 3 (configured)" in text

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_every_backend_reports_the_effective_width_and_its_cause(self, backend):
        # VGG11x0.25 8x8 at B=8: 182 KiB per client, so 5 fit the budget.
        exp = self._exp(executor_backend=backend, round_parallelism=2)
        text = exp.describe_parallelism()
        exp.close()
        assert f"{backend} x2" in text
        assert "fusion width 5 (derived: 4·B·A = 182.3 KiB per client" in text
        assert "1024 KiB stacked budget, at most 8; configured: auto)" in text
        assert "1 disables fusion" in text

    def test_reports_width_one_for_large_tensors(self):
        exp = self._exp(batch_size=32)
        text = exp.describe_parallelism()
        exp.close()
        assert "fusion width 1 (derived: 4·B·A = 729.2 KiB per client" in text
