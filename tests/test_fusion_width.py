"""The fusion-cohort width is derived from the stacked activation footprint (PR 22).

``fusion_width=None`` (the default) stacks ``clamp(1 MiB // (4·B·A), 1, 8)``
clients; an explicit integer keeps its old meaning.  Pinned here:

* the rule as a pure table over the measured geometries — no training;
* the experiment resolves the width once, onto its executor;
  ``plan_cohorts`` chunks by it, an explicit ``fusion_width`` plans
  exactly what it planned before, and a Byzantine round's re-wrapped work
  function keeps the derived width;
* the width is non-semantic: ``None`` / ``1`` / ``8`` end with byte-equal
  weights, clock and merge log, on a geometry that derives 8 and on one
  that derives 1 — each run asserting the widths it really stacked;
* a default run on large tensors holds the per-item run's memory, not the
  fused run's (traced peak; RSS is too allocator-dependent for tier-1);
* the unfold workspace such a run leaves is one buffer per geometry, sized
  to its largest fill.
"""

import math
import tracemalloc

import pytest

from repro.baselines import FedRBN, HeteroFLAT, JointFAT
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.flsim import executor as executor_module
from repro.flsim.executor import (
    DEFAULT_FUSION_WIDTH,
    STACKED_ACTIVATION_BUDGET,
    CohortFn,
    RoundExecutor,
    derived_fusion_width,
)
from repro.flsim.threats import ThreatPlan
from repro.hardware.profile import profile_module
from repro.models import build_cnn, build_vgg
from repro.nn import DualBatchNorm2d
from repro.nn.conv import STREAM_SCRATCH_BYTES, _Unfold
from tests.helpers import empty_workspace, record_cohort_widths, workspace_buffers


def _cnn(base_channels, depth=2):
    return lambda rng=None: build_cnn(
        depth, 10, (3, 8, 8), base_channels=base_channels, rng=rng
    )


def _vgg(size, width_mult=0.25, **kw):
    return lambda rng=None: build_vgg(
        "vgg11", 10, (3, size, size), width_mult=width_mult, rng=rng, **kw
    )


def _task(size):
    return make_cifar10_like(
        image_size=size, train_per_class=20, test_per_class=5, seed=0
    )


def _cfg(**overrides):
    defaults = dict(
        num_clients=4, clients_per_round=4, local_iters=2, batch_size=8,
        lr=0.02, rounds=2, train_pgd_steps=1, eval_every=0, seed=0,
    )
    defaults.update(overrides)
    return FLConfig(**defaults)


# ---------------------------------------------------------------------------
# (a) The rule, as a table
# ---------------------------------------------------------------------------

# (builder, batch size, KiB of activations per client, derived width): the
# seven points of the PR 22 sweep (docs/benchmarks.md) and CI's smoke CNN.
TABLE = {
    "swarm-cnn-b8": (_cnn(8), 8, 54.3125, 8),
    "ci-smoke-cnn-b8": (_cnn(4, depth=3), 8, 31.8125, 8),
    "vgg.25-8x8-b8": (_vgg(8), 8, 182.3125, 5),
    "vgg.25-8x8-b32": (_vgg(8), 32, 729.25, 1),
    "vgg.25-16x16-b32": (_vgg(16), 32, 2641.25, 1),
    "vgg.5-16x16-b32": (_vgg(16, 0.5), 32, 5281.25, 1),
    "vgg.5-32x32-b32": (_vgg(32, 0.5), 32, 20961.25, 1),
}


class TestDerivedWidth:
    @pytest.mark.parametrize("point", sorted(TABLE))
    def test_measured_geometries(self, point):
        builder, batch, kib, width = TABLE[point]
        model = builder()  # rng=None: a description, no weight drawn yet
        undrawn = sum(p._pending is not None for p in model.parameters())
        per_client = 4 * batch * profile_module(model, model.in_shape).activations
        assert per_client == kib * 1024
        assert derived_fusion_width(per_client) == width
        # ... and the walker drew none: the rule reads shapes only
        assert undrawn == sum(p._pending is not None for p in model.parameters()) > 0

    def test_clamped_to_one_and_to_the_upper_bound(self):
        assert (DEFAULT_FUSION_WIDTH, STACKED_ACTIVATION_BUDGET) == (8, 1 << 20)
        assert derived_fusion_width(0) == 8
        assert derived_fusion_width(1) == 8
        assert derived_fusion_width((1 << 20) // 8) == 8
        assert derived_fusion_width((1 << 20) // 8 + 1) == 7
        assert derived_fusion_width(1 << 20) == 1
        assert derived_fusion_width(1 << 40) == 1

    def test_any_budget_in_the_gap_decides_the_measured_points_alike(self):
        # 729.25 KiB (widest point that must not stack) and 2 x 729.25 KiB
        # bracket the constant: moving it inside changes no row of TABLE.
        assert 729.25 * 1024 < STACKED_ACTIVATION_BUDGET < 2 * 729.25 * 1024

    @pytest.mark.parametrize(
        "cls,builder,batch,width",
        [
            (JointFAT, _cnn(8), 8, 8),
            (JointFAT, _vgg(8), 8, 5),
            (JointFAT, _vgg(8), 32, 1),
            (FedRBN, _vgg(8, bn_cls=DualBatchNorm2d), 8, 5),
            (HeteroFLAT, _cnn(4, depth=3), 8, 8),  # global model stands in
        ],
    )
    def test_every_cohort_builder_runs_at_the_width_of_its_model(
        self, cls, builder, batch, width
    ):
        with cls(_task(8), builder, _cfg(batch_size=batch)) as exp:
            assert exp.executor.fusion_width == width
            fn = exp.async_client_fn(0, exp.async_server_state())
            assert isinstance(fn, CohortFn)

    def test_an_explicit_width_is_the_executor_width(self):
        # B=32 VGG derives 1; the configured width wins, uncapped.
        with JointFAT(_task(8), _vgg(8), _cfg(batch_size=32, fusion_width=8)) as exp:
            assert exp.executor.fusion_width == 8


# ---------------------------------------------------------------------------
# (b) Planning: the executor width, explicit widths unchanged, threats
# ---------------------------------------------------------------------------


def _fn():
    return CohortFn(lambda items: list(items), group_key=lambda i: "g")


class TestPlanning:
    @pytest.mark.parametrize(
        "executor,sizes",
        [
            (8, [8, 2]),  # the executor default = the derived width's bound
            (5, [5, 5]),
            (4, [4, 4, 2]),
            (3, [3, 3, 3, 1]),
            (1, [1] * 10),
            (16, [10]),  # an explicit width may exceed the bound
        ],
    )
    def test_chunks_by_the_executor_width(self, executor, sizes):
        ex = RoundExecutor(fusion_width=executor)
        plan = ex.plan_cohorts(_fn(), range(10))
        assert [len(c) for c in plan] == sizes
        assert [i for c in plan for i in c] == list(range(10))

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_explicit_config_plans_what_it_planned_before(self, width):
        # B=32 VGG derives 1, yet an explicit width stacks exactly as asked.
        cfg = _cfg(num_clients=9, clients_per_round=9, batch_size=32,
                   fusion_width=width)
        with JointFAT(_task(8), _vgg(8), cfg) as exp:
            fn = exp.async_client_fn(0, exp.async_server_state())
            plan = exp.executor.plan_cohorts(fn, [(c, None) for c in exp.clients])
        tail = [9 % width] if 9 % width else []
        assert [len(c) for c in plan] == [width] * (9 // width) + tail

    def test_rejects_a_width_below_one(self):
        with pytest.raises(ValueError, match="fusion_width"):
            RoundExecutor(fusion_width=0)
        with pytest.raises(ValueError, match="fusion_width"):
            _cfg(fusion_width=0)

    def test_a_poisoned_round_keeps_the_derived_width(self):
        plan = ThreatPlan(seed=7, byzantine_prob=1.0, attack="sign_flip")
        cfg = _cfg(batch_size=32, rounds=1, local_iters=1, threat_plan=plan)
        with JointFAT(_task(8), _vgg(8), cfg) as exp:
            assert exp.executor.fusion_width == 1
            base = exp.async_server_state()
            fn = exp.async_client_fn(0, base)
            threats = plan.plan_round(0, [c.cid for c in exp.clients])
            wrapped = exp._threat_wrap(0, fn, base, threats)
            assert wrapped is not fn and isinstance(wrapped, CohortFn)
            widths = record_cohort_widths(exp)
            exp.run()
        assert widths == [1] * 4  # the Byzantine round planned singletons


# ---------------------------------------------------------------------------
# (c) Bit-identity across None / 1 / 8, with the widths really stacked
# ---------------------------------------------------------------------------

ASYNC = dict(aggregation_mode="async", max_staleness=2)


def _run(size, builder, batch, width):
    cfg = _cfg(batch_size=batch, fusion_width=width, **ASYNC)
    with JointFAT(_task(size), builder, cfg) as exp:
        widths = record_cohort_widths(exp)
        exp.run()
        state = {k: v.copy() for k, v in exp.global_model.state_dict().items()}
        return state, exp.clock_s, list(exp.async_log), set(widths)


@pytest.mark.parametrize(
    "size,builder,batch,derived",
    [(8, _cnn(8), 8, 4), (16, _vgg(16), 32, 1)],  # 4 = min(8, 4 clients)
    ids=["small-tensors-stack", "vgg-16x16-per-item"],
)
def test_width_is_non_semantic(size, builder, batch, derived):
    auto, per_item, fused = (_run(size, builder, batch, w) for w in (None, 1, 8))
    assert (auto[3], per_item[3], fused[3]) == ({derived}, {1}, {4})
    for got in (auto, fused):
        assert set(got[0]) == set(per_item[0])
        for key, value in per_item[0].items():
            assert got[0][key].tobytes() == value.tobytes(), key
        assert got[1] == per_item[1]
        assert got[2] == per_item[2] and len(got[2]) > 0


# ---------------------------------------------------------------------------
# A memory ceiling: the default never stacks large tensors again
# ---------------------------------------------------------------------------


def _traced_peak(width, monkeypatch):
    """Traced peak of one JointFAT round: jfat_dense's geometry (VGG11x0.25,
    16x16, B=32, 2 clients a round), both clients in this process — a round
    worker would split the fused pair and train one of them elsewhere."""
    monkeypatch.setattr(executor_module, "spare_cores", lambda: 0)
    cfg = _cfg(num_clients=2, clients_per_round=2, batch_size=32, rounds=1,
               fusion_width=width)
    with JointFAT(_task(16), _vgg(16), cfg) as exp:
        empty_workspace()  # count the unfold buffers whatever ran before
        tracemalloc.start()
        try:
            exp.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_default_round_holds_the_per_item_footprint(monkeypatch):
    auto, per_item, fused = (_traced_peak(w, monkeypatch) for w in (None, 1, 8))
    assert abs(auto - per_item) <= 0.05 * per_item
    assert auto <= 0.8 * fused


def test_a_jfat_dense_round_and_eval_keep_one_buffer_per_geometry(monkeypatch):
    """The unfold workspace after one round at jfat_dense's geometry (two
    clients of 60 samples: batches 32 and 28; global model and training
    replica) and a 64-sample robust evaluation (AutoAttack's survivors: any
    batch up to 64) is the largest fill of each geometry and nothing else —
    under 3 MiB, where a buffer per layer x batch size x replica held ~10.
    Only a forward that keeps its columns fills a whole batch; every other
    fill is a streamed piece, so no fill over the training batch holds more
    columns than the scratch."""
    largest, fill = {}, _Unfold.fill

    def recording(self, x, cols):
        shape = (max(len(x), largest.get(self._key, (0,))[0]),) + self._buf_shape
        largest[self._key] = shape
        assert len(x) <= 32 or len(x) * 4 * math.prod(self.cols_shape) <= STREAM_SCRATCH_BYTES
        return fill(self, x, cols)

    monkeypatch.setattr(_Unfold, "fill", recording)
    task = make_cifar10_like(image_size=16, train_per_class=120, test_per_class=24, seed=0)
    cfg = _cfg(num_clients=20, clients_per_round=2, local_iters=5, batch_size=32,
               train_pgd_steps=2, eval_pgd_steps=5, rounds=1)
    empty_workspace()
    with JointFAT(task, _vgg(16), cfg) as exp:
        exp.run()
        exp.final_eval(64)
    buffers = workspace_buffers()
    assert {key: buf.shape for key, buf in buffers.items()} == largest
    assert len(largest) == 7 and max(shape[0] for shape in largest.values()) <= 64
    held = sum(buf.nbytes for buf in buffers.values())
    assert held == sum(4 * math.prod(shape) for shape in largest.values()) <= 3 * 2**20
