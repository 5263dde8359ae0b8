"""The frozen-model scope: one derived-weight cache, three things it buys.

``no_param_grads`` carries a cache that lives exactly as long as the
outermost scope (docs/architecture.md § "The frozen-model scope").  Pinned
here:

* the cache's lifetime, its thread-locality, and the guards that keep
  weight writers out of a live scope;
* ``Conv2d`` lays its weights out once per scope;
* eval-mode conv→BatchNorm pairs fold into one convolution — equal to the
  unfolded chain to rounding, zero ``BatchNorm2d`` calls in either direction;
* ``apgd_attack`` runs one model forward per step and returns the array of
  the two-forwards-per-step loop it replaced (kept below as the reference),
  and ``auto_attack_lite`` hands each member only the points still standing;
* the contracts evaluation rests on (batch invariance, ``PrefixCache``
  on ≡ off, ``fetch_stacked``, sharded ≡ serial) still hold folded.
"""

import copy
import multiprocessing
import pickle
import threading
from collections import Counter

import numpy as np
import pytest

import repro.attacks.autoattack as autoattack
import repro.nn.conv as conv_module
from repro.attacks import ModelWithLoss, PGDConfig, apgd_attack, auto_attack_lite
from repro.attacks.autoattack import _checkpoints
from repro.attacks.fgsm import fgsm_attack
from repro.attacks.pgd import gradient_step, pgd_attack, project, random_init
from repro.core.aggregator import restore_segment, snapshot_segment
from repro.core.cascade import CascadeBatchSpec, cascade_local_train
from repro.core.prefix_cache import PrefixCache
from repro.data import ArrayDataset
from repro.flsim import EvalExecutor, EvalTarget, RoundExecutor
from repro.metrics import EvalPlan
from repro.models import build_cnn, build_vgg
from repro.nn import (
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    ConvBNReLU,
    DualBatchNorm2d,
    Identity,
    dtype_scope,
    frozen_cache,
    no_param_grads,
    param_grads_enabled,
)
from repro.nn.cohort import clear_cohort, install_cohort
from repro.nn.grad_mode import scope_cached
from repro.optim.sgd import SGD
from tests.test_nn_kernels import _model_layer_shapes

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _randomise(module, rng):
    """Non-trivial BatchNorm affine parameters and statistics, both banks."""
    for m in module.modules():
        if isinstance(m, BatchNorm2d):
            c = m.num_features
            m.weight.data[...] = rng.normal(1.0, 0.3, size=c)
            m.bias.data[...] = rng.normal(size=c)
            for name in m._buffers:
                stat = rng.uniform(0.5, 2.0, size=c) if "var" in name else rng.normal(size=c)
                m.set_buffer(name, stat)
    return module


@pytest.fixture
def bn_calls(monkeypatch):
    """Counts BatchNorm2d.forward/backward calls (DualBatchNorm2d inherits both)."""
    calls = Counter()
    for name in ("forward", "backward"):
        original = getattr(BatchNorm2d, name)

        def counted(self, x, *args, _name=name, _original=original, **kwargs):
            calls[_name, "train" if self.training else "eval"] += 1
            return _original(self, x, *args, **kwargs)

        monkeypatch.setattr(BatchNorm2d, name, counted)
    return calls


@pytest.fixture
def layout_builds(monkeypatch):
    """Counts what ``Conv2d`` actually builds (layouts, folded biases), per cache key."""
    builds = Counter()

    def counting(key, build):
        def counted_build():
            builds[key] += 1
            return build()

        return scope_cached(key, counted_build)

    monkeypatch.setattr(conv_module, "scope_cached", counting)
    return builds


# ---------------------------------------------------------------------------
# The cache: lifetime, thread-locality, guards
# ---------------------------------------------------------------------------


def test_cache_lives_exactly_as_long_as_the_outermost_scope():
    assert frozen_cache() is None and param_grads_enabled()
    builds = []
    build = lambda: builds.append(1) or len(builds)  # noqa: E731
    assert scope_cached("k", build) == 1 and scope_cached("k", build) == 2  # no scope: no cache
    with no_param_grads():
        outer = frozen_cache()
        assert outer == {} and not param_grads_enabled()
        assert scope_cached("k", build) == 3
        with no_param_grads():
            assert frozen_cache() is outer  # nested scopes share it
            assert scope_cached("k", build) == 3
        assert frozen_cache() is outer and scope_cached("k", build) == 3
    assert frozen_cache() is None
    with no_param_grads():
        assert scope_cached("k", build) == 4  # the next scope starts empty
    with pytest.raises(ZeroDivisionError):
        with no_param_grads():
            1 / 0
    assert frozen_cache() is None and param_grads_enabled()


def test_two_threads_never_see_each_others_entries():
    barrier = threading.Barrier(2, timeout=10)
    seen, errors = {}, []

    def worker(tag):
        try:
            with no_param_grads():
                scope_cached("shared-key", lambda: tag)
                barrier.wait()  # both caches are populated and alive
                seen[tag] = (scope_cached("shared-key", lambda: "rebuilt"), dict(frozen_cache()))
                barrier.wait()
        except Exception as exc:  # surfaced below; a dead worker must not hang the other
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(tag,)) for tag in ("a", "b")]
    with no_param_grads():  # the spawning thread's scope is not inherited either
        scope_cached("shared-key", lambda: "main")
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads) and not errors
        assert frozen_cache() == {"shared-key": "main"}
    assert seen == {"a": ("a", {"shared-key": "a"}), "b": ("b", {"shared-key": "b"})}


def _cascade():
    return build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(0))


@pytest.mark.parametrize("name", ["SGD.step", "load_state_dict", "restore_segment",
                                  "install_cohort", "clear_cohort"])
def test_weight_writers_refuse_to_run_inside_a_scope(name):
    model = _cascade()
    state = model.state_dict()
    writer = {
        "SGD.step": SGD(model.parameters(), lr=0.1).step,
        "load_state_dict": lambda: model.load_state_dict(state),
        "restore_segment": lambda: restore_segment(model, snapshot_segment(model, 0, 2), 0, 2),
        "install_cohort": lambda: install_cohort(model, [state, state]),
        "clear_cohort": lambda: clear_cohort(model),
    }[name]
    with no_param_grads():
        with pytest.raises(RuntimeError, match=f"{name} inside a no_param_grads scope"):
            writer()
    assert model._cohort_k == 0
    writer()  # and works once the scope is closed
    clear_cohort(model)


# ---------------------------------------------------------------------------
# Scope-lifetime conv layouts
# ---------------------------------------------------------------------------


def test_conv_lays_its_weights_out_once_per_scope_and_direction(layout_builds):
    rng = np.random.default_rng(1)
    conv = Conv2d(8, 8, 3, padding=1, rng=rng)
    x = rng.normal(size=(4, 8, 5, 5)).astype(np.float32)
    out = conv.forward(x)
    g = rng.normal(size=out.shape).astype(np.float32)
    grad = conv.backward(g)
    assert sum(layout_builds.values()) == 2  # outside a scope: per call, as ever
    layout_builds.clear()
    with no_param_grads():
        for _ in range(3):
            np.testing.assert_array_equal(conv.forward(x), out)
            np.testing.assert_array_equal(conv.backward(g), grad)
        conv.forward(x[:, :, :1, :1])  # other live taps: another layout
    assert sorted(layout_builds.values()) == [1, 1, 1]
    assert {key[2] for key in layout_builds} == {False, True}


def test_an_sgd_step_between_two_scopes_is_seen_by_the_second():
    rng = np.random.default_rng(2)
    block = _randomise(ConvBNReLU(8, 8, rng=rng), rng).eval()
    x = rng.normal(size=(3, 8, 4, 4)).astype(np.float32)
    with no_param_grads():
        before = block(x).copy()
        g = rng.normal(size=before.shape).astype(np.float32)
        grad_before = block.backward(g).copy()
    for p in block.parameters():
        p.grad[...] = rng.normal(size=p.shape)
    SGD(block.parameters(), lr=0.5).step()
    fresh = copy.deepcopy(block)  # never saw the first scope
    with no_param_grads():
        want, want_grad = fresh(x), fresh.backward(g)
    with no_param_grads():
        after, grad_after = block(x), block.backward(g)
    np.testing.assert_array_equal(after, want)  # fresh layout, fresh fold
    np.testing.assert_array_equal(grad_after, want_grad)
    assert np.abs(after - before).max() > 1e-3 and np.abs(grad_after - grad_before).max() > 1e-3


# ---------------------------------------------------------------------------
# BatchNorm folded into the conv it follows
# ---------------------------------------------------------------------------

NORMS = {
    "bn": (True, BatchNorm2d, False),
    "dual-clean": (True, DualBatchNorm2d, False),
    "dual-adv": (True, DualBatchNorm2d, True),
    "identity": (False, BatchNorm2d, False),
}


def _block_like(conv, norm, rng):
    """A ConvBNReLU with ``conv``'s geometry and the requested norm layer."""
    batch_norm, bn_cls, adversarial = NORMS[norm]
    block = ConvBNReLU(
        conv.in_channels, conv.out_channels, conv.kernel_size, stride=conv.stride,
        padding=conv.padding, batch_norm=batch_norm, rng=rng, bn_cls=bn_cls,
    )
    if bn_cls is DualBatchNorm2d and batch_norm:
        block.bn.set_mode(adversarial)
    return _randomise(block, rng)


def _layer_by_layer(block, x, g):
    """conv → norm → ReLU one layer at a time: the path the parent commit ran."""
    out = block.act(block.bn(block.conv(x)))
    return out, block.conv.backward(block.bn.backward(block.act.backward(g)))


def _close(got, want, dtype):
    # Set beforehand from the dtype: 1e-12 relative in float64, a few ulp
    # (16 eps of the largest magnitude) in float32.
    tol = 1e-12 if dtype == np.float64 else 16 * np.finfo(np.float32).eps
    assert got.dtype == want.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("norm", list(NORMS))
@pytest.mark.parametrize("k", [1, 3], ids=["serial", "cohort3"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_folded_block_equals_the_unfolded_chain_on_every_model_layer_shape(
    monkeypatch, bn_calls, dtype, k, norm
):
    rng = np.random.default_rng(3)
    cases = _model_layer_shapes(monkeypatch)
    assert len(cases) == 18
    for label, conv, shape in cases:
        with dtype_scope(dtype):
            block = _block_like(conv, norm, rng).eval()
            if k > 1:
                states = [_block_like(conv, norm, rng).state_dict() for _ in range(k)]
                install_cohort(block, states)
        x = rng.normal(size=(2 * k,) + shape).astype(dtype)
        with no_param_grads():
            want_out, _ = _layer_by_layer(block, x, np.zeros((), dtype))
            g = rng.normal(size=want_out.shape).astype(dtype)
            want_out, want_grad = _layer_by_layer(block, x, g)
            bn_calls.clear()
            out = block(x)
            grad = block.backward(g)
        assert not bn_calls, f"{label} {shape}: a folded block called BatchNorm"
        if norm == "identity":  # nothing to fold: the parent's path, bit for bit
            np.testing.assert_array_equal(out, want_out)
            np.testing.assert_array_equal(grad, want_grad)
        else:
            _close(out, want_out, dtype)
            _close(grad, want_grad, dtype)
        if k > 1:  # each cohort slice is the serial fold of that client's state
            with dtype_scope(dtype):
                serial = _block_like(conv, norm, rng).eval()
            serial.load_state_dict(states[1])
            with no_param_grads():
                np.testing.assert_array_equal(serial(x[2:4]), out[2:4])
                np.testing.assert_array_equal(serial.backward(g[2:4]), grad[2:4])


@pytest.mark.parametrize("norm", ["bn", "dual-adv"])
def test_train_mode_in_a_scope_and_eval_mode_outside_one_do_not_fold(bn_calls, norm):
    rng = np.random.default_rng(4)
    proto = _block_like(Conv2d(8, 16, 3, padding=1, rng=rng), norm, rng)
    x = rng.normal(size=(6, 8, 4, 4)).astype(np.float32)
    g = rng.normal(size=(6, 16, 4, 4)).astype(np.float32)

    got, ref = copy.deepcopy(proto).train(), copy.deepcopy(proto).train()
    with no_param_grads():
        out, grad = got(x), got.backward(g)
        want_out, want_grad = _layer_by_layer(ref, x, g)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(grad, want_grad)
    for a, b in zip(got.state_dict().values(), ref.state_dict().values()):
        np.testing.assert_array_equal(a, b)  # running statistics advanced alike

    got, ref = copy.deepcopy(proto).eval(), copy.deepcopy(proto).eval()
    out, grad = got(x), got.backward(g)
    want_out, want_grad = _layer_by_layer(ref, x, g)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(grad, want_grad)
    for p, q in zip(got.parameters(), ref.parameters()):
        np.testing.assert_array_equal(p.grad, q.grad)  # parameter gradients too
    assert bn_calls["forward", "train"] == bn_calls["forward", "eval"] == 2


def test_fold_carries_a_conv_bias():
    """(b − μ)·scale + β: a biased conv under BatchNorm (no model builds one today)."""
    rng = np.random.default_rng(5)
    with dtype_scope(np.float64):
        block = _randomise(ConvBNReLU(4, 6, rng=rng), rng).eval()
        block.conv = Conv2d(4, 6, 3, padding=1, bias=True, rng=rng)
    block.conv.bias.data[...] = rng.normal(size=6)
    x, g = rng.normal(size=(3, 4, 5, 5)), rng.normal(size=(3, 6, 5, 5))
    with no_param_grads():
        want_out, want_grad = _layer_by_layer(block, x, g)
        _close(block(x), want_out, np.float64)
        _close(block.backward(g), want_grad, np.float64)


@pytest.mark.parametrize("stride,c_out", [(1, 8), (2, 16)], ids=["identity-skip", "downsample"])
def test_basic_block_folds_every_conv_bn_pair(bn_calls, stride, c_out):
    rng = np.random.default_rng(6)
    with dtype_scope(np.float64):
        block = _randomise(BasicBlock(8, c_out, stride=stride, rng=rng), rng).eval()
    assert isinstance(block.downsample, Identity) == (stride == 1)
    x = rng.normal(size=(4, 8, 6, 6))
    want_out = block(x)  # outside a scope: unfolded
    g = rng.normal(size=want_out.shape)
    want_grad = block.backward(g)
    unfolded_calls = sum(bn_calls.values())
    assert unfolded_calls == 2 * (2 if stride == 1 else 3)
    with no_param_grads():
        _close(block(x), want_out, np.float64)
        _close(block.backward(g), want_grad, np.float64)
    assert sum(bn_calls.values()) == unfolded_calls


def test_fold_handle_is_scratch_not_state():
    rng = np.random.default_rng(7)
    block = _randomise(ConvBNReLU(4, 4, rng=rng), rng).eval()
    keys = set(block.state_dict())
    x = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
    with no_param_grads():
        out = block(x).copy()
    assert block.conv._fold is not None and set(block.state_dict()) == keys
    for clone in (copy.deepcopy(block), pickle.loads(pickle.dumps(block))):
        assert "_fold" not in clone.conv.__dict__
        with no_param_grads():
            np.testing.assert_array_equal(clone(x), out)
    # A folded forward cannot serve a backward that wants parameter gradients.
    with pytest.raises(RuntimeError, match="input-grad-only"):
        block.backward(np.ones_like(out))


# ---------------------------------------------------------------------------
# APGD: one forward per step, the old loop's array
# ---------------------------------------------------------------------------


def _apgd_reference(mwl, x, y, eps, steps, norm, restarts, clip, rng):
    """The loop ``apgd_attack`` replaced: two model forwards per step.

    Also returns how many checkpoint resets happened before the last step
    of a restart (each costs the one-forward loop a fresh forward).
    """
    n = x.shape[0]
    best_adv = x.copy()
    best_loss = mwl.per_sample_losses(x, y).copy()
    checks = _checkpoints(steps)
    resets = 0
    for _ in range(max(1, restarts)):
        delta = random_init(x.shape, eps, norm, rng, dtype=x.dtype)
        if clip is not None:
            delta = np.clip(x + delta, clip[0], clip[1]) - x
        alpha = 2.0 * eps
        prev_delta = delta.copy()
        improved_since_check = np.zeros(n, dtype=int)
        steps_since_check = 0
        loss_at_last_check = best_loss.copy()
        for step in range(steps):
            with no_param_grads():
                _, grad = mwl.loss_and_input_grad(x + delta, y)
            z = delta + gradient_step(grad, alpha, norm)
            z = project(z, eps, norm)
            if clip is not None:
                z = np.clip(x + z, clip[0], clip[1]) - x
            new_delta = delta + 0.75 * (z - delta) + 0.25 * (delta - prev_delta)
            new_delta = project(new_delta, eps, norm)
            if clip is not None:
                new_delta = np.clip(x + new_delta, clip[0], clip[1]) - x
            prev_delta, delta = delta, new_delta
            losses = mwl.per_sample_losses(x + delta, y)
            better = losses > best_loss
            improved_since_check += better.astype(int)
            best_loss = np.where(better, losses, best_loss)
            best_adv = np.where(better.reshape((n,) + (1,) * (x.ndim - 1)), x + delta, best_adv)
            steps_since_check += 1
            if step in checks and steps_since_check > 0:
                frac = improved_since_check / steps_since_check
                if float(frac.mean()) < 0.75 or not np.any(best_loss > loss_at_last_check):
                    alpha /= 2.0
                    delta = best_adv - x
                    resets += step < steps - 1
                improved_since_check[...] = 0
                steps_since_check = 0
                loss_at_last_check = best_loss.copy()
    return best_adv, resets


def _eval_cnn(seed=8):
    rng = np.random.default_rng(seed)
    return _randomise(build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=rng), rng).eval()


def _images(n=12, seed=9):
    rng = np.random.default_rng(seed)
    x = np.clip(0.5 + 0.25 * rng.normal(size=(n, 3, 8, 8)), 0, 1).astype(np.float32)
    return x, rng.integers(0, 4, size=n)


def _count_forwards(model):
    calls = []
    forward = model.forward
    model.forward = lambda x: calls.append(len(x)) or forward(x)
    return calls


APGD_CASES = [  # norm, eps, steps, restarts, clip, whether a checkpoint resets to best_adv
    ("linf", 0.05, 3, 1, (0.0, 1.0), False),
    ("linf", 0.05, 12, 1, (0.0, 1.0), True),
    ("linf", 0.05, 12, 2, (0.0, 1.0), True),
    ("l2", 0.8, 3, 1, None, False),
    ("l2", 0.8, 3, 2, None, True),  # a second restart rarely beats the first: it resets
    ("l2", 0.8, 12, 2, None, True),
]


@pytest.mark.parametrize("norm,eps,steps,restarts,clip,resetting", APGD_CASES)
def test_apgd_returns_the_two_forward_loops_array_with_one_forward_per_step(
    norm, eps, steps, restarts, clip, resetting
):
    x, y = _images()
    kwargs = dict(eps=eps, steps=steps, norm=norm, restarts=restarts, clip=clip)
    ref_model = _eval_cnn()
    ref_forwards = _count_forwards(ref_model)
    want, resets = _apgd_reference(
        ModelWithLoss(ref_model), x, y, rng=np.random.default_rng(10), **kwargs
    )
    model = _eval_cnn()
    forwards = _count_forwards(model)
    got = apgd_attack(ModelWithLoss(model), x, y, rng=np.random.default_rng(10), **kwargs)
    np.testing.assert_array_equal(got, want)
    assert np.abs(got - x).max() > 0
    assert len(ref_forwards) == 1 + restarts * 2 * steps
    assert len(forwards) == 1 + restarts * (steps + 1) + resets
    assert (resets > 0) == resetting


def test_apgd_through_a_linear_head_matches_the_reference():
    x, y = _images(8)
    rng = np.random.default_rng(11)
    body = _eval_cnn().segment(0, 2)
    from repro.nn import Linear

    head = Linear(8 * 2 * 2, 4, rng=rng)
    kwargs = dict(eps=0.05, steps=6, norm="linf", restarts=1, clip=(0.0, 1.0))
    want, _ = _apgd_reference(
        ModelWithLoss(body, head=head), x, y, rng=np.random.default_rng(12), **kwargs
    )
    got = apgd_attack(ModelWithLoss(body, head=head), x, y, rng=np.random.default_rng(12), **kwargs)
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# AutoAttack's active set: each member attacks the survivors of the last
# ---------------------------------------------------------------------------

AA_KWARGS = dict(eps=0.1, norm="linf", steps=4, restarts=2, clip=(0.0, 1.0))
AA_SEEDS = [  # model seed -> points still standing after FGSM, PGD, APGD (of 16)
    pytest.param(11, (0,), id="fgsm-flips-all"),
    pytest.param(6, (1, 0), id="pgd-flips-the-rest"),
    pytest.param(8, (14, 12, 10), id="survivors-shrink"),
    pytest.param(12, (16, 16, 16), id="all-survive"),
]


def _aa_case(seed):
    mwl = ModelWithLoss(_eval_cnn(seed))
    x, _ = _images(16)
    return mwl, x, mwl.logits(x).argmax(axis=1)  # every sample starts out correct


def _survivor_reference(mwl, x, y, eps, norm, steps, restarts, clip, rng):
    """The ensemble on survivors, from the public attacks, assembled a sample at a time.

    Returns the result and, per member that ran, ``(attacked, adv, stood)``:
    the mask of points it was given, its examples scattered to full size, and
    the mask of points still classified correctly afterwards.
    """
    y = np.asarray(y)
    members = [
        lambda xs, ys: fgsm_attack(mwl, xs, ys, eps, clip=clip, norm=norm),
        lambda xs, ys: pgd_attack(
            mwl, xs, ys, PGDConfig(eps=eps, steps=steps, norm=norm, clip=clip), rng=rng
        ),
        lambda xs, ys: apgd_attack(
            mwl, xs, ys, eps, steps=steps, norm=norm, restarts=restarts, clip=clip, rng=rng
        ),
    ]
    alive = np.ones(len(x), dtype=bool)
    attempts = []
    for member in members:
        if not alive.any():
            break
        attacked = alive.copy()
        adv = np.zeros_like(x)
        adv[attacked] = member(x[attacked], y[attacked])
        alive = attacked.copy()
        alive[attacked] = mwl.logits(adv[attacked]).argmax(axis=1) == y[attacked]
        attempts.append((attacked, adv, alive))
    result = x.copy()
    for i in range(len(x)):
        for attacked, adv, stood in attempts:
            if attacked[i]:
                result[i] = adv[i]
            if not stood[i]:
                break
    return result, attempts


@pytest.fixture
def member_rows(monkeypatch):
    """Rows each ensemble member receives inside ``auto_attack_lite``, and what it returns."""
    calls = []
    for name in ("fgsm_attack", "pgd_attack", "apgd_attack"):
        def recorded(mwl, x, y, *args, _name=name, _original=getattr(autoattack, name), **kwargs):
            adv = _original(mwl, x, y, *args, **kwargs)
            calls.append((_name, len(x), int((mwl.logits(adv).argmax(axis=1) == y).sum())))
            return adv

        monkeypatch.setattr(autoattack, name, recorded)
    return calls


@pytest.mark.parametrize("seed,standing", AA_SEEDS)
def test_auto_attack_equals_the_survivor_only_reference(seed, standing):
    mwl, x, y = _aa_case(seed)
    want, attempts = _survivor_reference(mwl, x, y, rng=np.random.default_rng(13), **AA_KWARGS)
    got = auto_attack_lite(mwl, x, y, rng=np.random.default_rng(13), **AA_KWARGS)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(  # same seed => same array
        got, auto_attack_lite(mwl, x, y, rng=np.random.default_rng(13), **AA_KWARGS)
    )
    assert tuple(int(stood.sum()) for _, _, stood in attempts) == standing


@pytest.mark.parametrize("seed,standing", AA_SEEDS)
def test_each_member_is_called_with_the_survivors_of_the_one_before(member_rows, seed, standing):
    mwl, x, y = _aa_case(seed)
    got = auto_attack_lite(mwl, x, y, rng=np.random.default_rng(13), **AA_KWARGS)
    names = ("fgsm_attack", "pgd_attack", "apgd_attack")
    given = (len(x),) + standing[:-1]  # FGSM n, PGD FGSM's survivors, APGD PGD's
    assert member_rows == list(zip(names, given, standing))  # and no call once none survive
    assert (mwl.logits(got).argmax(axis=1) == y).sum() == standing[-1]


@pytest.mark.parametrize("seed,standing", AA_SEEDS)
def test_a_flipped_point_keeps_its_first_flip_and_a_survivor_stood_every_attempt(seed, standing):
    mwl, x, y = _aa_case(seed)
    got = auto_attack_lite(mwl, x, y, rng=np.random.default_rng(13), **AA_KWARGS)
    _, attempts = _survivor_reference(mwl, x, y, rng=np.random.default_rng(13), **AA_KWARGS)
    correct = mwl.logits(got).argmax(axis=1) == y
    for i in range(len(x)):
        faced = [(adv[i], stood[i]) for attacked, adv, stood in attempts if attacked[i]]
        if correct[i]:
            assert len(faced) == 3 and all(stood for _, stood in faced)
        else:
            assert [stood for _, stood in faced] == [True] * (len(faced) - 1) + [False]
        np.testing.assert_array_equal(got[i], faced[-1][0])


@pytest.mark.parametrize("norm,eps,clip", [("linf", 0.1, (0.0, 1.0)), ("l2", 0.5, (0.0, 1.0)), ("l2", 0.5, None)])
def test_every_example_is_inside_the_eps_ball_of_its_norm(member_rows, norm, eps, clip):
    mwl, x, y = _aa_case(8)
    got = auto_attack_lite(mwl, x, y, eps=eps, norm=norm, steps=4, clip=clip, rng=np.random.default_rng(13))
    delta = (got - x).reshape(len(x), -1).astype(np.float64)
    size = np.abs(delta).max(axis=1) if norm == "linf" else np.sqrt((delta**2).sum(axis=1))
    assert size.max() <= eps * (1 + 1e-5) and size.min() > 0
    assert len(member_rows) == 3 and member_rows[1][1] > 0  # all three members contributed
    # FGSM on its own: one step of exactly radius eps where the box does not bite
    step = fgsm_attack(mwl, x, y, eps, clip=None, norm=norm) - x
    flat = step.reshape(len(x), -1).astype(np.float64)
    radius = np.abs(flat).max(axis=1) if norm == "linf" else np.sqrt((flat**2).sum(axis=1))
    np.testing.assert_allclose(radius, eps, rtol=1e-5)


def test_fgsm_linf_is_the_sign_step_bit_for_bit():
    mwl, x, y = _aa_case(8)
    with no_param_grads():
        _, grad = mwl.loss_and_input_grad(x, y)
    want = np.clip(x + 0.1 * np.sign(grad), 0.0, 1.0)
    np.testing.assert_array_equal(fgsm_attack(mwl, x, y, 0.1), want)


def test_auto_attack_on_an_empty_batch(member_rows):
    mwl = ModelWithLoss(_eval_cnn())
    x, y = _images(0)
    assert auto_attack_lite(mwl, x, y, eps=0.05, steps=2).shape == x.shape
    assert member_rows == []


# ---------------------------------------------------------------------------
# Exact call counts on the benchmark's evaluation
# ---------------------------------------------------------------------------


def _vgg(seed=14):
    rng = np.random.default_rng(seed)
    model = build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng)
    return _randomise(model, rng)


def _test_set(n=64, seed=15):
    rng = np.random.default_rng(seed)
    x = np.clip(0.5 + 0.25 * rng.normal(size=(n, 3, 8, 8)), 0, 1).astype(np.float32)
    return ArrayDataset(x, rng.integers(0, 10, size=n))


def test_standard_plan_calls_no_batchnorm_and_lays_out_once_per_shard(bn_calls, layout_builds):
    model = _vgg()
    convs = [m for m in model.modules() if isinstance(m, Conv2d)]
    conv_calls = Counter()
    for conv in convs:
        for name in ("forward", "backward"):
            def counted(*args, _name=name, _original=getattr(conv, name)):
                conv_calls[_name] += 1
                return _original(*args)

            setattr(conv, name, counted)
    plan = EvalPlan.standard(8 / 255, 20, with_autoattack=True, max_samples=64)
    shards = EvalExecutor().shards_for(plan, 64)
    assert len(shards) == 3  # clean, PGD-20, AutoAttack
    assert not bn_calls and not layout_builds  # building the model ran nothing
    result = EvalExecutor().run(plan, _test_set(), lambda slot: EvalTarget(ModelWithLoss(model)))
    assert None not in (result.clean_acc, result.pgd_acc, result.aa_acc)
    assert not bn_calls
    # One build per cache key per shard whose scope needs it: every conv
    # lays out forward in all three shards and — but for the image layer,
    # which scatters its input gradient through col2im — flipped in the two
    # attack shards; the folded bias is formed once per conv per shard (the
    # folded weight w·scale is a per-call temporary, never an entry).
    assert len(convs) == 8
    counts = lambda pick: sorted(n for key, n in layout_builds.items() if pick(key))  # noqa: E731
    assert counts(lambda key: len(key) == 5 and not key[2]) == [3] * 8
    assert counts(lambda key: len(key) == 5 and key[2]) == [2] * 7
    assert counts(lambda key: len(key) == 2) == [3] * 8
    assert conv_calls["forward"] >= 8 * (1 + 21 + 50) and conv_calls["backward"] >= 8 * (20 + 40)


# ---------------------------------------------------------------------------
# The contracts evaluation rests on, re-asserted folded
# ---------------------------------------------------------------------------


def test_folded_conv_stack_is_batch_invariant(bn_calls):
    model = _vgg().eval()
    bn_calls.clear()
    x = _test_set(24).x
    with no_param_grads():
        full = model.forward_until(x, 8).copy()  # all eight conv atoms, down to a 1x1 map
        for a, b in [(0, 1), (7, 9), (12, 24)]:
            np.testing.assert_array_equal(model.forward_until(x[a:b], 8), full[a:b])
    assert not bn_calls
    np.testing.assert_allclose(model.forward_until(x, 8), full, rtol=1e-4, atol=1e-5)  # unfolded
    assert bn_calls["forward", "eval"] == 8


def _cascade_train(model, cache):
    data = _test_set(40)
    spec = CascadeBatchSpec(start_atom=3, stop_atom=len(model.atoms), head=None)
    loss = cascade_local_train(
        model, spec, data, iterations=5, batch_size=16, lr=0.05, mu=1e-5, eps0=8 / 255,
        eps_feature=0.4, attack_steps=2, rng=np.random.default_rng(16),
        prefix_cache=cache, cache_key=0,
    )
    return loss, model.state_dict()


def test_prefix_cache_on_equals_off_with_a_folded_prefix(bn_calls):
    cache, cached, uncached = PrefixCache(), _vgg(), _vgg()
    bn_calls.clear()
    loss_on, state_on = _cascade_train(cached, cache)
    assert cache.stats()["hits"] > 0
    assert bn_calls["forward", "train"] > 0 and not bn_calls["forward", "eval"]  # prefix folded
    loss_off, state_off = _cascade_train(uncached, None)
    assert loss_on == loss_off
    for key in state_off:
        np.testing.assert_array_equal(state_on[key], state_off[key], err_msg=key)


def test_fetch_stacked_equals_fetch_with_a_folded_prefix(bn_calls):
    model = _vgg().eval()
    bn_calls.clear()

    def prefix_forward(xb):
        with no_param_grads():
            return model.forward_until(xb, 3)

    data = [_test_set(8, seed=s).x for s in (20, 21, 22)]
    keys = [("c", i) for i in range(3)]
    serial, stacked = PrefixCache(), PrefixCache()
    want = [serial.fetch(key, np.arange(2, 8), x[2:8], prefix_forward, 8)
            for key, x in zip(keys, data)]
    stacked.fetch_stacked(keys, [np.arange(4)] * 3, [x[:4] for x in data], prefix_forward, [8] * 3)
    got = stacked.fetch_stacked(
        keys, [np.arange(2, 8)] * 3, [x[2:8] for x in data], prefix_forward, [8] * 3
    )
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert not bn_calls


def _replicas():
    state = _vgg().state_dict()
    replicas = {}

    def target_for_slot(slot):
        if slot not in replicas:
            replicas[slot] = _vgg(seed=99)
            replicas[slot].load_state_dict(state)
        return EvalTarget(ModelWithLoss(replicas[slot]))

    return target_for_slot


@pytest.mark.parametrize("backend", ["thread"] + (["process"] if HAS_FORK else []))
def test_sharded_folded_eval_equals_serial(bn_calls, backend):
    plan = EvalPlan.standard(8 / 255, 3, with_autoattack=True, batch_size=8, seed=17)
    data = _test_set(24)
    serial, sharded = _replicas(), _replicas()
    serial(0), sharded(0), sharded(1)
    bn_calls.clear()
    want = EvalExecutor(RoundExecutor("serial")).run(plan, data, serial)
    # The process backend forks in executor.map, outside any scope; each
    # child opens its shards' scopes itself.
    assert frozen_cache() is None
    got = EvalExecutor(RoundExecutor(backend, max_workers=2)).run(plan, data, sharded)
    assert got.attack_accs == want.attack_accs
    assert (got.clean_acc, got.pgd_acc, got.aa_acc) == (want.clean_acc, want.pgd_acc, want.aa_acc)
    assert not bn_calls and frozen_cache() is None
