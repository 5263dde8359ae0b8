"""Shape-first construction: a model is a description until something runs it.

A generator a layer or builder creates *for itself* (``rng=None``) is
unobservable, so its draws are deferred to the first read of any such
parameter (``repro.nn.init.PrivateRng``), and ``CascadeModel.infer_shapes``
reads the static shape walker instead of running a forward.  Pinned here:

* analytics over paper-scale models draw nothing, run nothing, allocate nothing;
* deferred ≡ eager bit for bit — ``state_dict`` digests **recorded at the
  parent commit (c98d1a3)**, whichever parameter is read first;
* the dtype is the policy at construction; an explicit generator is untouched;
* copies and pickles, and the frozen-model scope;
* the walker ≡ an explicit forward on every model and sub-model.
"""

import copy
import hashlib
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.baselines import JointFAT
from repro.baselines.subnet import extract_submodel
from repro.core import FedProphet, FedProphetConfig
from repro.core.heads import AuxHead
from repro.core.partitioner import partition_model, partition_summary
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.hardware import MemoryModel, forward_flops, mem_req_bytes
from repro.models import Atom, CascadeModel, build_cnn, build_model, build_resnet, build_vgg
from repro.nn import Conv2d, Linear, Module, Sequential, dtype_scope, no_param_grads
from repro.nn.cohort import clear_cohort, install_cohort
from repro.nn.grad_mode import frozen_cache
from repro.optim.sgd import SGD
from tests.helpers import empty_workspace
from tests.test_models_variants import VARIANTS

pytestmark = pytest.mark.shape_first

MB = 1024**2

# name -> (builder taking only ``rng``, one-sample input shape)
BUILDS = {
    "vgg16@32": (lambda **kw: build_vgg("vgg16", 10, (3, 32, 32), **kw), (1, 3, 32, 32)),
    "vgg11x0.25@8": (
        lambda **kw: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, **kw), (1, 3, 8, 8)
    ),
    "cnn2": (lambda **kw: build_cnn(2, 10, (3, 8, 8), base_channels=8, **kw), (1, 3, 8, 8)),
    "resnet10x0.25": (
        lambda **kw: build_resnet("resnet10", 10, (3, 16, 16), width_mult=0.25, **kw),
        (1, 3, 16, 16),
    ),
    "conv": (lambda **kw: Conv2d(3, 8, 3, **kw), (1, 3, 5, 5)),
    "linear": (lambda **kw: Linear(5, 4, **kw), (1, 5)),
    "auxhead": (lambda **kw: AuxHead((8, 4, 4), 10, **kw), (1, 8, 4, 4)),
}
SMALL = [name for name in BUILDS if name != "vgg16@32"]

# sha256 of ``state_dict()`` of the rng-less builds above, recorded at c98d1a3
# (float32 policy), where every one of them drew eagerly from ``default_rng(0)``.
PINNED = {
    "vgg16@32": "a7fcad46adbd9379135d581bad9c193fd2c48ffd3ab71ebe59aa91d17f5119be",
    "vgg11x0.25@8": "5b1d650961583fb44e38238f3f10040661cbe4a934b508a67c9b37a19c0a8856",
    "cnn2": "a91daa589a615b848a6d1e08e0599c687baf0325d886115a1655908bf50ae8d1",
    "resnet10x0.25": "d4baff9969f3f23ba450fc1e1241baab97c42fa558c88e6d2ee062e001f227e6",
    "conv": "edfde2a656fbacd0f1546c3da715a61438d23aa9d762e6fb944265981ca119c1",
    "linear": "74ab07813d7289ec9f7e343db07429a6f7b6baeedcd4ada663aa5b31e7862475",
    "auxhead": "ddc411084db2e8111df3bc21e1e58c9fd9ec3a0c86efadefa5d20678f0ac3dd6",
}
# The same at c98d1a3 with ``rng=default_rng(7)``: weights, and the caller's next draw.
PINNED_EXPLICIT = {
    "vgg16@32": (
        "29d4f16ce2d72cfe700525891c8e6eabe0f39841f2e788779ee9f1b3bc4ac190",
        "0x1.cd4f95ab18a8cp-6",
    ),
    "vgg11x0.25@8": (
        "d14be7e15fb754fa6975d6818cfc9dd877af27026073472ea9923c28ec548d1a",
        "0x1.f0f050df51960p-3",
    ),
}


@pytest.fixture(autouse=True)
def _float32_policy():
    with dtype_scope("float32"):  # the digests were recorded under the default policy
        yield


def _digest(module):
    sha = hashlib.sha256()
    for key, value in sorted(module.state_dict().items()):
        sha.update(f"{key}:{value.dtype.str}:{value.shape}".encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


def _pending(module):
    """The parameters of ``module`` whose draw has not been made."""
    return [p for p in module.parameters() if p._pending is not None]


@pytest.fixture
def counts(monkeypatch):
    """Normals drawn by any ``default_rng`` generator, and ``Conv2d.forward`` calls."""
    counter = Counter()

    class CountingGenerator(np.random.Generator):  # Generator.normal itself is immutable
        def normal(self, loc=0.0, scale=1.0, size=None):
            counter["normal_calls"] += 1
            counter["normals"] += int(np.prod(size)) if size is not None else 1
            return super().normal(loc, scale, size)

    monkeypatch.setattr(
        np.random, "default_rng", lambda seed=None: CountingGenerator(np.random.PCG64(seed))
    )
    forward = Conv2d.forward

    def counted_forward(self, x, fold=None):
        counter["conv_forward"] += 1
        return forward(self, x, fold)

    monkeypatch.setattr(Conv2d, "forward", counted_forward)
    return counter


# ---------------------------------------------------------------------------
# (i) analytics cost nothing
# ---------------------------------------------------------------------------


def _analytics(model, batch, r_min):
    mem = MemoryModel(batch_size=batch)
    partition = partition_model(model, r_min, mem)
    return (
        model.num_parameters(),
        mem_req_bytes(model, model.in_shape, batch),
        forward_flops(model, model.in_shape),
        partition.ranges,
        partition_summary(model, partition, mem),
        [atom.out_shape for atom in model.atoms],
    )


def test_paper_scale_analytics_draw_nothing_run_nothing_allocate_nothing(counts):
    empty_workspace()  # a forward would allocate its unfold buffers inside the window
    tracemalloc.start()
    try:
        vgg = build_vgg("vgg16", 10, (3, 32, 32))
        r34 = build_resnet("resnet34", 256, (3, 224, 224))
        described = _analytics(vgg, 64, 60 * MB), _analytics(r34, 32, 224 * MB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not counts, counts
    assert peak < 4 * MB, peak
    assert len(_pending(vgg)) == 13 + 3 and len(_pending(r34)) == 1 + 2 * 16 + 3 + 1
    assert described[0][0] == 15_249_354 and described[1][0] == 21_416_000

    # ... and the numbers are the eager build's, which does draw every weight.
    eager = build_vgg("vgg16", 10, (3, 32, 32), rng=np.random.default_rng(1))
    assert _analytics(eager, 64, 60 * MB) == described[0]
    assert not _pending(eager) and counts["conv_forward"] == 0
    assert counts["normals"] == sum(p.size for p in _pending(vgg))
    del eager
    eager = build_resnet("resnet34", 256, (3, 224, 224), rng=np.random.default_rng(1))
    assert _analytics(eager, 32, 224 * MB) == described[1]
    assert counts["conv_forward"] == 0


def test_scaled_device_pool_recipe_draws_only_our_model(counts):
    """What every perfbench workload does at set-up: two integers off the paper's VGG16."""
    paper = build_vgg("vgg16", 10, (3, 32, 32))
    ours = build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=np.random.default_rng(0))
    ratios = (
        mem_req_bytes(ours, (3, 8, 8), 32) / mem_req_bytes(paper, (3, 32, 32), 64),
        forward_flops(ours, (3, 8, 8)) / forward_flops(paper, (3, 32, 32)),
    )
    assert all(0 < r < 1 for r in ratios)
    assert counts["normals"] == sum(
        m.weight.size for m in ours.modules() if isinstance(m, (Conv2d, Linear))
    )
    assert counts["conv_forward"] == 0 and len(_pending(paper)) == 16


# ---------------------------------------------------------------------------
# (ii) deferred == eager, bit for bit, whichever parameter is read first
# ---------------------------------------------------------------------------


def _read_last_data(module, name):
    _pending(module)[-1].data


def _read_first_grad(module, name):
    assert not _pending(module)[0].grad.any()


def _read_state_dict(module, name):
    module.state_dict()


def _read_forward(module, name):
    module.eval()(np.zeros(BUILDS[name][1], np.float32))  # eval: BatchNorm statistics stay as built


def _read_sgd(module, name):
    SGD(module.parameters(), lr=0.1, momentum=0.9)


def _read_install_cohort(module, name):
    donor = _build(name, rng=np.random.default_rng(5)).state_dict()
    install_cohort(module, [donor, donor])
    clear_cohort(module)  # ``data`` is the serial value, untouched by the slabs


FIRST_READS = [
    _read_last_data, _read_first_grad, _read_state_dict, _read_forward, _read_sgd,
    _read_install_cohort,
]


def _build(name, **kw):
    return BUILDS[name][0](**kw)


@pytest.mark.parametrize("first_read", FIRST_READS, ids=lambda f: f.__name__[6:])
@pytest.mark.parametrize("name", SMALL)
def test_deferred_build_equals_parent_eager_bytes_whatever_is_read_first(name, first_read):
    module = _build(name)
    assert _pending(module) and all("float32" in repr(p) for p in _pending(module))
    first_read(module, name)
    assert not _pending(module)
    assert _digest(module) == PINNED[name]


def test_deferred_paper_vgg16_equals_parent_eager_bytes():
    assert _digest(_build("vgg16@32")) == PINNED["vgg16@32"]


def test_draws_are_made_in_construction_order_even_for_replaced_parameters():
    """A parameter dropped from the model still takes its place in the stream."""
    model = _build("cnn2")
    first = model.atoms[0].module.layers[0].conv
    first.weight = type(first.weight)(np.zeros(first.weight.shape))  # its draw is orphaned
    state = model.state_dict()
    eager = _build("cnn2", rng=np.random.default_rng(0)).state_dict()
    assert not state["atom0.layer0.conv.weight"].any()
    for key in eager:
        if key != "atom0.layer0.conv.weight":
            np.testing.assert_array_equal(state[key], eager[key])


# ---------------------------------------------------------------------------
# (iii) the dtype is the policy at construction
# ---------------------------------------------------------------------------


def test_dtype_is_the_policy_at_construction_not_at_first_read():
    with dtype_scope("float64"):
        wide = _build("cnn2")
        wide_eager = _build("cnn2", rng=np.random.default_rng(0))
    narrow = _build("cnn2")
    assert "float64" in repr(_pending(wide)[0]) and "float32" in repr(_pending(narrow)[0])
    with dtype_scope("float64"):
        narrow_state = narrow.state_dict()  # first read under the *other* policy
    wide_state = wide.state_dict()
    assert {v.dtype for v in wide_state.values()} == {np.dtype(np.float64)}
    assert {v.dtype for v in narrow_state.values()} == {np.dtype(np.float32)}
    assert all(p.grad.dtype == p.data.dtype for p in wide.parameters() + narrow.parameters())
    for key, value in wide_eager.state_dict().items():
        np.testing.assert_array_equal(wide_state[key], value)
    assert _digest(narrow) == PINNED["cnn2"]


# ---------------------------------------------------------------------------
# (iv) an explicit generator is untouched: eager, and left where the parent left it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PINNED_EXPLICIT))
def test_explicit_generator_is_drawn_eagerly_and_left_in_the_parents_state(name, counts):
    generator = np.random.default_rng(7)
    model = _build(name, rng=generator)
    assert not _pending(model)
    assert counts["normals"] == sum(
        m.weight.size for m in model.modules() if isinstance(m, (Conv2d, Linear))
    )
    weights, next_draw = PINNED_EXPLICIT[name]
    assert generator.normal().hex() == next_draw
    assert _digest(model) == weights


def test_experiments_hold_nothing_pending_when_they_are_ready():
    """Every experiment passes a generator: no draw can first happen inside a round."""
    task = make_cifar10_like(image_size=8, train_per_class=8, test_per_class=4, seed=0)
    builder = lambda rng: build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=rng)  # noqa: E731
    kwargs = dict(
        num_clients=4, clients_per_round=2, local_iters=1, batch_size=4, lr=0.02, rounds=1,
        train_pgd_steps=1, eval_pgd_steps=1, eval_every=0, seed=0,
    )
    with JointFAT(task, builder, FLConfig(**kwargs)) as exp:
        assert not _pending(exp.global_model)
    config = FedProphetConfig(**kwargs, rounds_per_module=1, val_samples=8, val_pgd_steps=1)
    with FedProphet(task, builder, config) as exp:
        assert not _pending(exp.global_model)
        assert exp.heads and not [p for head in exp.heads if head is not None for p in _pending(head)]


# ---------------------------------------------------------------------------
# (v) copies and pickles carry values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
)
@pytest.mark.parametrize("materialised", [False, True], ids=["pending", "materialised"])
def test_copies_of_a_model_and_of_one_layer_equal_the_materialised_ones(clone, materialised):
    model = _build("vgg11x0.25@8")
    if materialised:
        model.state_dict()
    twin = clone(model)
    assert not _pending(twin) and not _pending(model)  # copying reads, i.e. draws
    assert _digest(twin) == _digest(model) == PINNED["vgg11x0.25@8"]
    for ours, theirs in zip(model.parameters(), twin.parameters()):
        assert not np.shares_memory(ours.data, theirs.data)
        assert not np.shares_memory(ours.grad, theirs.grad)
    twin.parameters()[0].data += 1.0
    assert _digest(model) == PINNED["vgg11x0.25@8"]

    # One layer taken out of a pending model: the whole queue is drawn, in order.
    model = _build("vgg11x0.25@8")
    if materialised:
        model.state_dict()
    layer = clone(model.atoms[3].module)
    reference = _build("vgg11x0.25@8", rng=np.random.default_rng(0)).atoms[3].module
    assert not _pending(layer)
    for key, value in reference.state_dict().items():
        np.testing.assert_array_equal(layer.state_dict()[key], value)
    assert _digest(model) == PINNED["vgg11x0.25@8"]


# ---------------------------------------------------------------------------
# (vi) the frozen-model scope
# ---------------------------------------------------------------------------


def test_first_read_inside_a_frozen_scope_is_not_a_weight_write():
    model = _build("vgg11x0.25@8")
    with no_param_grads():
        model.eval()(np.zeros((2, 3, 8, 8), np.float32))  # the flush must not trip require_unfrozen
        assert not _pending(model)
        assert frozen_cache()  # layouts and folds of the weights just drawn: the scope's own
    assert frozen_cache() is None
    with no_param_grads():
        assert frozen_cache() == {}  # nothing outlived the first scope
    assert _digest(model) == PINNED["vgg11x0.25@8"]


# ---------------------------------------------------------------------------
# (vii) one shape walker: infer_shapes == an explicit forward
# ---------------------------------------------------------------------------


def _assert_shapes_match_a_forward(model):
    x = np.zeros((1,) + model.in_shape, np.float32)
    model.eval()
    for atom in model.atoms:
        x = atom.module(x)
        assert atom.out_shape == tuple(x.shape[1:]), atom.name
        assert all(type(d) is int for d in atom.out_shape)


@pytest.mark.parametrize("name,shape,wm", VARIANTS)
def test_infer_shapes_equals_an_explicit_forward(name, shape, wm, counts):
    model = build_model(name, 7, shape, width_mult=wm)
    assert _pending(model) and not counts  # shapes were inferred: nothing drawn, nothing run
    _assert_shapes_match_a_forward(model)


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("name", ["vgg11x0.25@8", "cnn2", "resnet10x0.25"])
def test_submodel_extraction_draws_nothing_and_runs_nothing(name, ratio, counts):
    model = _build(name, rng=np.random.default_rng(3))
    counts.clear()
    sub = extract_submodel(model, ratio, "static")
    assert not counts, counts  # no Kaiming draw to overwrite, no dry-run forward
    assert not _pending(sub.model)
    for key, value in sub.model.state_dict().items():
        np.testing.assert_array_equal(value, model.state_dict()[key][np.ix_(*sub.index_map[key])])
    _assert_shapes_match_a_forward(sub.model)


def test_a_cascade_the_walker_cannot_read_fails_at_construction():
    class Mystery(Module):
        def forward(self, x):
            return x

    with pytest.raises(TypeError, match="Mystery"):
        CascadeModel([Atom("known", Conv2d(3, 4, 3)), Atom("unknown", Mystery())], (3, 8, 8), 10)
    # What the dry run used to trip over is still caught where the model is built.
    with pytest.raises(ValueError, match="Conv2d"):
        CascadeModel([Atom("conv", Conv2d(5, 4, 3))], (3, 8, 8), 10)
    with pytest.raises(ValueError, match="Linear"):
        CascadeModel([Atom("linear", Sequential(Linear(7, 4)))], (3, 8, 8), 10)


# ---------------------------------------------------------------------------
# (viii) describing a parameter does not draw it
# ---------------------------------------------------------------------------


def test_repr_shape_and_size_do_not_materialise():
    conv = Conv2d(3, 8, 3)
    weight = conv.weight
    assert repr(weight) == "Parameter(shape=(8, 3, 3, 3), dtype=float32)"
    assert weight.shape == (8, 3, 3, 3) and weight.size == 216 and type(weight.size) is int
    assert conv.num_parameters() == 216 + 8
    assert _pending(conv) == [weight]
    assert weight.data.shape == weight.shape and not _pending(conv)
    assert repr(weight) == "Parameter(shape=(8, 3, 3, 3), dtype=float32)"
