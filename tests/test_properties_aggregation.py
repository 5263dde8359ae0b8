"""Property tests tying the aggregation rules together.

The key equivalence: when every client trains the *full* model, masked
partial averaging must reduce exactly to FedAvg — Eq. 16 generalises
McMahan's rule, it does not replace it.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.subnet import extract_submodel, scatter_submodel_state
from repro.flsim.aggregation import fedavg, masked_partial_average
from repro.flsim.robust_agg import coordinate_median
from repro.models import build_cnn

RNG = np.random.default_rng(0)


@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_full_coverage_partial_average_equals_fedavg(seed, n_clients):
    rng = np.random.default_rng(seed)
    model = build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=rng)
    global_state = model.state_dict()

    states, sizes, updates = [], [], []
    for k in range(n_clients):
        local = {key: v + rng.normal(size=v.shape) for key, v in global_state.items()}
        size = int(rng.integers(1, 100))
        states.append(local)
        sizes.append(size)
        mask = {key: np.ones_like(v) for key, v in global_state.items()}
        updates.append((local, mask, float(size)))

    via_fedavg = fedavg(states, sizes)
    via_partial = masked_partial_average(global_state, updates)
    for key in global_state:
        np.testing.assert_allclose(via_partial[key], via_fedavg[key], atol=1e-10)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_scatter_of_unmodified_submodel_is_lossless(seed):
    """Extract, scatter back untouched: the covered region reproduces the
    global values exactly and the mask marks precisely that region."""
    rng = np.random.default_rng(seed)
    model = build_cnn(2, 4, (3, 8, 8), base_channels=8, rng=rng)
    ratio = float(rng.uniform(0.3, 1.0))
    strategy = ["static", "random", "rolling"][int(rng.integers(0, 3))]
    piece = extract_submodel(model, ratio, strategy, round_idx=int(rng.integers(0, 10)), rng=rng)
    global_state = model.state_dict()
    scattered, mask = scatter_submodel_state(
        piece.model.state_dict(), piece.index_map, global_state
    )
    for key in piece.index_map:
        covered = mask[key] > 0
        np.testing.assert_allclose(
            scattered[key][covered], global_state[key][covered], atol=1e-12
        )
        assert not np.any(scattered[key][~covered])


@given(st.floats(0.26, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_submodel_param_fraction_tracks_ratio(ratio, seed):
    """Parameter count of a width-r sub-model is ~r^2 of the full model's
    conv weights (both in and out channels shrink)."""
    model = build_cnn(2, 4, (3, 8, 8), base_channels=16, rng=np.random.default_rng(seed))
    piece = extract_submodel(model, ratio, "static")
    frac = piece.model.num_parameters() / model.num_parameters()
    assert frac <= 1.0 + 1e-9
    # not tighter than r^2/4, not looser than ~r (classifier keeps outputs)
    assert ratio**2 / 4 <= frac <= max(ratio * 1.6, 0.35)


@st.composite
def _median_stacks(draw):
    """K = 1…9 client values per coordinate, float32/float64, with NaN and ±0."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.integers(1, 9))
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    special = st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf])
    width = 32 if dtype is np.float32 else 64
    values = st.one_of(special, st.floats(width=width, allow_nan=False))
    size = k * int(np.prod(shape))
    flat = draw(st.lists(values, min_size=size, max_size=size))
    return np.array(flat, dtype=dtype).reshape((k,) + shape)


@pytest.mark.threats
@given(_median_stacks())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_coordinate_median_is_np_median_byte_for_byte(stack):
    states = [{"w": client} for client in stack]
    got = np.asarray(coordinate_median(states)["w"])
    want = np.asarray(np.median(stack, axis=0))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.threats
def test_median_run_never_imports_numpy_ma():
    """``np.median``'s NaN check imports ``numpy.ma``; the median rule must not."""
    script = textwrap.dedent(
        """
        import sys
        from repro.baselines import JointFAT
        from repro.data import make_cifar10_like
        from repro.flsim import FLConfig
        from repro.models import build_cnn

        task = make_cifar10_like(image_size=8, train_per_class=8, test_per_class=2, seed=0)
        # A lazy population: the partition scheme's np.unique imports numpy.ma too.
        config = FLConfig(
            num_clients=1000, clients_per_round=3, local_iters=1, batch_size=8, rounds=2,
            train_pgd_steps=1, eval_every=0, aggregation_rule="median", seed=0,
            client_materialisation="lazy",
        )
        builder = lambda rng: build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=rng)
        with JointFAT(task, builder, config) as exp:
            exp.run()
            assert len(exp.history) == 2
        print("numpy.ma" in sys.modules)
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split()[-1] == "False"
