"""Cascade training pinned bit for bit (Eq. 9 on a module span).

Each case trains one client with :func:`repro.core.cascade.cascade_local_train`
and then probes the trained span with :func:`measure_output_perturbation`;
the sha256 of the trained segment + head state, the exact returned loss and
the probe's float must keep the values recorded here.  The cases cover the
three shapes of the client objective:

* module 0 — ℓ∞ PGD on the raw input, aux head;
* a middle module — ℓ2 PGD on the frozen prefix's feature, aux head, with
  the prefix cache on and off (one value: the cache is exact);
* the last module — no head, so plain cross-entropy on the backbone output;

each at μ = 0 (vanilla cascade learning) and μ = 1e-3 (the strong-convexity
term and its gradient are live).
"""

import hashlib

import numpy as np
import pytest

from repro.core.cascade import (
    CascadeBatchSpec,
    cascade_local_train,
    measure_output_perturbation,
)
from repro.core.heads import AuxHead
from repro.core.prefix_cache import PrefixCache
from repro.data import ArrayDataset
from repro.models import build_cnn

pytestmark = pytest.mark.round_engine

# (start_atom, stop_atom, has head) of each span the cases train.
SPANS = {"first": (0, 1, True), "middle": (1, 3, True), "last": (3, 4, False)}

# (span, mu, prefix cache) -> (state sha256, loss.hex(), perturbation.hex()).
# Without a head μ has no term, so both "last" rows read the same.
PINS = {
    ("first", 0.0, False): (
        "c7f03561f50b172a31ca3ad583dc3fcf84edc60c8398d1fe6f6d72fb46a953ea",
        "0x1.170e76cbc9cbep+1",
        "0x1.0be0066c08a1fp-1",
    ),
    ("first", 0.001, False): (
        "abd1ea01f126a927f7605f90948f11532db16dfd1a043c2cc46c385e6b4ff82c",
        "0x1.1b4ecd4ea0295p+1",
        "0x1.063a887f6ff3ap-1",
    ),
    ("middle", 0.0, True): (
        "23cbcce4593154a0aa171b185c8039302dda8765d1b6162b4bcc6959b60512e8",
        "0x1.6ebd596f660e5p+1",
        "0x1.f4668f17ec1f1p-1",
    ),
    ("middle", 0.0, False): (
        "23cbcce4593154a0aa171b185c8039302dda8765d1b6162b4bcc6959b60512e8",
        "0x1.6ebd596f660e5p+1",
        "0x1.f4668f17ec1f1p-1",
    ),
    ("middle", 0.001, True): (
        "36b691c67eafc29004178ec6f6080e8a8572a12df1837573e933704e8721d37b",
        "0x1.70b1af80be0a0p+1",
        "0x1.000488716853bp+0",
    ),
    ("middle", 0.001, False): (
        "36b691c67eafc29004178ec6f6080e8a8572a12df1837573e933704e8721d37b",
        "0x1.70b1af80be0a0p+1",
        "0x1.000488716853bp+0",
    ),
    ("last", 0.0, False): (
        "edd33f013318f949c3d319fe509c676b61a70b41817dc41921d4579c72bd15c1",
        "0x1.e61796b1f6245p+0",
        "0x1.5098ec402c9dfp-1",
    ),
    ("last", 0.001, False): (
        "edd33f013318f949c3d319fe509c676b61a70b41817dc41921d4579c72bd15c1",
        "0x1.e61796b1f6245p+0",
        "0x1.5098ec402c9dfp-1",
    ),
}


def _dataset(n=24):
    rng = np.random.default_rng(2)
    y = rng.integers(0, 4, size=n)
    x = np.clip(0.5 + 0.2 * rng.normal(size=(n, 3, 8, 8)) + 0.1 * y[:, None, None, None], 0, 1)
    return ArrayDataset(x, y)


def _state_sha(states):
    sha = hashlib.sha256()
    for state in states:
        for key, value in sorted(state.items()):
            sha.update(key.encode())
            sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


def _run(span, mu, cached):
    start, stop, has_head = SPANS[span]
    model = build_cnn(3, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))
    head = (
        AuxHead(model.feature_shape(stop - 1), 4, rng=np.random.default_rng(3))
        if has_head
        else None
    )
    data = _dataset()
    cache = PrefixCache() if cached else None
    loss = cascade_local_train(
        model, CascadeBatchSpec(start, stop, head), data,
        iterations=5, batch_size=8, lr=0.05, mu=mu, eps0=8 / 255,
        eps_feature=0.4, attack_steps=2, rng=np.random.default_rng(4),
        prefix_cache=cache, cache_key="client",
    )
    if cache is not None:
        # Five batches of 8 over 24 samples: the second epoch hits.
        assert cache.hits > 0
    states = [model.segment(start, stop).state_dict()]
    if head is not None:
        states.append(head.state_dict())
    delta = measure_output_perturbation(
        model, start, stop, head, data, mu=mu, eps0=8 / 255, eps_feature=0.4,
        attack_steps=2, batch_size=16, rng=np.random.default_rng(5),
    )
    return _state_sha(states), float(loss).hex(), float(delta).hex()


CASES = [
    (span, mu, cached)
    for span in SPANS
    for mu in (0.0, 1e-3)
    for cached in ((True, False) if span == "middle" else (False,))
]


@pytest.mark.parametrize("span,mu,cached", CASES)
def test_cascade_training_is_pinned(span, mu, cached):
    assert _run(span, mu, cached) == PINS[(span, mu, cached)]


def test_prefix_cache_is_exact_on_a_middle_module():
    assert _run("middle", 1e-3, True) == _run("middle", 1e-3, False)
