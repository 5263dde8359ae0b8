"""A round holds one running average, not every client's update, in every mode.

A client trains when the merge pulls its update, the update folds into
the running average as it lands, and nothing keeps
it once folded.  Pinned here:

* the fold: a one-shot iterable of states averages to the floats of the
  per-key sum over a list, on every merge rule's path;
* the round peak: a 4-client jFAT round's traced peak stays less than one
  model state above a 1-client round's (one state per client while every
  update was held to the round's end) — in sync mode, and on the
  cross-round pipeline at depths 1 and 2.  The async rows run at
  ``max_staleness=0``, one merge event per round: a staleness-attenuated
  event blends into a server copy of its own, one state that has nothing
  to do with held updates.  Three references that each kept a
  folded update alive while the next client trained must stay gone: a
  reused ``zip``/``enumerate`` result tuple, a suspended generator frame
  or loop variable, and a task group ↔ generator reference cycle — the
  last is checked directly: the round's group is freed without the cyclic
  collector.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.baselines import JointFAT
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.flsim.aggregation import weighted_average_states
from repro.flsim.robust_agg import RobustAggregator
from repro.models import build_vgg
from tests.helpers import empty_workspace


def _states(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {"w": rng.normal(size=(4, 3)).astype(np.float32),
         "b": rng.normal(size=3).astype(np.float32)}
        for _ in range(n)
    ]


class TestFold:
    def test_one_shot_iterable_folds_to_the_per_key_sum(self):
        states, weights = _states(5), [3.0, 1.0, 4.0, 1.0, 5.0]
        total = float(sum(weights))
        got = weighted_average_states((s for s in states), weights)
        for key in ("w", "b"):
            want = np.zeros_like(states[0][key])
            for state, w in zip(states, weights):
                want += (w / total) * state[key]
            assert got[key].tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("rule", ["fedavg", "median", "trimmed_mean", "krum", "norm_clip"])
    def test_every_rule_takes_a_one_shot_iterable(self, rule):
        states, weights = _states(5), [1.0] * 5
        agg = RobustAggregator(rule=rule)
        base = {k: np.zeros_like(v) for k, v in states[0].items()}
        want, _ = agg.aggregate(states, weights, base=base)
        got, _ = agg.aggregate(iter(states), weights, base=base)
        for key, value in want.items():
            assert got[key].tobytes() == value.tobytes(), key

    def test_counts_are_checked_after_the_fold(self):
        with pytest.raises(ValueError, match="length mismatch"):
            weighted_average_states(iter(_states(3)), [1.0, 1.0])
        with pytest.raises(ValueError, match="length mismatch"):
            weighted_average_states(iter(_states(1)), [1.0, 1.0])
        with pytest.raises(ValueError, match="empty"):
            weighted_average_states(iter([]), [])


def _vgg(rng=None):
    return build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng)


def _round_peak(cohort, **mode):
    """Traced peak of one jFAT round (VGG11x0.25, 8x8, B=32, per item), the
    model's state bytes, and whether the round's task group outlived it with
    the cyclic collector off."""
    task = make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)
    cfg = FLConfig(num_clients=4, clients_per_round=cohort, local_iters=2, batch_size=32,
                   lr=0.02, rounds=1, train_pgd_steps=1, eval_every=0, seed=0, **mode)
    with JointFAT(task, _vgg, cfg) as exp:
        assert exp.cohort_width == 1
        state = sum(v.nbytes for v in exp.global_model.state_dict().values())
        groups = []
        submit = exp.scheduler.submit_group

        def recording(*args, **kwargs):
            group = submit(*args, **kwargs)
            groups.append(weakref.ref(group))
            return group

        exp.scheduler.submit_group = recording
        empty_workspace()  # count the unfold buffers whatever ran before
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            exp.run()
            peak = tracemalloc.get_traced_memory()[1]
            leaked = any(ref() is not None for ref in groups)
        finally:
            tracemalloc.stop()
            gc.enable()
        assert len(groups) == 1
        return peak, state, leaked


@pytest.mark.parametrize(
    "mode",
    [{}, dict(aggregation_mode="async", max_staleness=0),
     dict(aggregation_mode="async", max_staleness=0, pipeline_depth=2)],
    ids=["sync", "async-depth1", "async-depth2"],
)
def test_a_round_holds_one_running_average_whatever_the_cohort(mode):
    one, state, one_leaked = _round_peak(1, **mode)
    four, _, four_leaked = _round_peak(4, **mode)
    assert not one_leaked and not four_leaked  # freed by reference counting alone
    assert four - one < state, f"{(four - one) / state:.2f} model states above a 1-client round"
