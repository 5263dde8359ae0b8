"""Tests for partial-average aggregation of modules and heads (Eq. 16–17)."""

import numpy as np
import pytest

from repro.core.aggregator import (
    aggregate_heads,
    aggregate_modules,
    atom_param_names,
    merge_async_partial,
    snapshot_segment,
)
from repro.core.partitioner import Partition
from repro.models import build_cnn
from repro.nn import Linear

RNG = np.random.default_rng(0)


def _model():
    return build_cnn(3, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))


def _partition():
    return Partition(ranges=((0, 1), (1, 2), (2, 4)))


class TestAtomParamNames:
    def test_names_prefixed_by_atom(self):
        model = _model()
        names = atom_param_names(model, 0, 1)
        assert names and all(n.startswith("atom0.") for n in names)

    def test_includes_buffers(self):
        model = _model()
        names = atom_param_names(model, 0, 1)
        assert any("running_mean" in n for n in names)

    def test_extract_matches_state_dict(self):
        model = _model()
        seg = snapshot_segment(model, 1, 3)
        full = model.state_dict()
        for k, v in seg.items():
            np.testing.assert_array_equal(v, full[k])
        assert all(k.startswith(("atom1.", "atom2.")) for k in seg)


class TestAggregateModules:
    def test_single_client_passthrough(self):
        model = _model()
        part = _partition()
        state = snapshot_segment(model, 0, 1)
        shifted = {k: v + 1.0 for k, v in state.items()}
        merged = aggregate_modules(model, part, 0, [shifted], [0], [1.0])
        for k in state:
            np.testing.assert_allclose(merged[k], state[k] + 1.0)

    def test_weighted_mean_over_trainers(self):
        model = _model()
        part = _partition()
        base = snapshot_segment(model, 0, 1)
        s1 = {k: np.zeros_like(v) for k, v in base.items()}
        s2 = {k: np.ones_like(v) * 4 for k, v in base.items()}
        merged = aggregate_modules(model, part, 0, [s1, s2], [0, 0], [3.0, 1.0])
        for k in base:
            np.testing.assert_allclose(merged[k], np.ones_like(base[k]))

    def test_dma_clients_contribute_to_future_modules(self):
        """A client with M_k=1 contributes to modules 0 and 1; one with
        M_k=0 contributes only to module 0 (Eq. 16's S_n sets)."""
        model = _model()
        part = _partition()
        full0 = snapshot_segment(model, 0, 1)
        full01 = snapshot_segment(model, 0, 2)
        c_small = {k: np.zeros_like(v) for k, v in full0.items()}
        c_big = {k: np.ones_like(v) * 2 for k, v in full01.items()}
        merged = aggregate_modules(model, part, 0, [c_small, c_big], [0, 1], [1.0, 1.0])
        # module 0 keys: averaged over both -> 1.0
        for k in full0:
            np.testing.assert_allclose(merged[k], np.ones_like(full0[k]))
        # module 1 keys: only the big client -> 2.0
        for k in set(full01) - set(full0):
            np.testing.assert_allclose(merged[k], 2 * np.ones_like(full01[k]))

    def test_untrained_modules_absent(self):
        model = _model()
        part = _partition()
        state = snapshot_segment(model, 0, 1)
        merged = aggregate_modules(model, part, 0, [state], [0], [1.0])
        assert all(k.startswith("atom0.") for k in merged)

    def test_length_mismatch_rejected(self):
        model = _model()
        with pytest.raises(ValueError):
            aggregate_modules(model, _partition(), 0, [{}], [0, 1], [1.0])


class TestAggregateHeads:
    def test_only_matching_assignment_updates(self):
        h0 = Linear(4, 2, rng=RNG)
        h1 = Linear(4, 2, rng=RNG)
        heads = [h0, h1, None]
        h1_before = h1.state_dict()
        update = {k: v * 0 for k, v in h0.state_dict().items()}
        aggregate_heads(heads, [update], [0], [1.0])
        np.testing.assert_allclose(h0.weight.data, 0.0)
        for k, v in h1.state_dict().items():
            np.testing.assert_array_equal(v, h1_before[k])

    def test_weighted_average(self):
        h = Linear(3, 2, rng=RNG)
        heads = [h]
        s1 = {k: np.zeros_like(v) for k, v in h.state_dict().items()}
        s2 = {k: np.ones_like(v) * 2 for k, v in h.state_dict().items()}
        aggregate_heads(heads, [s1, s2], [0, 0], [1.0, 1.0])
        np.testing.assert_allclose(h.weight.data, 1.0)

    def test_none_heads_skipped(self):
        aggregate_heads([None], [None], [0], [1.0])  # must not raise


@pytest.mark.scheduler
class TestOneSyncEventIsTheBarrierAggregation:
    """One staleness-0 ``merge_async_partial`` event == Eq. 16 + Eq. 17.

    FedProphet's synchronous round *is* that single event since PR 21, so
    ``aggregate_modules`` / ``aggregate_heads`` — the barrier statement of
    the two equations — are the independent reference it is held to.
    """

    @pytest.mark.parametrize("rule", ["fedavg", "median"])
    @pytest.mark.parametrize("current", [0, 1])
    def test_bit_identical_on_mixed_dma_spans(self, rule, current):
        from repro.flsim.robust_agg import coordinate_median

        rng = np.random.default_rng(7)
        model, part = _model(), _partition()
        num_atoms = len(model.atoms)
        heads = [Linear(4, 2, rng=rng), Linear(4, 2, rng=rng), None]
        assignments = [m for m in (0, 2, 1, 1, 2, 0, 1) if m >= current]
        weights = [float(w) for w in rng.uniform(0.05, 0.3, size=len(assignments))]
        start = part[current][0]

        def noisy(state):
            return {
                k: v + rng.normal(size=v.shape).astype(v.dtype)
                if np.issubdtype(v.dtype, np.floating) else v
                for k, v in state.items()
            }

        seg_states = [
            noisy(snapshot_segment(model, start, part[mk][1])) for mk in assignments
        ]
        head_states = [
            noisy(heads[mk].state_dict()) if heads[mk] is not None else None
            for mk in assignments
        ]
        average_fn = None
        if rule == "median":
            def average_fn(states, ws, keys, base):
                return coordinate_median(states, keys)

        # the event: server copies of the trainable suffix and the heads
        server = snapshot_segment(model, start, num_atoms)
        server_heads = [h.state_dict() if h is not None else None for h in heads]
        spans = range(len(part))
        pulled = []

        def one_shot():  # the run loop's iterator: member order, each update once
            for pair in zip(seg_states, head_states):
                pulled.append(len(pulled))
                yield pair

        alpha = merge_async_partial(
            model, part, current, server, server_heads, one_shot(),
            assignments, weights,
            [float(sum(w for w, mk in zip(weights, assignments) if mk >= n)) for n in spans],
            [float(sum(w for w, mk in zip(weights, assignments) if mk == n)) for n in spans],
            staleness=0, average_fn=average_fn,
        )
        assert alpha == 1.0
        assert pulled == list(range(len(assignments)))

        # the reference: the barrier aggregation, in place on model and heads
        merged = aggregate_modules(
            model, part, current, seg_states, assignments, weights, average_fn=average_fn
        )
        model.load_state_dict(merged, strict=False)
        aggregate_heads(heads, head_states, assignments, weights)
        reference = snapshot_segment(model, start, num_atoms)
        assert set(server) == set(reference)
        for key, value in reference.items():
            np.testing.assert_array_equal(server[key], value, err_msg=key)
        for head, state in zip(heads, server_heads):
            if head is not None:
                for key, value in head.state_dict().items():
                    np.testing.assert_array_equal(state[key], value, err_msg=key)
