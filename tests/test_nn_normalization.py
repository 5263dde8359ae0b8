"""Focused tests for BatchNorm2d and DualBatchNorm2d behaviour."""

import contextlib

import numpy as np
import pytest

from repro.nn import BatchNorm2d, DualBatchNorm2d, no_param_grads
from repro.nn.normalization import set_dual_bn_mode

RNG = np.random.default_rng(0)


class TestBatchNorm:
    def test_train_output_is_normalised(self):
        bn = BatchNorm2d(4)
        bn.train()
        x = RNG.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch(self):
        bn = BatchNorm2d(2, momentum=0.5)
        bn.train()
        x = RNG.normal(loc=5.0, size=(16, 2, 4, 4))
        bn(x)
        assert np.all(bn.running_mean > 1.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        bn.set_buffer("running_mean", np.array([1.0, -1.0]))
        bn.set_buffer("running_var", np.array([4.0, 0.25]))
        bn.eval()
        x = np.zeros((2, 2, 1, 1))
        out = bn(x)
        np.testing.assert_allclose(out[:, 0], (0 - 1.0) / np.sqrt(4.0 + bn.eps), atol=1e-9)

    def test_eval_mode_does_not_update_stats(self):
        bn = BatchNorm2d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(RNG.normal(loc=9.0, size=(4, 2, 3, 3)))
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_affine_params_apply(self):
        bn = BatchNorm2d(1)
        bn.weight.data[...] = 3.0
        bn.bias.data[...] = -2.0
        bn.eval()
        out = bn(np.zeros((1, 1, 2, 2)))
        np.testing.assert_allclose(out, -2.0, atol=1e-9)

    def test_rejects_wrong_channels(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(np.zeros((1, 4, 2, 2)))


class TestBackwardNeedsALiveForward:
    """A backward consumes its forward's cache; without one it says so."""

    NO_FORWARD = "no forward has run since the last backward"

    def _trained_once(self, scoped):
        bn = BatchNorm2d(2)
        x = RNG.normal(size=(4, 2, 3, 3))
        with no_param_grads() if scoped else contextlib.nullcontext():
            out = bn(x)
            bn.backward(np.ones_like(out))
        return bn, out

    def test_second_backward_inside_the_scope(self):
        bn, out = self._trained_once(scoped=True)
        with no_param_grads(), pytest.raises(RuntimeError, match=self.NO_FORWARD):
            bn.backward(np.ones_like(out))

    def test_second_backward_outside_a_scope(self):
        bn, out = self._trained_once(scoped=False)
        with pytest.raises(RuntimeError, match=self.NO_FORWARD):
            bn.backward(np.ones_like(out))

    def test_backward_before_any_forward(self):
        with pytest.raises(RuntimeError, match=self.NO_FORWARD):
            BatchNorm2d(2).backward(np.ones((4, 2, 3, 3)))


class TestDualBatchNorm:
    def test_modes_use_separate_banks(self):
        bn = DualBatchNorm2d(2, momentum=1.0)
        bn.train()
        bn.set_mode(adversarial=False)
        bn(np.full((4, 2, 2, 2), 1.0))
        bn.set_mode(adversarial=True)
        bn(np.full((4, 2, 2, 2), 10.0))
        np.testing.assert_allclose(bn.running_mean, [1.0, 1.0])
        np.testing.assert_allclose(bn.running_mean_adv, [10.0, 10.0])

    def test_eval_respects_active_bank(self):
        bn = DualBatchNorm2d(1)
        bn.set_buffer("running_mean", np.array([0.0]))
        bn.set_buffer("running_var", np.array([1.0]))
        bn.set_buffer("running_mean_adv", np.array([5.0]))
        bn.set_buffer("running_var_adv", np.array([1.0]))
        bn.eval()
        x = np.zeros((1, 1, 1, 1))
        bn.set_mode(adversarial=False)
        clean_out = bn(x)[0, 0, 0, 0]
        bn.set_mode(adversarial=True)
        adv_out = bn(x)[0, 0, 0, 0]
        assert adv_out < clean_out  # adv bank has higher mean

    def test_state_dict_includes_both_banks(self):
        bn = DualBatchNorm2d(2)
        keys = set()
        for name, _ in bn.named_buffers():
            keys.add(name)
        assert keys == {
            "running_mean", "running_var", "running_mean_adv", "running_var_adv"
        }

    def test_set_dual_bn_mode_helper_ignores_plain_bn(self):
        from repro.nn import Sequential

        model = Sequential(BatchNorm2d(2), DualBatchNorm2d(2))
        set_dual_bn_mode(model, True)
        assert model.layers[1].adversarial_mode
        assert not hasattr(model.layers[0], "adversarial_mode") or not isinstance(
            model.layers[0], DualBatchNorm2d
        )
