"""Tests for the model zoo and the cascade/atom abstraction."""

import numpy as np
import pytest

from repro.models import (
    CascadeModel,
    build_cnn,
    build_model,
    build_resnet,
    build_vgg,
)
from repro.nn import DualBatchNorm2d

RNG = np.random.default_rng(0)


class TestVGG:
    def test_vgg16_atom_count_matches_paper(self):
        """Paper Table 7: VGG16 = 13 conv atoms + 3 linear atoms."""
        m = build_vgg("vgg16", 10, (3, 32, 32))  # described only: no generator, nothing drawn
        assert len(m.atoms) == 16
        names = m.atom_names()
        assert names[0] == "conv1" and names[12] == "conv13"
        assert names[13:] == ["linear1", "linear2", "linear3"]

    def test_vgg11_forward_shape(self):
        m = build_vgg("vgg11", 10, (3, 32, 32), width_mult=0.25, rng=RNG)
        out = m(RNG.normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_width_mult_scales_channels(self):
        full = build_vgg("vgg11", 10, (3, 32, 32))
        half = build_vgg("vgg11", 10, (3, 32, 32), width_mult=0.5)
        assert half.num_parameters() < 0.5 * full.num_parameters()

    def test_small_input_skips_pools(self):
        m = build_vgg("vgg16", 10, (3, 8, 8), width_mult=0.125, rng=RNG)
        out = m(RNG.normal(size=(1, 3, 8, 8)))
        assert out.shape == (1, 10)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build_vgg("vgg99", 10, (3, 32, 32))


class TestResNet:
    def test_resnet34_atom_count_matches_paper(self):
        """Paper Table 8: ResNet34 = conv1 + 16 basic blocks + linear."""
        m = build_resnet("resnet34", 256, (3, 64, 64), width_mult=0.125, rng=RNG)
        assert len(m.atoms) == 18
        assert m.atom_names()[0] == "conv1"
        assert m.atom_names()[-1] == "linear"

    def test_resnet10_forward_shape(self):
        m = build_resnet("resnet10", 5, (3, 16, 16), width_mult=0.25, rng=RNG)
        out = m(RNG.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 5)

    def test_large_input_uses_downsampling_stem(self):
        big = build_resnet("resnet10", 5, (3, 64, 64), width_mult=0.125, rng=RNG)
        small = build_resnet("resnet10", 5, (3, 16, 16), width_mult=0.125, rng=RNG)
        # 7x7/s2 + maxpool stem reduces 64 -> 16; CIFAR stem keeps 16.
        assert big.atoms[0].out_shape[-1] == 16
        assert small.atoms[0].out_shape[-1] == 16

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build_resnet("resnet99", 10, (3, 32, 32))


class TestCNN:
    def test_cnn3_structure(self):
        m = build_cnn(3, 10, (3, 32, 32), rng=RNG)
        assert len(m.atoms) == 4  # 3 conv + linear head

    def test_cnn_forward_backward(self):
        m = build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=RNG)
        x = RNG.normal(size=(3, 3, 8, 8))
        out = m(x)
        g = m.backward(np.ones_like(out))
        assert g.shape == x.shape

    def test_invalid_num_conv(self):
        with pytest.raises(ValueError):
            build_cnn(0, 10, (3, 8, 8))


class TestCascadeModel:
    def _model(self):
        return build_cnn(3, 10, (3, 16, 16), base_channels=4, rng=RNG)

    def test_infer_shapes_populates_atoms(self):
        m = self._model()
        for atom in m.atoms:
            assert atom.out_shape
        assert m.atoms[-1].out_shape == (10,)

    def test_segment_shares_parameters(self):
        m = self._model()
        seg = m.segment(0, 2)
        seg_params = {id(p) for p in seg.parameters()}
        atom_params = {
            id(p) for a in m.atoms[:2] for p in a.module.parameters()
        }
        assert seg_params == atom_params

    def test_segment_invalid_range(self):
        m = self._model()
        with pytest.raises(IndexError):
            m.segment(2, 2)
        with pytest.raises(IndexError):
            m.segment(0, 99)

    def test_forward_until_matches_partial_forward(self):
        m = self._model()
        m.eval()
        x = RNG.normal(size=(2, 3, 16, 16))
        z = m.forward_until(x, 2)
        z2 = m.atoms[1].module(m.atoms[0].module(x))
        np.testing.assert_allclose(z, z2)

    def test_feature_shape_minus_one_is_input(self):
        m = self._model()
        assert m.feature_shape(-1) == (3, 16, 16)
        assert m.feature_size(-1) == 3 * 16 * 16

    def test_full_forward_equals_atom_chain(self):
        m = self._model()
        m.eval()
        x = RNG.normal(size=(2, 3, 16, 16))
        out = m(x)
        z = x
        for atom in m.atoms:
            z = atom.module(z)
        np.testing.assert_allclose(out, z)

    def test_empty_atoms_rejected(self):
        with pytest.raises(ValueError):
            CascadeModel([], in_shape=(3, 8, 8), num_classes=2)


class TestZoo:
    def test_build_model_dispatch(self):
        assert build_model("vgg11", 10, (3, 16, 16), width_mult=0.25).name == "vgg11"
        assert build_model("resnet10", 10, (3, 16, 16), width_mult=0.25).name == "resnet10"
        assert build_model("cnn3", 10, (3, 16, 16)).name == "cnn3"

    def test_build_model_unknown(self):
        with pytest.raises(ValueError):
            build_model("transformer", 10, (3, 16, 16))

    def test_dual_bn_injection(self):
        m = build_model(
            "cnn2", 4, (3, 8, 8), rng=RNG, bn_cls=DualBatchNorm2d
        )
        assert any(isinstance(x, DualBatchNorm2d) for x in m.modules())
