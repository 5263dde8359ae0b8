"""Tests for evaluation metrics and table formatting."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.metrics import EvalResult, evaluate_model
from repro.models import build_cnn
from repro.utils import format_table


def _model():
    return build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))


def _dataset(n=24):
    rng = np.random.default_rng(2)
    y = rng.integers(0, 4, size=n)
    x = np.clip(0.5 + 0.2 * rng.normal(size=(n, 3, 8, 8)), 0, 1)
    return ArrayDataset(x, y)


class TestEvaluateModel:
    def test_returns_all_requested_metrics(self):
        res = evaluate_model(
            _model(), _dataset(), eps=0.03, pgd_steps=2, with_autoattack=True,
            batch_size=8,
        )
        assert 0 <= res.clean_acc <= 1
        assert 0 <= res.pgd_acc <= 1
        assert 0 <= res.aa_acc <= 1

    def test_adversarial_not_better_than_clean(self):
        res = evaluate_model(_model(), _dataset(), eps=0.1, pgd_steps=5, batch_size=8)
        assert res.pgd_acc <= res.clean_acc + 1e-9

    def test_aa_not_better_than_pgd(self):
        res = evaluate_model(
            _model(), _dataset(), eps=0.1, pgd_steps=5, with_autoattack=True, batch_size=8
        )
        assert res.aa_acc <= res.pgd_acc + 1e-9

    def test_zero_eps_skips_attacks(self):
        res = evaluate_model(_model(), _dataset(), eps=0.0, pgd_steps=5)
        assert res.pgd_acc is None and res.aa_acc is None

    def test_max_samples_caps_work(self):
        res = evaluate_model(
            _model(), _dataset(n=50), eps=0.03, pgd_steps=1, max_samples=10
        )
        assert res.pgd_acc is not None

    def test_as_dict(self):
        d = EvalResult(0.5, 0.4, 0.3).as_dict()
        assert d == {"clean_acc": 0.5, "pgd_acc": 0.4, "aa_acc": 0.3}

    def test_model_left_in_eval_with_zero_grads(self):
        model = _model()
        evaluate_model(model, _dataset(), eps=0.05, pgd_steps=2, batch_size=8)
        assert all(np.abs(p.grad).sum() == 0 for p in model.parameters())


class TestFormatTable:
    def test_basic_render(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 0.00001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_alignment_width(self):
        out = format_table(["col"], [["averylongvalue"]])
        header, sep, row = out.splitlines()
        assert len(header) == len(row)
