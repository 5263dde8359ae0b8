"""Configuration-surface tests: defaults, derived values, paper values,
and the declared groups the checkpoint fingerprint reads."""

import dataclasses

import pytest

from repro.core import FedProphetConfig
from repro.flsim import FaultPlan, FLConfig, ThreatPlan, config_fingerprint


class TestFLConfigDefaults:
    def test_paper_defaults(self):
        """FLConfig defaults are the paper's §B.4 hyperparameters."""
        cfg = FLConfig()
        assert cfg.num_clients == 100
        assert cfg.clients_per_round == 10
        assert cfg.local_iters == 30
        assert cfg.batch_size == 64
        assert cfg.lr == pytest.approx(0.005)
        assert cfg.lr_decay == pytest.approx(0.994)
        assert cfg.momentum == pytest.approx(0.9)
        assert cfg.weight_decay == pytest.approx(1e-4)
        assert cfg.train_pgd_steps == 10
        assert cfg.eval_pgd_steps == 20
        assert cfg.eps0 == pytest.approx(8 / 255)


class TestFedProphetConfigDefaults:
    def test_paper_defaults(self):
        cfg = FedProphetConfig()
        assert cfg.mu == pytest.approx(1e-5)
        assert cfg.gamma == pytest.approx(0.05)
        assert cfg.delta_alpha == pytest.approx(0.1)
        assert cfg.alpha_init == pytest.approx(0.3)
        assert cfg.rounds_per_module == 500
        assert cfg.patience == 50
        assert cfg.use_apa and cfg.use_dma

    def test_attack_steps_features_falls_back_to_train_steps(self):
        cfg = FedProphetConfig(train_pgd_steps=7)
        assert cfg.attack_steps_features == 7
        cfg2 = FedProphetConfig(train_pgd_steps=7, feature_pgd_steps=3)
        assert cfg2.attack_steps_features == 3

    def test_inherits_fl_validation(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            cfg = FedProphetConfig(num_clients=2, clients_per_round=5)
        assert cfg.clients_per_round == 2


#: One legal non-default value per field, against ``_BASE`` (async mode
#: and a journal, so the fields that need them are legal alone).
_BASE = dict(aggregation_mode="async", journal_path="a.jsonl")
_ALTERNATES = dict(
    num_clients=50, clients_per_round=5, local_iters=3, batch_size=16, lr=0.01,
    momentum=0.5, weight_decay=0.0, lr_decay=0.99, rounds=7, train_pgd_steps=3,
    eps0=4.0 / 255.0, eval_pgd_steps=5, eval_every=2, eval_max_samples=64,
    eval_with_autoattack=True, seed=1, fusion_width=2, aggregation_mode="sync",
    max_staleness=2, pipeline_depth=2, journal_path="b.jsonl", checkpoint_every=2,
    status_port=0, eval_every_merge=2, fault_plan=FaultPlan(dropout_prob=0.1),
    client_timeout=5.0, max_client_retries=1, min_clients_per_round=2,
    threat_plan=ThreatPlan(byzantine_prob=0.2), aggregation_rule="median",
    trim_ratio=0.1, krum_byzantine_f=2, clip_norm=1.0, population_scheme="virtual",
    client_materialisation="lazy", client_cache_size=8, samples_per_client=10,
    availability_fraction=0.5, availability_period=4,
    mu=1e-4, gamma=0.1, delta_alpha=0.2, alpha_init=0.5, alpha_min=0.1, alpha_max=3.0,
    r_min_bytes=1 << 20, r_min_fraction=0.3, rounds_per_module=10, patience=5,
    use_apa=False, use_dma=False, use_prefix_cache=False, val_samples=32,
    val_pgd_steps=2, feature_pgd_steps=3,
)


@pytest.mark.fault_tolerance
@pytest.mark.docs
class TestConfigGroups:
    @pytest.mark.parametrize("cls", [FLConfig, FedProphetConfig])
    def test_every_field_declares_a_group_and_a_meaning(self, cls):
        groups = {}
        for f in dataclasses.fields(cls):
            assert f.metadata.get("group") in ("semantic", "engine", "recorder"), f.name
            meaning = f.metadata.get("meaning")
            # One line, and no cell separator for the docs table.
            assert meaning and "\n" not in meaning and "|" not in meaning, f.name
            groups.setdefault(f.metadata["group"], set()).add(f.name)
        assert groups["engine"] == {"fusion_width", "client_materialisation", "client_cache_size"}
        assert groups["recorder"] == {"journal_path", "checkpoint_every", "status_port"}

    def test_the_alternates_cover_every_field(self):
        # A new field cannot skip the fingerprint check below.
        assert set(_ALTERNATES) == {f.name for f in dataclasses.fields(FedProphetConfig)}

    @pytest.mark.parametrize("cls, experiment",
                             [(FLConfig, "jfat"), (FedProphetConfig, "fedprophet")])
    def test_the_fingerprint_changes_iff_the_field_is_semantic(self, cls, experiment):
        base = config_fingerprint(cls(**_BASE), experiment)
        wrong = []
        for f in dataclasses.fields(cls):
            config = cls(**{**_BASE, f.name: _ALTERNATES[f.name]})
            assert getattr(config, f.name) != getattr(cls(**_BASE), f.name), f.name
            changed = config_fingerprint(config, experiment) != base
            if changed != (f.metadata["group"] == "semantic"):
                wrong.append(f.name)
        assert not wrong, f"fingerprint disagrees with the declared group for {wrong}"
