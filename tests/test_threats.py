"""Adversarial clients: seeded threat scenarios × robust aggregation rules.

Load-bearing properties (PR 7):

* a :class:`ThreatPlan` marks clients Byzantine by counter-derived draws
  keyed on ``(plan seed, round, cid)`` — attacker selection, poisoned
  shards, and poisoned updates are **bit-identical** fused and per
  item, sync or async at any pipeline depth;
* an inactive plan (``byzantine_prob=0``) reproduces the clean run bit
  for bit, and ``aggregation_rule="fedavg"`` delegates byte-for-byte to
  the historical weighted average;
* every attacker (label-flip, backdoor, sign-flip, gaussian,
  model-replacement) composes with every rule (fedavg, median,
  trimmed-mean, Krum, norm-clip) under sync and pipelined-async
  aggregation, with no baseline-specific attack code;
* robust rules journal their rejection/clipping decisions, compose with
  FedRBN's dual-BN merge, the partial-training masked average, and
  FedProphet's per-module merges, and structurally impossible pairings
  (Krum × masked sub-models, backdoor × frozen-prefix cache) are refused
  at construction time with actionable errors.
"""

import json

import numpy as np
import pytest

from repro.baselines import FedDFAT, FedRBN, HeteroFLAT, JointFAT
from repro.core import FedProphet, FedProphetConfig
from repro.data import ArrayDataset, make_cifar10_like
from repro.flsim import (
    AggregationError,
    ATTACKS,
    FaultPlan,
    FLConfig,
    RobustAggregator,
    RunJournal,
    ThreatPlan,
    clipped_norm_average,
    coordinate_median,
    krum_scores,
    krum_select,
    masked_robust_average,
    trimmed_mean,
    weighted_average_states,
)
from repro.models import build_cnn
from repro.nn.normalization import DualBatchNorm2d


MATRIX_RULES = ("fedavg", "median", "trimmed_mean", "krum", "norm_clip")


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _dual_builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng, bn_cls=DualBatchNorm2d)


def _cfg(cls=FLConfig, **overrides):
    defaults = dict(
        num_clients=6, clients_per_round=4, local_iters=2, batch_size=8,
        lr=0.02, rounds=3, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=0, eval_max_samples=24, seed=0,
    )
    if cls is FedProphetConfig:
        defaults.update(rounds_per_module=2, patience=5, r_min_fraction=0.4,
                        val_samples=16, val_pgd_steps=2)
    defaults.update(overrides)
    return cls(**defaults)


def _plan(attack="sign_flip", prob=0.4, **kw):
    return ThreatPlan(seed=7, byzantine_prob=prob, attack=attack, **kw)


def _state(exp):
    return {k: v.copy() for k, v in exp.global_model.state_dict().items()}


def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


def _run_jfat(plan, rule, mode="sync", **kw):
    cfg = _cfg(
        threat_plan=plan, aggregation_rule=rule,
        aggregation_mode=mode,
        pipeline_depth=2 if mode == "async" else 1,
        **kw,
    )
    exp = JointFAT(_task(), _builder, cfg)
    exp.run()
    return exp


def _toy_states(n=5, shape=(3,), seed=0):
    rng = np.random.default_rng(seed)
    return [
        {"w": rng.normal(size=shape), "b": rng.normal(size=(2,))}
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# ThreatPlan unit surface
# ---------------------------------------------------------------------------


class TestThreatPlanValidation:
    def test_byzantine_prob_range(self):
        with pytest.raises(ValueError, match="byzantine_prob"):
            ThreatPlan(byzantine_prob=1.5)
        with pytest.raises(ValueError, match="byzantine_prob"):
            ThreatPlan(byzantine_prob=-0.1)

    def test_unknown_attack(self):
        with pytest.raises(ValueError, match="attack"):
            ThreatPlan(attack="rickroll")

    def test_backdoor_fraction_range(self):
        with pytest.raises(ValueError, match="backdoor_fraction"):
            ThreatPlan(backdoor_fraction=1.2)

    def test_trigger_size_positive(self):
        with pytest.raises(ValueError, match="trigger_size"):
            ThreatPlan(trigger_size=0)

    def test_window_ordering(self):
        with pytest.raises(ValueError, match="end_round"):
            ThreatPlan(start_round=5, end_round=5)

    def test_json_round_trip(self):
        plan = _plan("backdoor", backdoor_fraction=0.5, trigger_size=3)
        assert ThreatPlan.from_json(plan.to_json()) == plan

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ValueError, match="byzantine_probb"):
            ThreatPlan.from_json('{"byzantine_probb": 0.3}')

    def test_type_mismatch_named_in_error(self):
        with pytest.raises(ValueError, match="byzantine_prob"):
            ThreatPlan.from_json('{"byzantine_prob": "lots"}')

    def test_parse_inline_and_file(self, tmp_path):
        inline = ThreatPlan.parse('{"seed": 3, "byzantine_prob": 0.2}')
        assert inline.seed == 3 and inline.byzantine_prob == 0.2
        path = tmp_path / "plan.json"
        path.write_text(inline.to_json())
        assert ThreatPlan.parse(str(path)) == inline

    def test_config_coerces_dict(self):
        cfg = _cfg(threat_plan={"seed": 1, "byzantine_prob": 0.1})
        assert isinstance(cfg.threat_plan, ThreatPlan)
        assert cfg.threat_plan.seed == 1

    def test_config_validates_rule_knobs(self):
        with pytest.raises(ValueError, match="aggregation_rule"):
            _cfg(aggregation_rule="mode")
        with pytest.raises(ValueError, match="trim_ratio"):
            _cfg(trim_ratio=0.5)
        with pytest.raises(ValueError, match="krum_byzantine_f"):
            _cfg(krum_byzantine_f=-1)
        with pytest.raises(ValueError, match="clip_norm"):
            _cfg(clip_norm=0.0)


class TestByzantineSelection:
    def test_pure_in_seed_round_cid(self):
        plan = _plan(prob=0.5)
        draws = [plan.is_byzantine(3, 11) for _ in range(5)]
        assert len(set(draws)) == 1

    def test_inactive_plan_never_byzantine(self):
        plan = _plan(prob=0.0)
        assert not any(plan.is_byzantine(r, c) for r in range(10) for c in range(10))
        assert not plan.active

    def test_window_bounds_attack(self):
        plan = _plan(prob=1.0, start_round=2, end_round=4)
        assert [plan.is_byzantine(r, 0) for r in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_plan_round_positions_and_cids(self):
        plan = _plan(prob=1.0)
        threats = plan.plan_round(0, [10, 20, 30])
        assert threats.byzantine == [0, 1, 2]
        assert threats.byzantine_cids == [10, 20, 30]
        assert threats.attack == plan.attack

    def test_stream_independent_of_fault_plan(self):
        # Same seed, same (round, cid) grid: the threat stream must not
        # mirror the fault stream (domain separation).
        tplan = ThreatPlan(seed=9, byzantine_prob=0.5)
        fplan = FaultPlan(seed=9, dropout_prob=0.5)
        threat = [tplan.is_byzantine(r, c) for r in range(8) for c in range(8)]
        fault = [
            not fplan.outcome(r, c, 0).survived
            for r in range(8) for c in range(8)
        ]
        assert threat != fault

    def test_seed_changes_selection(self):
        grid_a = [
            ThreatPlan(seed=1, byzantine_prob=0.5).is_byzantine(r, c)
            for r in range(8) for c in range(8)
        ]
        grid_b = [
            ThreatPlan(seed=2, byzantine_prob=0.5).is_byzantine(r, c)
            for r in range(8) for c in range(8)
        ]
        assert grid_a != grid_b


class TestDataPoisoning:
    def test_label_flip_rotates_labels(self):
        ds = ArrayDataset(np.zeros((6, 3, 4, 4)), np.arange(6) % 3)
        plan = _plan("label_flip", flip_offset=1)
        poisoned = plan.poison_dataset(ds, 0, 0, num_classes=3)
        np.testing.assert_array_equal(poisoned.y, (np.arange(6) + 1) % 3)
        assert poisoned.x is ds.x  # inputs shared, labels-only attack

    def test_backdoor_stamps_trigger_and_relabels(self):
        x = np.zeros((4, 3, 8, 8))
        y = np.arange(4) % 3 + 1
        plan = _plan("backdoor", backdoor_target=0, trigger_size=2,
                     trigger_value=0.5)
        poisoned = plan.poison_dataset(ArrayDataset(x, y), 0, 0, num_classes=10)
        np.testing.assert_array_equal(poisoned.y, np.zeros(4, dtype=y.dtype))
        np.testing.assert_array_equal(
            poisoned.x[..., -2:, -2:], np.full((4, 3, 2, 2), 0.5)
        )
        assert poisoned.x[..., :6, :6].sum() == 0.0  # rest untouched
        assert x.sum() == 0.0  # original untouched

    def test_backdoor_fraction_and_determinism(self):
        x = np.zeros((10, 3, 8, 8))
        y = np.ones(10, dtype=np.int64)
        plan = _plan("backdoor", backdoor_fraction=0.5, backdoor_target=0)
        a = plan.poison_dataset(ArrayDataset(x, y), 2, 3, num_classes=10)
        b = plan.poison_dataset(ArrayDataset(x, y), 2, 3, num_classes=10)
        assert (a.y == 0).sum() == 5
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        # another (round, cid) picks a different sample subset eventually
        c = plan.poison_dataset(ArrayDataset(x, y), 3, 4, num_classes=10)
        assert (c.y == 0).sum() == 5

    def test_update_attack_rejects_poison_dataset(self):
        ds = ArrayDataset(np.zeros((2, 3, 4, 4)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="not a data attack"):
            _plan("sign_flip").poison_dataset(ds, 0, 0, 10)


class TestUpdatePoisoning:
    def _base_and_state(self):
        base = {"w": np.full((3,), 1.0), "n": np.array(5, dtype=np.int64)}
        state = {"w": np.full((3,), 2.0), "n": np.array(7, dtype=np.int64)}
        return base, state

    def test_sign_flip_negates_delta(self):
        base, state = self._base_and_state()
        out = _plan("sign_flip").poison_state(state, base, 0, 0)
        np.testing.assert_allclose(out["w"], np.zeros(3))  # 1 - (2-1)

    def test_model_replacement_boosts_delta(self):
        base, state = self._base_and_state()
        out = _plan("model_replacement", scale=10.0).poison_state(state, base, 0, 0)
        np.testing.assert_allclose(out["w"], np.full(3, 11.0))  # 1 + 10*(2-1)

    def test_gaussian_is_deterministic(self):
        base, state = self._base_and_state()
        plan = _plan("gaussian", noise_std=0.5)
        a = plan.poison_state(state, base, 1, 2)
        b = plan.poison_state(state, base, 1, 2)
        np.testing.assert_array_equal(a["w"], b["w"])
        assert not np.array_equal(a["w"], state["w"])
        c = plan.poison_state(state, base, 1, 3)  # другой client: other draws
        assert not np.array_equal(a["w"], c["w"])

    def test_integer_buffers_stay_honest(self):
        base, state = self._base_and_state()
        out = _plan("sign_flip").poison_state(state, base, 0, 0)
        assert out["n"] == state["n"]

    def test_mask_restricts_poisoning(self):
        base = {"w": np.zeros(4)}
        state = {"w": np.array([1.0, 0.0, 2.0, 0.0])}
        mask = {"w": np.array([1.0, 0.0, 1.0, 0.0])}
        out = _plan("sign_flip").poison_state(state, base, 0, 0, mask=mask)
        np.testing.assert_allclose(out["w"], np.array([-1.0, 0.0, -2.0, 0.0]))

    def test_poison_update_plain_dict(self):
        base, state = self._base_and_state()
        out = _plan("sign_flip").poison_update(state, base, 0, 0)
        np.testing.assert_allclose(out["w"], np.zeros(3))

    def test_poison_update_masked_triple(self):
        base = {"w": np.zeros(2)}
        update = ({"w": np.ones(2)}, {"w": np.array([1.0, 0.0])}, 3.0)
        out = _plan("sign_flip").poison_update(update, base, 0, 0)
        assert isinstance(out, tuple) and out[2] == 3.0
        np.testing.assert_allclose(out[0]["w"], np.array([-1.0, 1.0]))
        np.testing.assert_array_equal(out[1]["w"], update[1]["w"])

    def test_poison_update_prophet_tuple_keeps_heads_honest(self):
        base = {"seg": np.zeros(2)}
        seg = {"seg": np.ones(2)}
        heads = {"head": np.ones(2)}
        update = (seg, heads, 1.5, None)
        out = _plan("sign_flip").poison_update(update, base, 0, 0)
        np.testing.assert_allclose(out[0]["seg"], -np.ones(2))
        np.testing.assert_array_equal(out[1]["head"], heads["head"])
        assert out[2] == 1.5


# ---------------------------------------------------------------------------
# Robust aggregation rules (pure functions)
# ---------------------------------------------------------------------------


class TestRobustRules:
    def test_coordinate_median(self):
        states = [{"w": np.array([v])} for v in (1.0, 2.0, 100.0)]
        np.testing.assert_allclose(coordinate_median(states)["w"], [2.0])

    def test_trimmed_mean_drops_outliers(self):
        states = [{"w": np.array([v])} for v in (1.0, 2.0, 3.0, 1000.0)]
        merged, k = trimmed_mean(states, trim_ratio=0.25)
        assert k == 1
        np.testing.assert_allclose(merged["w"], [2.5])  # mean of 2, 3

    def test_trimmed_mean_clamps_small_cohorts(self):
        states = [{"w": np.array([v])} for v in (1.0, 5.0)]
        merged, k = trimmed_mean(states, trim_ratio=0.45)
        assert k == 0  # (n-1)//2 = 0: nothing to trim, plain mean
        np.testing.assert_allclose(merged["w"], [3.0])

    def test_krum_scores_outlier_highest(self):
        states = [{"w": np.array([0.0])}, {"w": np.array([0.1])},
                  {"w": np.array([0.2])}, {"w": np.array([50.0])}]
        scores = krum_scores(states, byzantine_f=1)
        assert int(np.argmax(scores)) == 3

    def test_krum_select_counts(self):
        states = [{"w": np.array([float(i)])} for i in range(5)]
        assert len(krum_select(states, 1)) == 1
        assert len(krum_select(states, 1, multi=True)) == 4  # n - f

    def test_krum_degenerate_single_client(self):
        states = [{"w": np.array([3.0])}]
        assert krum_select(states, 1) == [0]

    def test_norm_clip_explicit_radius(self):
        base = {"w": np.zeros(1)}
        states = [{"w": np.array([0.5])}, {"w": np.array([10.0])}]
        merged, stats = clipped_norm_average(states, [1.0, 1.0], base, clip_norm=1.0)
        assert stats["clipped"] == 1
        np.testing.assert_allclose(merged["w"], [(0.5 + 1.0) / 2])

    def test_norm_clip_adaptive_radius_is_median(self):
        base = {"w": np.zeros(1)}
        states = [{"w": np.array([v])} for v in (1.0, 2.0, 30.0)]
        merged, stats = clipped_norm_average(states, [1, 1, 1], base, clip_norm=None)
        assert stats["clip_norm"] == pytest.approx(2.0)
        assert stats["clipped"] == 1
        np.testing.assert_allclose(merged["w"], [(1.0 + 2.0 + 2.0) / 3])

    def test_fedavg_rule_is_bitwise_weighted_average(self):
        states = _toy_states()
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        merged, stats = RobustAggregator(rule="fedavg").aggregate(states, weights)
        assert stats is None
        _assert_states_equal(merged, weighted_average_states(states, weights))

    def test_empty_states_raise_typed_error(self):
        with pytest.raises(AggregationError, match="empty"):
            weighted_average_states([], [])
        with pytest.raises(AggregationError):
            RobustAggregator(rule="median").aggregate([], [])

    def test_norm_clip_requires_base(self):
        with pytest.raises(ValueError, match="base"):
            RobustAggregator(rule="norm_clip").aggregate(_toy_states(), [1] * 5)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="aggregation rule"):
            RobustAggregator(rule="majority_vote")

    def test_rules_are_deterministic(self):
        states = _toy_states(seed=3)
        weights = [1.0] * 5
        base = {k: np.zeros_like(v) for k, v in states[0].items()}
        for rule in ("median", "trimmed_mean", "krum", "multi_krum", "norm_clip"):
            agg = RobustAggregator(rule=rule)
            a, _ = agg.aggregate(states, weights, base=base)
            b, _ = agg.aggregate(states, weights, base=base)
            _assert_states_equal(a, b, label=rule)


class TestMaskedRobustAverage:
    def _updates(self):
        # Client 0 covers coords {0,1}; client 1 covers {1,2}; coord 3
        # is covered by nobody and must keep the global value.
        g = {"w": np.array([10.0, 10.0, 10.0, 10.0])}
        u0 = ({"w": np.array([1.0, 2.0, 0.0, 0.0])},
              {"w": np.array([1.0, 1.0, 0.0, 0.0])}, 1.0)
        u1 = ({"w": np.array([0.0, 4.0, 6.0, 0.0])},
              {"w": np.array([0.0, 1.0, 1.0, 0.0])}, 1.0)
        return g, [u0, u1]

    def test_median_respects_masks(self):
        g, updates = self._updates()
        merged, stats = masked_robust_average(
            g, updates, RobustAggregator(rule="median")
        )
        np.testing.assert_allclose(merged["w"], [1.0, 3.0, 6.0, 10.0])
        assert stats["rule"] == "median"

    def test_trimmed_mean_respects_masks(self):
        g, updates = self._updates()
        merged, _ = masked_robust_average(
            g, updates, RobustAggregator(rule="trimmed_mean", trim_ratio=0.4)
        )
        # n<=2 per coordinate: nothing trims, masked mean
        np.testing.assert_allclose(merged["w"], [1.0, 3.0, 6.0, 10.0])

    def test_norm_clip_masked(self):
        g = {"w": np.zeros(2)}
        honest = ({"w": np.array([0.5, 0.0])}, {"w": np.array([1.0, 0.0])}, 1.0)
        liar = ({"w": np.array([40.0, 0.0])}, {"w": np.array([1.0, 0.0])}, 1.0)
        merged, stats = masked_robust_average(
            g, [honest, liar], RobustAggregator(rule="norm_clip", clip_norm=1.0)
        )
        assert stats["clipped"] == 1
        np.testing.assert_allclose(merged["w"], [(0.5 + 1.0) / 2, 0.0])

    def test_krum_refused_for_masked_updates(self):
        g, updates = self._updates()
        with pytest.raises(AggregationError, match="homogeneous"):
            masked_robust_average(g, updates, RobustAggregator(rule="krum"))

    def test_empty_updates_raise(self):
        with pytest.raises(AggregationError, match="empty"):
            masked_robust_average({}, [], RobustAggregator(rule="median"))


# ---------------------------------------------------------------------------
# The attacker x rule scenario matrix
# ---------------------------------------------------------------------------


class TestThreatMatrix:
    @pytest.mark.parametrize("rule", MATRIX_RULES)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_cell_runs_sync_and_pipelined_async(self, attack, rule):
        plan = _plan(attack)
        for mode in ("sync", "async"):
            exp = _run_jfat(plan, rule, mode=mode)
            assert len(exp.history) == exp.config.rounds
            for value in exp.global_model.state_dict().values():
                assert np.all(np.isfinite(value))

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize(
        "attack,rule",
        [("label_flip", "krum"), ("model_replacement", "norm_clip")],
    )
    def test_bit_identical_fused_and_per_item(self, attack, rule, mode):
        plan = _plan(attack)
        reference = _state(_run_jfat(plan, rule, mode=mode))
        exp = _run_jfat(plan, rule, mode=mode, fusion_width=1)
        _assert_states_equal(reference, _state(exp), label="per item:")

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize(
        "attack,rule",
        [("label_flip", "krum"), ("model_replacement", "norm_clip")],
    )
    def test_bit_identical_on_a_lazy_population(self, attack, rule, mode):
        # Attackers and poisoned shards are keyed on (plan seed, round,
        # cid), never on a client object a two-entry cache rebuilds.
        plan = _plan(attack)
        reference = _state(_run_jfat(plan, rule, mode=mode))
        exp = _run_jfat(
            plan, rule, mode=mode,
            client_materialisation="lazy", client_cache_size=2,
        )
        assert exp.clients.stats()["evictions"] > 0
        _assert_states_equal(reference, _state(exp), label="lazy:")


class TestCleanRunEquivalence:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_inactive_plan_is_bitwise_clean(self, mode):
        clean = _state(_run_jfat(None, "fedavg", mode=mode))
        off = _state(_run_jfat(_plan(prob=0.0), "fedavg", mode=mode))
        _assert_states_equal(clean, off)

    def test_window_excludes_all_rounds(self):
        clean = _state(_run_jfat(None, "fedavg"))
        later = _state(_run_jfat(_plan(prob=1.0, start_round=50), "fedavg"))
        _assert_states_equal(clean, later)

    def test_attack_actually_changes_the_run(self):
        clean = _state(_run_jfat(None, "fedavg"))
        attacked = _state(_run_jfat(_plan(prob=1.0), "fedavg"))
        assert any(not np.array_equal(clean[k], attacked[k]) for k in clean)


# ---------------------------------------------------------------------------
# Engine integration: journal, abort path, defence effect
# ---------------------------------------------------------------------------


class TestThreatJournal:
    def test_threats_events_match_plan(self, tmp_path):
        plan = _plan("label_flip", prob=0.6)
        journal_path = str(tmp_path / "run.jsonl")
        exp = _run_jfat(plan, "fedavg", journal_path=journal_path)
        events = RunJournal.read(journal_path)
        threat_events = [e for e in events if e["kind"] == "threats"]
        samples = {e["round"]: e["cids"] for e in events if e["kind"] == "sample"}
        assert threat_events  # prob 0.6 over 3x4 draws: effectively certain
        for event in threat_events:
            expected = plan.plan_round(event["round"], samples[event["round"]])
            assert event["byzantine"] == expected.byzantine_cids
            assert event["attack"] == "label_flip"

    def test_sync_agg_events_record_rule_stats(self, tmp_path):
        journal_path = str(tmp_path / "run.jsonl")
        exp = _run_jfat(_plan(), "krum", journal_path=journal_path)
        agg = [e for e in RunJournal.read(journal_path) if e["kind"] == "agg"]
        assert len(agg) == exp.config.rounds
        for event in agg:
            (stats,) = event["events"]
            assert stats["rule"] == "krum"
            assert len(stats["selected"]) == 1
            assert len(stats["selected"]) + len(stats["rejected"]) == stats["n"]

    def test_async_merge_events_carry_agg_stats(self, tmp_path):
        journal_path = str(tmp_path / "run.jsonl")
        _run_jfat(_plan(), "median", mode="async", journal_path=journal_path)
        merges = [
            e for e in RunJournal.read(journal_path) if e["kind"] == "merge"
        ]
        assert merges
        for event in merges:
            assert event["agg"][0]["rule"] == "median"

    def test_journal_is_json_serialisable_end_to_end(self, tmp_path):
        journal_path = str(tmp_path / "run.jsonl")
        _run_jfat(_plan("backdoor"), "norm_clip", mode="async",
                  journal_path=journal_path)
        for line in open(journal_path, encoding="utf-8"):
            json.loads(line)


class TestAggregationAbort:
    def test_agg_error_aborts_round_and_journals(self, tmp_path):
        class Exploding(JointFAT):
            def async_merge_event(self, server, ctx, *args):
                if ctx.round_idx == 1:
                    raise AggregationError("synthetic empty cohort")
                return super().async_merge_event(server, ctx, *args)

        journal_path = str(tmp_path / "run.jsonl")
        exp = Exploding(_task(), _builder, _cfg(journal_path=journal_path))
        before_round_1 = None
        history = exp.run()
        aborted = [r for r in history if r.aborted]
        assert [r.round for r in aborted] == [1]
        events = RunJournal.read(journal_path)
        agg_aborts = [e for e in events if e["kind"] == "agg_abort"]
        assert len(agg_aborts) == 1
        assert agg_aborts[0]["round"] == 1
        assert "synthetic empty cohort" in agg_aborts[0]["error"]

    def test_aborted_round_leaves_model_untouched(self):
        class Exploding(JointFAT):
            def async_merge_event(self, *args):
                raise AggregationError("always")

        exp = Exploding(_task(), _builder, _cfg(rounds=2))
        before = _state(exp)
        history = exp.run()
        assert all(r.aborted for r in history)
        _assert_states_equal(before, _state(exp))

    @pytest.mark.parametrize(
        "mode,fail_at",
        [({}, 1), (dict(aggregation_mode="async", max_staleness=2), 2)],
        ids=["sync", "async-after-first-event"],
    )
    def test_fedprophet_agg_error_restores_round_start_state(
        self, tmp_path, mode, fail_at
    ):
        """FedProphet trains on the live model, so a failed merge
        must put the last client's trained suffix and head back."""
        journal_path = str(tmp_path / "run.jsonl")
        exp = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, rounds=4, aggregation_rule="median",
                 journal_path=journal_path, **mode),
        )

        def live_state():
            heads = [h.state_dict() for h in exp.heads if h is not None]
            return [_state(exp)] + heads

        seen = {}
        sample = exp.sample_round

        def sample_round(t):
            seen[t] = live_state()  # the state round t starts from
            return sample(t)

        merge, calls = exp.robust_aggregate, []

        def robust_aggregate(*args, **kwargs):
            if len(exp.history) == 1:  # round 1 is in flight
                calls.append(1)
                if len(calls) == fail_at:
                    raise AggregationError("synthetic rejection")
            return merge(*args, **kwargs)

        exp.sample_round, exp.robust_aggregate = sample_round, robust_aggregate
        history = exp.run()
        exp.close()
        assert [r.aborted for r in history] == [False, True, False, False]
        for before, after in zip(seen[1], seen[2]):
            _assert_states_equal(before, after)
        assert any(
            not np.array_equal(seen[0][0][k], seen[1][0][k]) for k in seen[0][0]
        )
        # counted against the stage like a fault-aborted round
        assert exp.stage_results[0].rounds == 2
        events = RunJournal.read(journal_path)
        assert [e["round"] for e in events if e["kind"] == "agg_abort"] == [1]
        assert events[-1]["kind"] == "run_end"

    def test_min_clients_fault_abort_still_works_with_robust_rule(self):
        # Full dropout: the fault layer's min-clients abort fires before
        # aggregation ever sees an empty cohort, with any rule.
        exp = JointFAT(
            _task(), _builder,
            _cfg(aggregation_rule="median",
                 fault_plan=FaultPlan(seed=0, dropout_prob=1.0),
                 min_clients_per_round=2),
        )
        history = exp.run()
        assert all(r.aborted for r in history)


class TestDefenceEffect:
    def test_krum_rejects_model_replacement(self):
        # A scale-25 replacement attack: Krum's selection must keep the
        # defended weights close to clean while FedAvg is dragged away.
        plan = _plan("model_replacement", prob=0.4, scale=25.0)
        clean = _state(_run_jfat(None, "fedavg"))
        fedavg = _state(_run_jfat(plan, "fedavg"))
        krum = _state(_run_jfat(plan, "krum"))

        def dist(a):
            return float(
                np.sqrt(sum(float(((a[k] - clean[k]) ** 2).sum()) for k in a))
            )

        assert dist(krum) < dist(fedavg)

    def test_norm_clip_bounds_model_replacement(self):
        plan = _plan("model_replacement", prob=0.4, scale=25.0)
        clean = _state(_run_jfat(None, "fedavg"))
        fedavg = _state(_run_jfat(plan, "fedavg"))
        clipped = _state(_run_jfat(plan, "norm_clip", clip_norm=2.0))

        def dist(a):
            return float(
                np.sqrt(sum(float(((a[k] - clean[k]) ** 2).sum()) for k in a))
            )

        assert dist(clipped) < dist(fedavg)


# ---------------------------------------------------------------------------
# Baseline families under threats + robust rules
# ---------------------------------------------------------------------------


class TestBaselineComposition:
    @pytest.mark.parametrize("rule", ["median", "norm_clip"])
    def test_fedrbn_robust_sync_and_async(self, rule):
        for mode in ("sync", "async"):
            exp = FedRBN(
                _task(), _dual_builder,
                _cfg(threat_plan=_plan(), aggregation_rule=rule,
                     aggregation_mode=mode),
            )
            exp.run()
            assert len(exp.history) == exp.config.rounds

    def test_fedrbn_sync_matches_staleness_zero_async(self):
        cfg = dict(threat_plan=_plan(), aggregation_rule="median")
        sync = FedRBN(_task(), _dual_builder, _cfg(**cfg))
        sync.run()
        zero = FedRBN(
            _task(), _dual_builder,
            _cfg(aggregation_mode="async", max_staleness=0, **cfg),
        )
        zero.run()
        _assert_states_equal(_state(sync), _state(zero))

    @pytest.mark.parametrize("rule", ["median", "trimmed_mean", "norm_clip"])
    def test_partial_family_robust_rules(self, rule):
        for mode in ("sync", "async"):
            exp = HeteroFLAT(
                _task(), _builder,
                _cfg(threat_plan=_plan(), aggregation_rule=rule,
                     aggregation_mode=mode),
            )
            exp.run()
            assert len(exp.history) == exp.config.rounds

    def test_partial_family_refuses_krum(self):
        with pytest.raises(ValueError, match="Krum"):
            HeteroFLAT(_task(), _builder, _cfg(aggregation_rule="krum"))
        with pytest.raises(ValueError, match="Krum"):
            HeteroFLAT(_task(), _builder, _cfg(aggregation_rule="multi_krum"))

    def test_distillation_family_robust_merge(self):
        exp = FedDFAT(
            _task(), {"cnn": _builder},
            _cfg(threat_plan=_plan(), aggregation_rule="median"),
        )
        exp.run()
        assert len(exp.history) == exp.config.rounds

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_fedprophet_robust_per_module_merges(self, mode):
        exp = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, threat_plan=_plan(),
                 aggregation_rule="median", aggregation_mode=mode),
        )
        exp.run()
        assert len(exp.history) == exp.config.rounds

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_fedprophet_threat_bit_identity_on_a_lazy_population(self, mode):
        cfg = dict(
            threat_plan=_plan("gaussian"), aggregation_rule="trimmed_mean",
            aggregation_mode=mode,
        )
        eager = FedProphet(_task(), _builder, _cfg(FedProphetConfig, **cfg))
        eager.run()
        lazy = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, client_materialisation="lazy",
                 client_cache_size=2, **cfg),
        )
        lazy.run()
        _assert_states_equal(_state(eager), _state(lazy))
        assert eager.async_log == lazy.async_log

    def test_fedprophet_backdoor_refuses_prefix_cache(self):
        with pytest.raises(ValueError, match="use_prefix_cache"):
            FedProphet(
                _task(), _builder,
                _cfg(FedProphetConfig, threat_plan=_plan("backdoor")),
            )
        exp = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, threat_plan=_plan("backdoor"),
                 use_prefix_cache=False),
        )
        exp.run()
        assert len(exp.history) == exp.config.rounds


class TestThreatsComposeWithEngine:
    def test_threats_compose_with_faults(self):
        exp = _run_jfat(
            _plan("label_flip"), "median",
            fault_plan=FaultPlan(seed=1, dropout_prob=0.3),
        )
        assert len(exp.history) == exp.config.rounds

    def test_threats_compose_with_resume(self, tmp_path):
        plan = _plan("sign_flip")
        journal_path = str(tmp_path / "run.jsonl")
        full = _run_jfat(plan, "median", rounds=4)
        partial = JointFAT(
            _task(), _builder,
            _cfg(rounds=4, threat_plan=plan, aggregation_rule="median",
                 journal_path=journal_path, checkpoint_every=1),
        )
        partial.run(rounds=2)  # dies after round 2; checkpoint at round 2
        partial.close()
        resumed = JointFAT(
            _task(), _builder,
            _cfg(rounds=4, threat_plan=plan, aggregation_rule="median",
                 journal_path=journal_path, checkpoint_every=1),
        )
        resumed.resume(journal_path)
        _assert_states_equal(_state(full), _state(resumed))
        resumed.close()
