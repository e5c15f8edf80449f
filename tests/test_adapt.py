"""Adaptation methods: config, filtering, losses, single steps, streams."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prototta.adapt import (
    SampleBlock,
    _apply_consensus,
    TTAConfig,
    adapt_batch,
    binary_entropy,
    block_records,
    geometric_filter,
    hybrid_loss,
    init_optimizer,
    iter_batches,
    prototta_loss,
    run_stream,
    shannon_entropy_rows,
    tent_loss,
)
from prototta.autodiff import Tensor
from prototta.bench import method_presets
from prototta.errors import ConfigError, ContractError, DomainError, EmptyReliableSetError, ShapeError
from prototta.metrics import dump_records
from prototta.model import model_forward


def forward_eval(model, x):
    return model_forward(model, x, use_batch_stats=True)


@pytest.fixture()
def batch(tiny_dataset, rng):
    idx = rng.permutation(len(tiny_dataset.test_x))[:64]
    x = tiny_dataset.test_x[idx] + rng.normal(0, 0.3, (64, 32))
    return x, tiny_dataset.test_y[idx]


class TestConfig:
    def test_json_round_trip(self):
        cfg = TTAConfig(method="prototta_plus", tau_sim=0.7, consensus="mean")
        assert TTAConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TTAConfig.from_dict({"method": "tent", "momentum": 0.9})
        # settings that are constants now: a config saved with one is refused by name
        for key, value in [
            ("hybrid_weights", [0.7, 0.3]),
            ("beta1", 0.9),
            ("beta2", 0.999),
            ("adam_eps", 1e-8),
            ("batch_size", 128),
            ("episodic", False),
        ]:
            with pytest.raises(ConfigError, match=re.escape(f"unknown TTAConfig keys: ['{key}']")):
                TTAConfig.from_dict({"method": "prototta", key: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "eata"},
            {"tau_sim": 0.0},
            {"tau_sim": 1.0},
            {"lr": 0.0},
            {"param_mode": "heads"},
            {"consensus": "median"},
            {"weighting": "squared"},
            {"entropy_cap": -1.0},
            {"use_entropy_constraint": "false"},
            {"lr": True},
            {"lr": math.nan},
            {"lr": math.inf},
            {"entropy_cap": math.nan},
            {"entropy_cap": math.inf},
            {"entropy_cap": True},
            {"tau_sim": math.nan},
            {"tau_sim": True},
            {"tau_sim": "0.6"},
            {"lr": -1e-3},
            {"lr": "1e-3"},
            {"method": 3},
            {"method": None},
            {"param_mode": None},
            {"consensus": 1},
            {"target_scope": "class_only"},
            {"target_scope": None},
            {"weighting": None},
            {"use_entropy_constraint": 1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TTAConfig(**kwargs)

    def test_integer_too_large_for_a_float_rejected(self):
        # math.isfinite raises OverflowError on such an int; it is refused as any other non-finite real
        with pytest.raises(ConfigError, match="lr must be finite real, got 1000"):
            TTAConfig.from_json('{"lr": 1%s}' % ("0" * 400))

    def test_entropy_cap_default_is_half_max(self):
        assert TTAConfig().resolved_entropy_cap(5) == pytest.approx(0.5 * math.log(5))
        assert TTAConfig(entropy_cap=0.2).resolved_entropy_cap(5) == 0.2


class TestEntropies:
    def test_binary_entropy_identities(self):
        assert abs(binary_entropy(Tensor(np.array([0.5]))).data[0] - math.log(2)) < 1e-12
        eps = 1e-7
        assert binary_entropy(Tensor(np.array([eps]))).data[0] < 2e-6
        assert binary_entropy(Tensor(np.array([1 - eps]))).data[0] < 2e-6

    def test_binary_entropy_symmetric(self, rng):
        s = rng.uniform(0.01, 0.99, 50)
        np.testing.assert_allclose(
            binary_entropy(Tensor(s)).data, binary_entropy(Tensor(1.0 - s)).data, atol=1e-12
        )

    def test_shannon_entropy_of_uniform_rows(self):
        for c in (2, 5, 17):
            rows = np.full((3, c), 1.0 / c)
            np.testing.assert_allclose(shannon_entropy_rows(rows), math.log(c), atol=1e-12)


class TestGeometricFilter:
    def test_threshold_monotonicity(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        sizes = []
        for tau in (0.3, 0.5, 0.7, 0.9):
            rel = geometric_filter(out, TTAConfig(tau_sim=tau), tiny_model.class_of)
            sizes.append(set(rel.indices.tolist()))
        for smaller, larger in zip(sizes[1:], sizes[:-1]):
            assert smaller <= larger

    def test_predicate_holds_for_selected(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        cfg = TTAConfig(tau_sim=0.8, use_entropy_constraint=True)
        rel = geometric_filter(out, cfg, tiny_model.class_of)
        cap = cfg.resolved_entropy_cap(tiny_model.config.num_classes)
        for i in rel.indices:
            assert out.mapped_sims.data[i].max() > cfg.tau_sim
            assert shannon_entropy_rows(out.probs.data[i : i + 1])[0] < cap

    def test_entropy_constraint_only_shrinks(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        plain = geometric_filter(out, TTAConfig(tau_sim=0.6), tiny_model.class_of)
        capped = geometric_filter(
            out, TTAConfig(tau_sim=0.6, use_entropy_constraint=True), tiny_model.class_of
        )
        assert set(capped.indices.tolist()) <= set(plain.indices.tolist())

    def test_target_sets_follow_pseudo_labels(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        rel = geometric_filter(out, TTAConfig(tau_sim=0.6), tiny_model.class_of)
        assert len(rel) > 0
        for i, targets in zip(rel.indices, rel.target_sets):
            assert len(targets) > 0
            assert (tiny_model.class_of[targets] == out.pseudo_labels[i]).all()
        all_scope = geometric_filter(
            out, TTAConfig(tau_sim=0.6, target_scope="all_prototypes"), tiny_model.class_of
        )
        for targets in all_scope.target_sets:
            assert len(targets) == len(tiny_model.class_of)

    def test_confidences_are_max_probs(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        rel = geometric_filter(out, TTAConfig(tau_sim=0.6), tiny_model.class_of)
        np.testing.assert_allclose(
            rel.confidences, out.probs.data[rel.indices].max(axis=1), atol=1e-15
        )


class TestLosses:
    def test_prototta_loss_bounds(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        cfg = TTAConfig(tau_sim=0.6, weighting="both")
        rel = geometric_filter(out, cfg, tiny_model.class_of)
        assert len(rel) > 0
        loss = prototta_loss(out, rel, tiny_model.head, cfg).item()
        assert 0.0 <= loss <= math.log(2) * rel.confidences.max() + 1e-12

    def test_empty_reliable_set_is_contract_error(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        cfg = TTAConfig(tau_sim=0.6, use_entropy_constraint=True, entropy_cap=1e-12)
        rel = geometric_filter(out, cfg, tiny_model.class_of)
        assert len(rel) == 0
        with pytest.raises(EmptyReliableSetError):
            prototta_loss(out, rel, tiny_model.head, cfg)
        with pytest.raises(EmptyReliableSetError):
            hybrid_loss(out, rel, tiny_model.head, cfg)

    def test_hybrid_is_weighted_sum_of_parts(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        cfg = TTAConfig(method="prototta_plus", tau_sim=0.6)
        rel = geometric_filter(out, cfg, tiny_model.class_of)
        assert len(rel) > 0
        proto = prototta_loss(out, rel, tiny_model.head, cfg).item()
        entropies = shannon_entropy_rows(out.probs.data[rel.indices])
        expected = 0.7 * proto + 0.3 * entropies.mean()
        assert hybrid_loss(out, rel, tiny_model.head, cfg).item() == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("scope", ["target_only", "all_prototypes"])
    @pytest.mark.parametrize("weighting", ["none", "importance_only", "confidence_only", "both"])
    def test_losses_match_per_sample_weights_with_a_zeroed_class(self, tiny_model, batch, weighting, scope):
        out = forward_eval(tiny_model, batch[0])
        cfg = TTAConfig(method="prototta_plus", tau_sim=0.6, weighting=weighting, target_scope=scope)
        rel = geometric_filter(out, cfg, tiny_model.class_of)
        assert len(rel) > 0
        labels = out.pseudo_labels[rel.indices]
        # zero the own-prototype weights of the class most selected samples predict, so
        # their importance total is 0 under target_only and the uniform fallback applies
        zeroed = np.bincount(labels).argmax()
        head = Tensor(tiny_model.head.data.copy())
        head.data[zeroed, tiny_model.class_of == zeroed] = 0.0
        coeff = np.zeros(out.mapped_sims.shape)
        for i, label, conf in zip(rel.indices, labels, rel.confidences):
            if scope == "all_prototypes":
                targets = np.arange(len(tiny_model.class_of))
            else:
                targets = np.flatnonzero(tiny_model.class_of == label)
            w = np.full(len(targets), 1.0 / len(targets))
            importance = np.abs(head.data[label, targets])
            if weighting in ("importance_only", "both") and importance.sum() > 0:
                w = importance / importance.sum()
            coeff[i, targets] = (conf if weighting in ("confidence_only", "both") else 1.0) * w
        coeff /= len(rel)
        proto = (coeff * binary_entropy(out.mapped_sims).data).sum()
        mask = np.zeros(len(out.probs.data))
        mask[rel.indices] = 1.0 / len(rel)
        logit = (mask * shannon_entropy_rows(out.probs.data)).sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert prototta_loss(out, rel, head, cfg).item() == proto
            assert hybrid_loss(out, rel, head, cfg).item() == 0.7 * proto + 0.3 * logit

    def test_tent_loss_equals_mean_entropy(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        expected = shannon_entropy_rows(out.probs.data).mean()
        assert tent_loss(out).item() == pytest.approx(expected, abs=1e-12)

    def test_weighting_modes_change_coefficients(self, tiny_model, batch):
        out = forward_eval(tiny_model, batch[0])
        values = {}
        for mode in ("none", "importance_only", "confidence_only", "both"):
            cfg = TTAConfig(tau_sim=0.6, weighting=mode)
            rel = geometric_filter(out, cfg, tiny_model.class_of)
            values[mode] = prototta_loss(out, rel, tiny_model.head, cfg).item()
        assert len(set(values.values())) >= 3  # the modes are genuinely different


class TestAdaptBatch:
    def test_unadapted_leaves_parameters_bit_identical(self, tiny_model, batch):
        model = tiny_model.copy()
        before = model.state_snapshot()
        outputs, record = adapt_batch(model, batch, TTAConfig(method="unadapted"), None)
        after = model.state_snapshot()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert record.skipped and record.selected == 0 and record.loss is None

    def test_empty_reliable_set_skips_update(self, tiny_model, batch):
        model = tiny_model.copy()
        cfg = TTAConfig(method="prototta", use_entropy_constraint=True, entropy_cap=1e-12)
        model.set_trainable(model.adaptable_param_names(cfg.param_mode))
        state = init_optimizer([p for _, p in model.adaptable_params(cfg.param_mode)])
        before = model.state_snapshot()
        _, record = adapt_batch(model, batch, cfg, state)
        after = model.state_snapshot()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert record.skipped and record.selected == 0

    def test_missing_optimizer_state_is_contract_error(self, tiny_model, batch):
        with pytest.raises(ContractError):
            adapt_batch(tiny_model.copy(), batch, TTAConfig(method="tent"), None)

    def test_untrainable_parameters_are_contract_error(self, tiny_model, batch):
        # never set trainable, so no parameter is on the tape and none gets a gradient
        model = tiny_model.copy()
        cfg = TTAConfig(method="tent")
        state = init_optimizer([p for _, p in model.adaptable_params(cfg.param_mode)])
        before = model.state_snapshot()
        with pytest.raises(ContractError, match="no gradient"):
            adapt_batch(model, batch, cfg, state)
        assert state.t == 0
        after = model.state_snapshot()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def _step(self, model, batch, cfg):
        model.set_trainable(model.adaptable_param_names(cfg.param_mode))
        state = init_optimizer([p for _, p in model.adaptable_params(cfg.param_mode)])
        return adapt_batch(model, batch, cfg, state)

    def test_predictions_are_pre_update(self, tiny_model, batch):
        frozen = tiny_model.copy()
        reference = forward_eval(frozen, batch[0]).pseudo_labels
        model = tiny_model.copy()
        outputs, record = self._step(model, batch, TTAConfig(method="prototta", lr=0.05))
        assert not record.skipped
        assert np.array_equal(outputs.pseudo_labels, reference)

    def test_one_step_reduces_loss(self, tiny_model, batch):
        model = tiny_model.copy()
        cfg = TTAConfig(method="prototta", tau_sim=0.6, lr=1e-3)
        out_before = forward_eval(model, batch[0])
        rel = geometric_filter(out_before, cfg, model.class_of)
        loss_before = prototta_loss(out_before, rel, model.head, cfg).item()
        self._step(model, batch, cfg)
        out_after = forward_eval(model, batch[0])
        rel_after = geometric_filter(out_after, cfg, model.class_of)
        loss_after = prototta_loss(out_after, rel_after, model.head, cfg).item()
        assert loss_after < loss_before

    def test_frozen_parameters_never_move(self, tiny_model, batch):
        for method in ("tent", "prototta", "prototta_plus"):
            model = tiny_model.copy()
            cfg = TTAConfig(method=method, param_mode="all_adaptive", lr=0.05)
            _, record = self._step(model, batch, cfg)
            assert not record.skipped
            assert np.array_equal(model.prototypes.data, tiny_model.prototypes.data)
            assert np.array_equal(model.head.data, tiny_model.head.data)

    def test_update_confined_to_param_mode(self, tiny_model, batch):
        model = tiny_model.copy()
        cfg = TTAConfig(method="tent", param_mode="norm_only", lr=0.05)
        _, record = self._step(model, batch, cfg)
        assert not record.skipped
        norm_names = set(model.adaptable_param_names("norm_only"))
        for name, tensor in model.params.items():
            same = np.array_equal(tensor.data, tiny_model.params[name].data)
            assert same != (name in norm_names), name


def plain_stream(model, batches, cfg):
    """``run_stream``'s results as a plain loop: per batch, a clean copy's forward and then ``adapt_batch``.

    Returns the step records, each batch's (clean activations, adapted activations, clean predictions,
    adapted predictions, labels) and the adapted model. The prototype constants are computed per forward.
    """
    work = _apply_consensus(model, cfg)
    clean = work.copy()
    state = None
    if cfg.method != "unadapted":
        work.set_trainable(work.adaptable_param_names(cfg.param_mode))
        state = init_optimizer([p for _, p in work.adaptable_params(cfg.param_mode)])
    records, blocks = [], []
    for index, (x, y) in enumerate(batches):
        ref = model_forward(clean, x, use_batch_stats=False)
        out, record = adapt_batch(work, (x, y), cfg, state, index=index, clean_predictions=ref.pseudo_labels)
        records.append(record)
        labels = np.full(len(x), -1, dtype=np.int64) if y is None else np.array(y, dtype=np.int64)
        blocks.append((ref.agg_sims.data, out.agg_sims.data, ref.pseudo_labels, out.pseudo_labels, labels))
    work.set_trainable([])
    return records, blocks, work


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRunStream:
    def _batches(self, dataset, rng, count=3, size=64, noise=0.3):
        idx = rng.permutation(len(dataset.test_x))[: count * size]
        x = dataset.test_x[idx] + rng.normal(0, noise, (count * size, 32))
        return x, dataset.test_y[idx]

    def test_continual_state_accumulates(self, tiny_model, tiny_dataset, rng):
        x, y = self._batches(tiny_dataset, rng, count=1)
        stream = [(x, y)] * 3
        cfg = TTAConfig(method="prototta", lr=0.05)
        report = run_stream(tiny_model.copy(), stream, cfg)
        losses = [r.loss for r in report.records]
        assert losses[2] < losses[0]

    def test_adapted_state_propagates_to_caller(self, tiny_model, tiny_dataset, rng):
        x, y = self._batches(tiny_dataset, rng)
        model = tiny_model.copy()
        run_stream(model, iter_batches(x, y, 64), TTAConfig(method="tent", lr=0.05))
        changed = any(
            not np.array_equal(model.params[n].data, tiny_model.params[n].data)
            for n in model.adaptable_param_names("norm_only")
        )
        assert changed

    def test_failed_stream_leaves_the_model_frozen(self, tiny_model, tiny_dataset):
        model = tiny_model.copy()
        x = tiny_dataset.test_x[:128].copy()
        x[2 * 32 + 5, 3] = np.nan  # in the third batch
        with pytest.raises(DomainError):
            run_stream(model, iter_batches(x, None, 32), TTAConfig(method="tent"))
        assert all(not t.requires_grad and t.grad is None for t in model.params.values())
        # the updates of the two batches before the failing one stay
        for name in ("backbone.0.norm.gamma", "backbone.0.norm.beta"):
            assert not np.array_equal(model.params[name].data, tiny_model.params[name].data)

    @pytest.mark.parametrize("method", ["unadapted", "tent", "prototta", "prototta_plus"])
    def test_a_batch_without_rows_is_a_shape_error(self, tiny_model, tiny_dataset, method):
        # not an update of loss nan (tent) nor a bare numpy error from mapping an empty block
        model = tiny_model.copy()
        x, y = tiny_dataset.test_x, tiny_dataset.test_y
        with pytest.raises(ShapeError, match="n >= 1"):
            run_stream(model, [(x[:0], y[:0])], method_presets()[method])
        assert all(np.array_equal(t.data, tiny_model.params[n].data) for n, t in model.params.items())

    @pytest.mark.parametrize("method", ["prototta", "prototta_plus"])
    def test_a_stream_whose_every_batch_is_filtered_out(self, tiny_model, tiny_dataset, rng, method):
        # an entropy cap below any achievable value empties every reliable set
        cfg = replace(method_presets()[method], entropy_cap=1e-12)
        assert cfg.consensus == "mean" != tiny_model.config.aggregation  # the stream adapts a copy
        x, y = self._batches(tiny_dataset, rng)
        model = tiny_model.copy()
        before = model.state_snapshot()
        report = run_stream(model, iter_batches(x, y, 64), cfg)
        assert [(r.skipped, r.selected, r.loss) for r in report.records] == [(True, 0, None)] * 3
        assert [len(b.labels) for b in report.sample_blocks] == [64] * 3
        assert np.array_equal(np.concatenate([b.labels for b in report.sample_blocks]), y)
        after = model.state_snapshot()
        assert before.keys() == after.keys() and all(same_bits(before[k], after[k]) for k in before)

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    @pytest.mark.parametrize("method", ["unadapted", "tent", "prototta", "prototta_plus"])
    def test_stream_equals_a_plain_loop_bit_for_bit(self, tiny_model, tiny_dataset, rng, method, labeled):
        x, y = self._batches(tiny_dataset, rng)
        y = y if labeled else None
        cfg = method_presets()[method]
        model = tiny_model.copy()
        report = run_stream(model, iter_batches(x, y, 64), cfg)
        records, blocks, plain = plain_stream(tiny_model.copy(), iter_batches(x, y, 64), cfg)

        def fields(r):  # every field but the duration, as text so that NaN equals NaN
            return repr(replace(r, duration_s=0.0))

        assert [fields(r) for r in report.records] == [fields(r) for r in records]
        if method != "unadapted":
            assert sum(not r.skipped for r in records) > 0
        got = [
            (b.clean_activations, b.adapted_activations, b.clean_predictions, b.adapted_predictions, b.labels)
            for b in report.sample_blocks
        ]
        assert len(got) == len(blocks) == 3
        assert all(same_bits(a, b) for mine, theirs in zip(got, blocks) for a, b in zip(mine, theirs))
        assert model.param_names() == plain.param_names()
        assert all(same_bits(model.params[n].data, plain.params[n].data) for n in model.param_names())

    def test_consensus_stream_keeps_caller_config_and_returns_state(self, tiny_model, tiny_dataset, rng):
        x, y = self._batches(tiny_dataset, rng)
        cfg = TTAConfig(method="prototta", consensus="mean", param_mode="all_adaptive", lr=0.05)
        model = tiny_model.copy()
        config_before = model.config
        assert config_before.aggregation != "mean"
        report = run_stream(model, iter_batches(x, y, 64), cfg)
        assert model.config is config_before
        assert report.selected_samples > 0
        # the same stream on a model whose own config already pools by mean
        baked = tiny_model.copy(replace(config_before, aggregation="mean", agg_k=None))
        run_stream(baked, iter_batches(x, y, 64), replace(cfg, consensus=None))
        for name in model.param_names():
            assert np.array_equal(model.params[name].data, baked.params[name].data), name
        assert any(
            not np.array_equal(model.params[n].data, tiny_model.params[n].data)
            for n in model.adaptable_param_names(cfg.param_mode)
        )

    def test_report_bookkeeping(self, tiny_model, tiny_dataset, rng):
        x, y = self._batches(tiny_dataset, rng)
        report = run_stream(
            tiny_model.copy(), iter_batches(x, y, 64), TTAConfig(method="prototta")
        )
        assert report.total_samples == len(x)
        assert len(report.records) == 3
        assert [r.sample_id for r in report.sample_records] == list(range(len(x)))
        assert 0 <= report.accuracy <= 1
        preds_match = [
            r.adapted_prediction == r.ground_truth for r in report.sample_records
        ]
        assert report.accuracy == pytest.approx(np.mean(preds_match))

    def test_consensus_override_applies(self, tiny_model, tiny_dataset, rng):
        x, y = self._batches(tiny_dataset, rng, count=1)
        base = run_stream(
            tiny_model.copy(), [(x, y)], TTAConfig(method="unadapted")
        ).sample_records
        mean = run_stream(
            tiny_model.copy(), [(x, y)], TTAConfig(method="unadapted", consensus="mean")
        ).sample_records
        assert not np.allclose(
            np.stack([r.adapted_activations for r in base]),
            np.stack([r.adapted_activations for r in mean]),
        )

    def test_unadapted_stream_records_no_selection(self, tiny_model, tiny_dataset, rng):
        x, y = self._batches(tiny_dataset, rng)
        report = run_stream(
            tiny_model.copy(), iter_batches(x, y, 64), TTAConfig(method="unadapted")
        )
        assert report.selected_samples == 0
        assert all(r.skipped for r in report.records)

    def _recorded_stream(self, method, tiny_model, tiny_dataset, rng, monkeypatch):
        """Run three batches of 64 and return the report and every forward's outputs."""
        calls = []

        def recording_forward(*args, **kwargs):
            calls.append(model_forward(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr("prototta.adapt.model_forward", recording_forward)
        x, y = self._batches(tiny_dataset, rng)
        return run_stream(tiny_model.copy(), iter_batches(x, y, 64), TTAConfig(method=method)), calls, y

    def test_unadapted_stream_is_its_own_clean_reference(self, tiny_model, tiny_dataset, rng, monkeypatch):
        report, calls, y = self._recorded_stream("unadapted", tiny_model, tiny_dataset, rng, monkeypatch)
        assert len(calls) == 3
        assert [r.clean_agreement for r in report.records] == [1.0, 1.0, 1.0]
        for i, r in enumerate(report.sample_records):
            out = calls[i // 64]
            block = report.sample_blocks[i // 64]
            assert block.clean_activations is block.adapted_activations
            assert block.clean_predictions is block.adapted_predictions
            assert r.clean_activations.base is r.adapted_activations.base is block.adapted_activations
            assert np.array_equal(r.adapted_activations, out.agg_sims.data[i % 64])
            assert np.array_equal(r.mapped_activations, out.mapped_sims.data[i % 64])
            assert r.clean_prediction == r.adapted_prediction == out.pseudo_labels[i % 64]
            assert r.ground_truth == y[i] and type(r.ground_truth) is int

    def test_sample_records_are_rows_of_each_batch_outputs(self, tiny_model, tiny_dataset, rng, monkeypatch):
        report, calls, y = self._recorded_stream("prototta", tiny_model, tiny_dataset, rng, monkeypatch)
        assert len(calls) == 6  # a clean forward, then the adapting one, per batch
        for i, r in enumerate(report.sample_records):
            clean, adapted, j = calls[2 * (i // 64)], calls[2 * (i // 64) + 1], i % 64
            assert np.array_equal(r.clean_activations, clean.agg_sims.data[j])
            assert np.array_equal(r.adapted_activations, adapted.agg_sims.data[j])
            assert np.array_equal(r.mapped_activations, adapted.mapped_sims.data[j])
            assert (r.clean_prediction, r.adapted_prediction) == (clean.pseudo_labels[j], adapted.pseudo_labels[j])
            assert not np.shares_memory(r.adapted_activations, adapted.agg_sims.data)

    def test_sample_records_are_views_of_the_batch_blocks(self, tiny_model, tiny_dataset, rng, monkeypatch):
        for method in ("unadapted", "prototta"):
            report, calls, _ = self._recorded_stream(method, tiny_model, tiny_dataset, rng, monkeypatch)
            assert len(report.sample_blocks) == 3
            assert report.sample_records is report.sample_records  # built once
            forwards = len(calls) // 3  # per batch: the adapting forward, after a clean one when it adapts
            for i, r in enumerate(report.sample_records):
                block, j = report.sample_blocks[i // 64], i % 64
                assert r.clean_activations.base is block.clean_activations
                assert r.adapted_activations.base is block.adapted_activations
                # derived from the row and the block's range, the same bits as the forward's
                mapped = calls[forwards * (i // 64) + forwards - 1].mapped_sims.data[j]
                assert r.mapped_activations.tobytes() == mapped.tobytes()
                assert r.mapping is block.mapping
                assert r.log_inverse_range is block.log_inverse_range  # one range per block, not per row
                if method == "prototta":
                    assert not np.shares_memory(r.clean_activations, r.adapted_activations)
                assert (r.clean_prediction, r.adapted_prediction, r.ground_truth) == (
                    block.clean_predictions[j], block.adapted_predictions[j], block.labels[j]
                )
            for block in report.sample_blocks:
                if method == "unadapted":  # one forward, so one copy of each output
                    assert block.clean_activations is block.adapted_activations
                    assert block.clean_predictions is block.adapted_predictions
                else:
                    assert not np.shares_memory(block.clean_activations, block.adapted_activations)
                    assert not np.shares_memory(block.clean_predictions, block.adapted_predictions)

    @staticmethod
    def _block_arrays(report, calls):
        """Every distinct array of the report's blocks, and every forward output array."""
        arrays = {
            id(a): a
            for b in report.sample_blocks
            for a in (b.clean_activations, b.adapted_activations, b.clean_predictions, b.adapted_predictions, b.labels)
        }
        return list(arrays.values()), [a for out in calls for a in (out.agg_sims.data, out.pseudo_labels)]

    def test_an_unadapted_block_holds_one_array_per_output(self, tiny_model, tiny_dataset, rng, monkeypatch):
        report, calls, _ = self._recorded_stream("unadapted", tiny_model, tiny_dataset, rng, monkeypatch)
        for block in report.sample_blocks:
            assert block.clean_activations is block.adapted_activations
            assert block.clean_predictions is block.adapted_predictions
        owned, forward = self._block_arrays(report, calls)
        assert len(owned) == 3 * len(report.sample_blocks)  # activations, predictions, labels
        for i, a in enumerate(owned):
            assert not any(np.shares_memory(a, b) for b in owned[i + 1 :] + forward)

    @pytest.mark.parametrize("method", ["tent", "prototta", "prototta_plus"])
    def test_adapting_blocks_share_no_memory(self, method, tiny_model, tiny_dataset, rng, monkeypatch):
        report, calls, _ = self._recorded_stream(method, tiny_model, tiny_dataset, rng, monkeypatch)
        owned, forward = self._block_arrays(report, calls)
        assert len(owned) == 5 * len(report.sample_blocks) == 15
        for i, a in enumerate(owned):
            assert not any(np.shares_memory(a, b) for b in owned[i + 1 :] + forward)

    def test_an_unadapted_block_dumps_the_bytes_of_two_copies(self, tiny_model, tiny_dataset, rng, tmp_path):
        x, y = self._batches(tiny_dataset, rng, count=2)
        blocks = run_stream(tiny_model.copy(), iter_batches(x, y, 64), TTAConfig(method="unadapted")).sample_blocks
        copies = [
            SampleBlock(
                b.clean_activations.copy(), b.adapted_activations, b.clean_predictions.copy(), b.adapted_predictions,
                b.labels, b.mapping,
            )
            for b in blocks
        ]
        dump_records(block_records(blocks), tmp_path / "aliased.jsonl")
        dump_records(block_records(copies), tmp_path / "copies.jsonl")
        assert (tmp_path / "aliased.jsonl").read_bytes() == (tmp_path / "copies.jsonl").read_bytes()

    def test_unlabelled_stream_records_minus_one_and_nan_accuracy(self, tiny_model, tiny_dataset, rng):
        x, _ = self._batches(tiny_dataset, rng, count=2)
        report = run_stream(tiny_model.copy(), iter_batches(x, None, 64), TTAConfig(method="prototta"))
        assert math.isnan(report.accuracy)
        assert all(math.isnan(r.accuracy) for r in report.records)
        assert [r.ground_truth for r in report.sample_records] == [-1] * len(x)
        assert all(b.labels.dtype == np.int64 for b in report.sample_blocks)

    def test_empty_stream_has_no_sample_records(self, tiny_model):
        for method in ("unadapted", "prototta"):
            report = run_stream(tiny_model.copy(), [], TTAConfig(method=method))
            assert report.sample_blocks == [] and report.sample_records == []
            assert report.total_samples == 0 and math.isnan(report.accuracy)

    def test_collect_samples_off_keeps_no_blocks(self, tiny_model, tiny_dataset, rng):
        x, y = self._batches(tiny_dataset, rng, count=2)
        report = run_stream(tiny_model.copy(), iter_batches(x, y, 64), TTAConfig(), collect_samples=False)
        assert report.sample_blocks == [] and report.sample_records == []
        assert report.total_samples == len(x)


class TestIterBatches:
    @given(st.integers(1, 50), st.integers(1, 17))
    @settings(max_examples=25, deadline=None)
    def test_partition_is_exact(self, n, size):
        x = np.arange(n, dtype=np.float64)[:, None]
        parts = list(iter_batches(x, x[:, 0], size))
        assert sum(len(b[0]) for b in parts) == n
        assert all(len(b[0]) <= size for b in parts)
        np.testing.assert_array_equal(np.concatenate([b[0][:, 0] for b in parts]), x[:, 0])
