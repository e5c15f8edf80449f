"""Every config field survives its file format: JSON for plans, containers for models and data, and every
activation record field its records line."""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prototta.adapt import SampleBlock, TTAConfig, block_records
from prototta.autodiff import Tensor
from prototta.bench import BenchmarkPlan, render_boards
from prototta.harness import SyntheticTaskSpec, generate_dataset, load_dataset, save_dataset
from prototta.metrics import dump_records, load_records
from prototta.model import (
    BackboneConfig,
    MappingScheme,
    ModelConfig,
    PrototypeModel,
    load_model,
    map_activations,
    save_model,
)


def assert_no_default_fields(obj) -> None:
    """A field left at its default would round-trip even if the format dropped it."""
    for f in fields(obj):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        assert getattr(obj, f.name) != default, f.name


def non_default_tta_config() -> TTAConfig:
    cfg = TTAConfig(
        method="prototta_plus",
        tau_sim=0.7,
        use_entropy_constraint=True,
        entropy_cap=0.4,
        param_mode="all_adaptive",
        consensus="max",
        target_scope="all_prototypes",
        weighting="none",
        lr=2e-3,
    )
    assert_no_default_fields(cfg)
    return cfg


def test_tta_config_json_round_trip():
    cfg = non_default_tta_config()
    assert TTAConfig.from_json(cfg.to_json()) == cfg


def non_default_plan() -> BenchmarkPlan:
    plan = BenchmarkPlan(
        model_path="source.ptta",
        dataset_path="task.pttd",
        output_dir="reports",
        corruptions=("impulse_noise:2", "contrast_scale:4"),
        methods=(("custom", non_default_tta_config()), ("tent", TTAConfig(method="tent"))),
        seeds=(7, 3),
        num_batches=2,
        record_batches=2,
    )
    assert_no_default_fields(plan)
    return plan


def non_default_model_config() -> ModelConfig:
    config = ModelConfig(
        backbone=BackboneConfig(
            input_dim=6,
            hidden_dims=(8, 4),
            norm_kind="batch_norm",
            has_attention_bias=False,
            has_onexone=True,
        ),
        num_classes=3,
        protos_per_class=2,
        sub_prototypes=3,
        aggregation="max",
        agg_k=2,
        mapping=MappingScheme(kind="temp_sigmoid", temperature=2.5),
    )
    for obj in (config, config.backbone, config.mapping):
        assert_no_default_fields(obj)
    return config


def non_default_task_spec() -> SyntheticTaskSpec:
    spec = SyntheticTaskSpec(
        num_classes=3,
        input_dim=6,
        clusters_per_class=2,
        cluster_spread=0.05,
        samples_per_split=(30, 40),
        seed=7,
    )
    assert_no_default_fields(spec)
    return spec


def test_benchmark_plan_json_round_trip():
    plan = non_default_plan()
    assert BenchmarkPlan.from_json(plan.to_json()) == plan


@pytest.mark.parametrize(
    "make",
    [
        non_default_tta_config,
        non_default_plan,
        non_default_model_config,
        lambda: non_default_model_config().backbone,
        lambda: non_default_model_config().mapping,
        non_default_task_spec,
    ],
    ids=["TTAConfig", "BenchmarkPlan", "ModelConfig", "BackboneConfig", "MappingScheme", "SyntheticTaskSpec"],
)
def test_every_config_json_round_trip(make):
    obj = make()
    assert type(obj).from_json(obj.to_json()) == obj


def test_model_config_survives_save_and_load(tmp_path):
    config = non_default_model_config()
    path = tmp_path / "model.ptta"
    save_model(PrototypeModel(config, seed=0), path)
    assert load_model(path).config == config


def test_task_spec_survives_save_and_load(tmp_path):
    spec = non_default_task_spec()
    path = tmp_path / "data.pttd"
    save_dataset(generate_dataset(spec), path)
    assert load_dataset(path).spec == spec


# a log-inverse model with 3 classes of 2 prototypes each
BOARD_MODEL = PrototypeModel(ModelConfig(BackboneConfig(input_dim=2), num_classes=3, protos_per_class=2), seed=0)
# cosines at the ends of [-1, 1], signed zeros, a subnormal and one ulp inside 1
EDGE_COSINES = st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324, 0.9999999999999999, -0.5])


@st.composite
def sample_blocks(draw):
    """Blocks of a stream as ``run_stream`` makes them. Each block's clean fields are its adapted arrays (a
    stream that does not adapt), bitwise copies of them (batch 0 of an adapting stream) or drawn; one block's
    cosines are all one value but for the signs of zeros, so its kernel values span at most 1e-12."""
    P, C = len(BOARD_MODEL.class_of), BOARD_MODEL.head.shape[0]
    cosines = st.floats(-1.0, 1.0) | EDGE_COSINES
    blocks = []
    count = draw(st.integers(1, 4))
    flat = draw(st.integers(0, count - 1))
    for b in range(count):
        n = draw(st.integers(1, 4))
        if b == flat:
            value = draw(cosines)
            signs = draw(st.lists(st.booleans(), min_size=n * P, max_size=n * P))
            adapted = np.where(np.reshape(signs, (n, P)) & (value == 0), -value, value)
        else:
            adapted = np.array(draw(st.lists(st.lists(cosines, min_size=P, max_size=P), min_size=n, max_size=n)))
        preds = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)), dtype=np.int64)
        labels = np.array(draw(st.lists(st.integers(-1, C - 1), min_size=n, max_size=n)), dtype=np.int64)
        kind = draw(st.sampled_from(["one forward", "copies", "drawn"]))
        if kind == "one forward":
            clean, clean_preds = adapted, preds
        elif kind == "copies":
            clean, clean_preds = adapted.copy(), preds.copy()
        else:
            clean = np.array(draw(st.lists(st.lists(cosines, min_size=P, max_size=P), min_size=n, max_size=n)))
            clean_preds = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)), dtype=np.int64)
        blocks.append(SampleBlock(clean, adapted, clean_preds, preds, labels, BOARD_MODEL.config.mapping))
    return blocks


@given(blocks=sample_blocks())
@settings(max_examples=200, deadline=None)
def test_records_survive_their_file_and_give_the_same_boards(blocks, tmp_path_factory):
    records = block_records(blocks)
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    dump_records(records, path)
    loaded = load_records(path, require_range=True)
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
        for key in ("sample_id", "clean_prediction", "adapted_prediction", "ground_truth"):
            assert type(getattr(b, key)) is int and getattr(b, key) == getattr(a, key)
        for key in ("clean_activations", "adapted_activations"):
            # bytes, so that -0.0 and 0.0 differ
            assert getattr(b, key).dtype == np.float64 and getattr(b, key).tobytes() == getattr(a, key).tobytes()
        assert repr(b.log_inverse_range) == repr(a.log_inverse_range)
    P = len(BOARD_MODEL.class_of)
    texts = render_boards(records, BOARD_MODEL, k=P, method="m")
    assert render_boards(loaded, BOARD_MODEL, k=P, method="m") == texts
    # every mapped similarity on a board, and every record's, is the block's own mapping of the row, bit for bit:
    # the forward's, over the block's own kernel range
    per_block = [map_activations(Tensor(b.adapted_activations), b.mapping).data for b in blocks]
    assert any((m == 0.5).all() for m in per_block)  # the flat block
    mapped = np.concatenate(per_block)
    assert [r.mapped_activations.tobytes() for r in records] == [row.tobytes() for row in mapped]
    for row, text in zip(mapped, texts):
        for entry in json.loads(text)["prototypes"]:
            assert repr(entry["mapped_similarity"]) == repr(float(row[entry["prototype_id"]]))
