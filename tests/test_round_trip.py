"""Every config field survives its file format: JSON for plans, containers for models and data."""

from __future__ import annotations

from dataclasses import MISSING, fields

import pytest

from prototta.adapt import TTAConfig
from prototta.bench import BenchmarkPlan
from prototta.harness import SyntheticTaskSpec, generate_dataset, load_dataset, save_dataset
from prototta.model import BackboneConfig, MappingScheme, ModelConfig, PrototypeModel, load_model, save_model


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
