"""Shared fixtures: a small dataset and trained model reused across test files, and the finite-difference checker."""

from __future__ import annotations

import json

import numpy as np
import pytest

from prototta.autodiff import Tensor
from prototta.harness import SyntheticTaskSpec, generate_dataset, save_dataset, train_source_model
from prototta.model import BackboneConfig, ModelConfig, PrototypeModel, save_model


def finite_difference_grad(f, params: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate of a scalar function.

    ``params.data`` is perturbed in place one coordinate at a time and
    restored afterwards; ``f`` must be deterministic.
    """
    flat = params.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(params))
        flat[i] = orig - eps
        f_minus = float(f(params))
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return Tensor(grad.reshape(params.shape))


@pytest.fixture(scope="session")
def tiny_dataset():
    spec = SyntheticTaskSpec(samples_per_split=(400, 2048))
    return generate_dataset(spec)


@pytest.fixture(scope="session")
def tiny_model(tiny_dataset):
    model, stats = train_source_model(tiny_dataset, epochs=3, seed=0)
    assert stats["clean_accuracy"] > 0.9
    return model


@pytest.fixture(scope="session")
def saved_files(tmp_path_factory, tiny_model, tiny_dataset):
    root = tmp_path_factory.mktemp("artifacts")
    model_path = root / "model.ptta"
    data_path = root / "data.pttd"
    save_model(tiny_model, model_path)
    save_dataset(tiny_dataset, data_path)
    return {"model": model_path, "dataset": data_path, "root": root}


@pytest.fixture()
def small_model():
    """An untrained model small enough for finite-difference sweeps."""
    config = ModelConfig(
        backbone=BackboneConfig(input_dim=8, hidden_dims=(16,), has_onexone=True),
        num_classes=3,
        protos_per_class=2,
        sub_prototypes=2,
    )
    return PrototypeModel(config, seed=0)


@pytest.fixture(scope="session")
def unit_cosines():
    """n x P x K cosines of every feature row with every sub-prototype, by einsum."""

    def cosines(features: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
        feats = features / np.linalg.norm(features, axis=1, keepdims=True)
        protos = prototypes / np.linalg.norm(prototypes, axis=-1, keepdims=True)
        return np.einsum("nd,pkd->npk", feats, protos)

    return cosines


@pytest.fixture()
def rewrite_header():
    """Replace the JSON header of a saved container with ``edit(header)``."""

    def rewrite(path, magic: bytes, edit):
        raw = path.read_bytes()
        start = len(magic) + 8
        end = start + int.from_bytes(raw[len(magic) : start], "little")
        header = json.dumps(edit(json.loads(raw[start:end]))).encode("utf-8")
        path.write_bytes(raw[: len(magic)] + len(header).to_bytes(8, "little") + header + raw[end:])

    return rewrite


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
