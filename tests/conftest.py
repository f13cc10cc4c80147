"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.bench import MB, reference_data, reference_system
from repro.models.zoo import build_model


@pytest.fixture(scope="session")
def tiny_dataset():
    """The reference workload's data: a 4-class 16x16 dataset small
    enough for real training in tests (240/60/60 samples)."""
    return reference_data()


@pytest.fixture(scope="session")
def served_system(tiny_dataset):
    """A NeuroFlux system trained well enough to exercise serving cascades.

    Session-scoped: serving only reads the trained weights, so the tests
    in the ``test_serving_*`` modules can share one training run.
    """
    system = reference_system(tiny_dataset, width=0.125, budget=16 * MB)
    system.run(epochs=5)
    return system


@pytest.fixture()
def small_vgg():
    return build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=3
    )


@pytest.fixture()
def small_resnet():
    return build_model(
        "resnet18", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=3
    )


@pytest.fixture()
def small_mobilenet():
    return build_model(
        "mobilenet", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=3
    )
