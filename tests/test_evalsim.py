"""Tests for the inference-throughput evaluation."""

import pytest

from repro.core import NeuroFlux, NeuroFluxConfig, build_aux_heads
from repro.core.early_exit import MultiExitModel
from repro.evalsim import (
    convnet_throughput,
    exit_model_throughput,
    inference_throughput,
    throughput_gain,
)
from repro.hw import AGX_ORIN, JETSON_NANO, RASPBERRY_PI_4B, XAVIER_NX
from repro.models import build_model


class TestInferenceThroughput:
    def test_positive(self):
        r = inference_throughput(1e9, 12288, 20, AGX_ORIN, batch_size=64)
        assert r.images_per_second > 0
        assert r.batch_size == 64

    def test_platform_ordering(self):
        """Table 3: the same model runs faster on faster platforms."""
        results = [
            inference_throughput(1e8, 12288, 20, p, 64).images_per_second
            for p in (RASPBERRY_PI_4B, JETSON_NANO, XAVIER_NX, AGX_ORIN)
        ]
        assert results == sorted(results)

    def test_fewer_flops_faster(self):
        fast = inference_throughput(1e8, 12288, 20, JETSON_NANO, 64)
        slow = inference_throughput(1e9, 12288, 20, JETSON_NANO, 64)
        assert fast.images_per_second > slow.images_per_second


class TestModelThroughput:
    @pytest.fixture(scope="class")
    def model(self):
        return build_model("vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125)

    def test_convnet_throughput(self, model):
        r = convnet_throughput(model, AGX_ORIN)
        assert r.images_per_second > 0
        assert r.model_name == "vgg11"

    def test_exit_model_throughput_gain(self, model):
        """Figure 14: the early-exit model out-runs the full model."""
        heads = build_aux_heads(model, rule="aan")
        stages = [s.module for s in model.local_layers()[:2]]
        exit_model = MultiExitModel(stages, [1], [heads[1]], name="exit")
        full = convnet_throughput(model, AGX_ORIN)
        early = exit_model_throughput(exit_model, 3, (16, 16), AGX_ORIN)
        gain = throughput_gain(full, early)
        assert gain > 1.2

    def test_gain_consistent_across_platforms(self, model):
        heads = build_aux_heads(model, rule="aan")
        stages = [s.module for s in model.local_layers()[:2]]
        exit_model = MultiExitModel(stages, [1], [heads[1]], name="exit")
        for platform in (RASPBERRY_PI_4B, JETSON_NANO, XAVIER_NX, AGX_ORIN):
            full = convnet_throughput(model, platform)
            early = exit_model_throughput(exit_model, 3, (16, 16), platform)
            assert throughput_gain(full, early) > 1.0
