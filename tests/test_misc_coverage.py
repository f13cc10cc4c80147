"""Focused tests for remaining small behaviours."""

import numpy as np
import pytest

from repro.models import build_model, scale_width
from repro.nn import SGD, Adam, Identity
from repro.nn.module import Parameter
from repro.training.common import HistoryPoint, TrainResult


class TestNesterovAndAdamDetails:
    def test_nesterov_lookahead(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5, nesterov=True)
        p.grad[...] = [1.0]
        opt.step()
        # v = 1; update = g + mu*v = 1.5; p = -1.5
        np.testing.assert_allclose(p.data, [-1.5])

    def test_adam_weight_decay_shrinks_params(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            p.zero_grad()  # zero task gradient: only decay acts
            opt.step()
        assert abs(p.data[0]) < 10.0


class TestScaleWidth:
    def test_identity_at_one(self):
        assert scale_width(64, 1.0) == 64

    def test_floor(self):
        assert scale_width(64, 0.01) == 4
        assert scale_width(64, 0.01, minimum=8) == 8

    def test_rounding(self):
        assert scale_width(64, 0.125) == 8
        assert scale_width(100, 0.25) == 25


class TestLayerSpecProperties:
    def test_element_counts(self):
        model = build_model("vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125)
        spec = model.local_layers()[0]
        assert spec.output_elements_per_sample == (
            spec.out_channels * spec.out_hw[0] * spec.out_hw[1]
        )
        assert spec.num_parameters() == spec.module.num_parameters()


class TestTrainResultHelpers:
    def test_accuracy_at_time_interpolation_free(self):
        result = TrainResult("m", "x", "d", "p")
        result.history = [
            HistoryPoint(1.0, 1, 0.3),
            HistoryPoint(2.0, 2, 0.6),
            HistoryPoint(3.0, 3, 0.5),
        ]
        assert result.accuracy_at_time(0.5) == 0.0
        assert result.accuracy_at_time(1.5) == 0.3
        assert result.accuracy_at_time(2.5) == 0.6
        assert result.accuracy_at_time(10.0) == 0.6  # best-so-far, not last

    def test_neuroflux_report_builds_the_result_metrics_once(self, monkeypatch):
        from repro.core.report import NeuroFluxReport

        calls = []
        add = TrainResult.add_metrics

        def counted(self, reg):
            calls.append(self)
            add(self, reg)

        monkeypatch.setattr(TrainResult, "add_metrics", counted)
        doc = NeuroFluxReport(TrainResult("m", "x", "d", "p")).to_json_dict()
        assert len(calls) == 1
        assert doc["kind"] == "neuroflux"
        assert {"blocks_total", "epochs_total"} <= set(doc["metrics"])


class TestIdentity:
    def test_passthrough_both_ways(self):
        ident = Identity()
        x = np.ones((2, 3))
        assert ident.forward(x) is x
        assert ident.backward(x) is x
