"""Tests for the model zoo: VGG, ResNet-18, MobileNet, registry."""

import numpy as np
import pytest

from helpers import rand_image_batch
from repro.errors import ConfigError
from repro.models import VGG_CONFIGS, BasicBlock, build_model, list_models
from repro.nn import CrossEntropyLoss
from repro.utils.rng import spawn_rng


class TestZoo:
    def test_list_models(self):
        names = list_models()
        for expected in ("vgg11", "vgg16", "vgg19", "resnet18", "mobilenet"):
            assert expected in names

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigError):
            build_model("alexnet")

    def test_deterministic_construction(self):
        a = build_model("vgg11", width_multiplier=0.125, seed=5)
        b = build_model("vgg11", width_multiplier=0.125, seed=5)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = build_model("vgg11", width_multiplier=0.125, seed=1)
        b = build_model("vgg11", width_multiplier=0.125, seed=2)
        assert any(
            not np.allclose(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )


class TestPaperParameterCounts:
    """Table 2 reports full-model sizes: VGG-16 14.7M, VGG-19 20.0M,
    ResNet-18 11.0M -- our CIFAR builds must land on the same counts."""

    def test_vgg16(self):
        m = build_model("vgg16", num_classes=10)
        assert abs(m.num_parameters() / 1e6 - 14.7) < 0.1

    def test_vgg19(self):
        m = build_model("vgg19", num_classes=10)
        assert abs(m.num_parameters() / 1e6 - 20.0) < 0.1

    def test_resnet18(self):
        m = build_model("resnet18", num_classes=10)
        assert abs(m.num_parameters() / 1e6 - 11.2) < 0.2


class TestVGGStructure:
    def test_layer_counts_match_config(self):
        for variant, config in VGG_CONFIGS.items():
            n_convs = sum(1 for c in config if c != "M")
            m = build_model(variant, width_multiplier=0.125)
            assert m.num_local_layers == n_convs

    def test_before_first_downsample_flags(self):
        m = build_model("vgg16", width_multiplier=0.125)
        flags = [s.before_first_downsample for s in m.local_layers()]
        # VGG-16: conv, conv+pool, rest after downsampling.
        assert flags[0] is True
        assert all(f is False for f in flags[1:])

    def test_downsample_geometry(self):
        m = build_model("vgg11", input_hw=(32, 32), width_multiplier=0.25)
        specs = m.local_layers()
        assert specs[0].out_hw == (16, 16)  # vgg11: first conv has a pool
        assert specs[-1].out_hw == (1, 1)

    def test_small_input_skips_deep_pools(self):
        m = build_model("vgg19", input_hw=(8, 8), width_multiplier=0.125)
        out = m.forward_features(rand_image_batch(1, 3, 8, 8, dtype=np.float32))
        assert out.shape[2] >= 1 and out.shape[3] >= 1

    def test_forward_backward_roundtrip(self, small_vgg):
        x = rand_image_batch(2, 3, 16, 16, dtype=np.float32)
        logits = small_vgg.forward(x)
        assert logits.shape == (2, 4)
        loss = CrossEntropyLoss()
        loss(logits, np.array([0, 1]))
        dx = small_vgg.backward(loss.backward())
        assert dx.shape == x.shape
        assert np.isfinite(dx).all()


class TestResNetStructure:
    def test_unit_count(self):
        m = build_model("resnet18", width_multiplier=0.125)
        assert m.num_local_layers == 9  # stem + 8 basic blocks

    def test_spatial_geometry(self):
        m = build_model("resnet18", input_hw=(32, 32), width_multiplier=0.25)
        specs = m.local_layers()
        assert specs[0].out_hw == (32, 32)
        assert specs[-1].out_hw == (4, 4)

    def test_forward_backward(self, small_resnet):
        x = rand_image_batch(2, 3, 16, 16, dtype=np.float32)
        logits = small_resnet.forward(x)
        loss = CrossEntropyLoss()
        loss(logits, np.array([1, 3]))
        dx = small_resnet.backward(loss.backward())
        assert dx.shape == x.shape

    def test_basic_block_shortcut_projection(self):
        block = BasicBlock(4, 8, stride=2, rng=spawn_rng(0, "b"))
        x = rand_image_batch(2, 4, 8, 8, dtype=np.float32)
        out = block.forward(x)
        assert out.shape == (2, 8, 4, 4)
        dx = block.backward(np.ones_like(out))
        assert dx.shape == x.shape

    def test_basic_block_identity_shortcut_grad_flows_both_paths(self):
        block = BasicBlock(4, 4, stride=1, rng=spawn_rng(1, "b"))
        x = rand_image_batch(1, 4, 6, 6, dtype=np.float32)
        out = block.forward(x)
        dx = block.backward(np.ones_like(out))
        # Identity path guarantees gradient magnitude at least reaches input.
        assert np.abs(dx).sum() > 0


class TestMobileNet:
    def test_unit_count(self):
        m = build_model("mobilenet", width_multiplier=0.125)
        assert m.num_local_layers == 14  # stem + 13 DS blocks

    def test_forward_backward(self, small_mobilenet):
        x = rand_image_batch(2, 3, 16, 16, dtype=np.float32)
        logits = small_mobilenet.forward(x)
        loss = CrossEntropyLoss()
        loss(logits, np.array([0, 2]))
        dx = small_mobilenet.backward(loss.backward())
        assert dx.shape == x.shape

    def test_far_fewer_params_than_vgg(self):
        mob = build_model("mobilenet", num_classes=10)
        vgg = build_model("vgg16", num_classes=10)
        assert mob.num_parameters() < vgg.num_parameters() / 3


class TestLocalLayerView:
    def test_spec_shapes_consistent_with_execution(self, small_vgg):
        x = rand_image_batch(2, 3, 16, 16, dtype=np.float32)
        for spec in small_vgg.local_layers():
            assert x.shape[1:] == (spec.in_channels, *spec.in_hw)
            x = spec.module.forward(x)
            assert x.shape[1:] == (spec.out_channels, *spec.out_hw)

    def test_forward_features_upto(self, small_vgg):
        x = rand_image_batch(1, 3, 16, 16, dtype=np.float32)
        partial = small_vgg.forward_features(x, upto=2)
        spec = small_vgg.local_layers()[1]
        assert partial.shape[1:] == (spec.out_channels, *spec.out_hw)

    def test_conv_widths(self):
        m = build_model("vgg11", width_multiplier=1.0)
        assert m.min_conv_width == 64
        assert m.max_conv_width == 512


def _layer_spec_digest() -> str:
    """sha256 over every zoo model's ``LayerSpec`` list (index, name,
    channels, sizes and both flags) at two widths and three input sizes.
    Built shape-only: only the geometry is hashed."""
    import hashlib

    from repro.nn.init import shapes_only

    digest = hashlib.sha256()
    with shapes_only():
        for name in list_models():
            for width in (0.25, 1.0):
                for hw in ((32, 32), (8, 8), (2, 2)):
                    model = build_model(name, input_hw=hw, width_multiplier=width)
                    for s in model.local_layers():
                        digest.update(
                            f"{name}:{width}:{hw}:{s.index}:{s.name}:"
                            f"{s.in_channels}:{s.out_channels}:{s.in_hw}:{s.out_hw}:"
                            f"{s.downsamples}:{s.before_first_downsample}\n".encode()
                        )
                    digest.update(
                        f"{model.min_conv_width}:{model.max_conv_width}\n".encode()
                    )
    return digest.hexdigest()


class TestLayerSpecGeometry:
    """Every model derives its stage geometry by one rule; both digests
    were recorded from the hand-built specs each model used to carry."""

    DIGEST = "bcaa1d2803c7562f61a668e10c52e94d0b657bcb63337b03541363c9e60c8c1a"
    WEIGHTS = {
        "vgg11": "1353b10ef531b62e540254dc8d8fdee92481d8dfb0702692ae2b34d7c28e6fcc",
        "resnet18": "8c83db8267914c755c623d1af84e17c0dc11b057f75bd9c55d49066ef9b45cbe",
        "mobilenet": "b7cbd9ce2ab1c6354775ad35f01379fd637df9c7e8095a695f5d15927dfcf37e",
    }

    def test_layer_specs_match_recorded_digest(self):
        assert _layer_spec_digest() == self.DIGEST

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_initial_weights_match_recorded_digest(self, name):
        from helpers import modules_digest

        model = build_model(name, width_multiplier=0.25, seed=3)
        assert modules_digest([model]) == self.WEIGHTS[name]
