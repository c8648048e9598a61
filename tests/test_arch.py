"""Layer formulas, shape propagation and per-cut profiles."""

import json

import pytest

from conftest import architecture_to_dict
from splitplan.arch import (Architecture, BottleneckModule, CutProfile,
                            LayerKind, LayerSpec, TensorShape,
                            layer_flops, load_architecture,
                            output_dim, packaged_config_text, propagate,
                            reference_architecture, toy_architecture)
from splitplan.errors import (NonPositiveOutput, ParseError, ShapeMismatch,
                              ValidationError)


def conv(c_in, c_out, k, s=1, p=0):
    """Square convolution layer."""
    return LayerSpec(LayerKind.CONV, c_in, c_out, kw=k, kh=k, pw=p, ph=p, sw=s, sh=s)


def tconv(c_in, c_out, k, s=1, p=0, po=0):
    """Square transpose convolution with output padding ``po``."""
    return LayerSpec(LayerKind.TRANSPOSE_CONV, c_in, c_out, kw=k, kh=k, pw=p, ph=p,
                     sw=s, sh=s, pwo=po, pho=po)


def pool(channels, k, s=1):
    return LayerSpec(LayerKind.MAX_POOL, channels, channels, kw=k, kh=k, sw=s, sh=s)


def unpool(channels, k, s=1, p=0):
    return LayerSpec(LayerKind.MAX_UNPOOL, channels, channels, kw=k, kh=k, pw=p, ph=p,
                     sw=s, sh=s)


class TestLayerDims:
    def test_identity_conv(self):
        layer = conv(1, 1, k=1)
        assert output_dim(7, layer, "w") == 7

    def test_stride2_conv(self):
        layer = conv(1, 1, k=3, s=2, p=1)
        assert output_dim(1024, layer, "w") == 512

    def test_conv_too_small(self):
        layer = conv(1, 1, k=5)
        with pytest.raises(NonPositiveOutput):
            output_dim(2, layer, "w")

    def test_identity_transpose(self):
        layer = tconv(1, 1, k=1)
        assert output_dim(7, layer, "w") == 7

    def test_stride2_transpose_inverts_conv(self):
        layer = tconv(1, 1, k=3, s=2, p=1, po=1)
        assert output_dim(512, layer, "w") == 1024

    def test_transpose_too_small(self):
        layer = tconv(1, 1, k=2, s=2, p=3)
        with pytest.raises(NonPositiveOutput):
            output_dim(1, layer, "w")

    def test_identity_unpool(self):
        layer = unpool(1, k=1)
        assert output_dim(1, layer, "w") == 1

    def test_stride2_unpool(self):
        layer = unpool(1, k=2, s=2)
        assert output_dim(512, layer, "w") == 1024

    def test_unpool_too_small(self):
        layer = unpool(1, k=1, s=1, p=1)
        with pytest.raises(NonPositiveOutput):
            output_dim(1, layer, "w")

    def test_conv_round_trip_even_sizes(self):
        # stride-2 3x3 down then the matching transpose recovers even sizes
        down = conv(1, 1, k=3, s=2, p=1)
        up = tconv(1, 1, k=3, s=2, p=1, po=1)
        for x in range(2, 600, 2):
            assert output_dim(output_dim(x, down, "w"), up, "w") == x

    def test_pool_round_trip_even_sizes(self):
        down = pool(1, k=2, s=2)
        up = unpool(1, k=2, s=2)
        for x in range(2, 600, 2):
            assert output_dim(output_dim(x, down, "w"), up, "w") == x


class TestLayerFlops:
    def test_conv_flops(self):
        # 3->13 channels, 3x3 kernel, 512x1024 output: 2*3*13*9*512*1024
        layer = conv(3, 13, k=3, s=2, p=1)
        shape = TensorShape(3, 1024, 2048)
        assert layer_flops(layer, shape) == 368_050_176

    def test_pool_flops(self):
        layer = pool(16, k=2, s=2)
        shape = TensorShape(16, 1024, 2048)
        assert layer_flops(layer, shape) == 25_165_824  # (4-1)*16*512*1024

    def test_unpool_is_free(self):
        layer = unpool(16, k=2, s=2)
        assert layer_flops(layer, TensorShape(16, 64, 64)) == 0


class TestLayerSpecValidation:
    def test_output_padding_only_on_transpose(self):
        with pytest.raises(ValidationError):
            LayerSpec(LayerKind.CONV, 1, 1, kw=3, kh=3, pwo=1)

    def test_pool_preserves_channels(self):
        with pytest.raises(ValidationError):
            LayerSpec(LayerKind.MAX_POOL, 4, 8, kw=2, kh=2)

    def test_zero_kernel_rejected(self):
        with pytest.raises(ValidationError):
            LayerSpec(LayerKind.CONV, 1, 1, kw=0, kh=1)


def _pool_pair_arch(pool_bits=2):
    """One pooled downsample and its paired unpool on an 8x16 input."""
    down = BottleneckModule(
        1, (conv(3, 6, k=2, s=2),), (pool(3, k=2, s=2), conv(3, 6, k=1)),
        "down", pool_bits)
    up = BottleneckModule(
        2, (tconv(6, 6, k=2, s=2),), (conv(6, 6, k=1), unpool(6, k=2, s=2)),
        "up", 0)
    return Architecture((down, up), TensorShape(3, 8, 16), 32)


class TestPropagate:
    def test_zero_modules_single_cut(self):
        arch = Architecture((), TensorShape(3, 4, 4), 32)
        prof = propagate(arch)
        assert prof.num_cuts == 0
        assert prof.cum_workload == (0,)
        assert prof.transmit_bits == (3 * 4 * 4 * 32,)

    def test_pool_index_payload(self):
        # 2 bits per pooled output element, owed until the paired unpool runs
        prof = propagate(_pool_pair_arch())
        pooled_elements = 3 * 4 * 8  # pool input is 3x8x16
        assert prof.index_bits == (0, 2 * pooled_elements, 0)

    def test_index_payload_scales_with_bits(self):
        prof = propagate(_pool_pair_arch(pool_bits=5))
        assert prof.index_bits[1] == 5 * 3 * 4 * 8

    def test_branch_shape_mismatch(self):
        bad = BottleneckModule(
            1, (conv(3, 6, k=2, s=2),), (pool(3, k=2, s=2),), "down", 2)
        arch = Architecture(
            (bad, BottleneckModule(2, (tconv(6, 6, k=2, s=2),), (), "up", 0)),
            TensorShape(3, 8, 16), 32)
        with pytest.raises(ShapeMismatch):
            propagate(arch)

    def test_sampling_direction_enforced(self):
        shrink = BottleneckModule(1, (conv(3, 3, k=2, s=2),), (), "none", 0)
        grow = BottleneckModule(2, (tconv(3, 3, k=2, s=2),), (), "up", 0)
        with pytest.raises(ValidationError):
            propagate(Architecture((shrink, grow), TensorShape(3, 8, 8), 32))

    def test_final_dims_must_match_input(self):
        down = BottleneckModule(1, (conv(3, 3, k=2, s=2),), (), "down", 0)
        up = BottleneckModule(2, (tconv(3, 3, k=3, s=3),), (), "up", 0)
        with pytest.raises(ValidationError):
            propagate(Architecture((down, up), TensorShape(3, 8, 8), 32))


class TestReferenceArchitecture:
    def test_raw_input_payload(self):
        prof = propagate(reference_architecture())
        assert prof.transmit_bits[0] == 201_326_592  # 1024x2048x3 at 32 bits

    def test_module_count(self):
        assert reference_architecture().num_modules == 30

    def test_final_output(self):
        arch = reference_architecture()
        prof = propagate(arch)
        assert prof.transmit_bits[-1] == 20 * 1024 * 2048 * 32

    def test_payload_not_monotone_across_decoder(self):
        prof = propagate(reference_architecture())
        diffs = [b - a for a, b in zip(prof.transmit_bits, prof.transmit_bits[1:])]
        assert any(d > 0 for d in diffs[1:])  # grows again while upsampling

    def test_index_payload_boundaries(self):
        prof = propagate(reference_architecture())
        assert prof.index_bits[0] == 0
        assert prof.index_bits[-1] == 0
        assert max(prof.index_bits) > 0

    def test_cumulative_workload_monotone(self):
        prof = propagate(reference_architecture())
        assert all(b >= a for a, b in zip(prof.cum_workload, prof.cum_workload[1:]))
        assert prof.cum_workload[0] == 0
        assert prof.total_workload == prof.cum_workload[-1]

    def test_min_payload_sits_in_deepest_stage(self):
        prof = propagate(reference_architecture())
        payload = [prof.payload_bits(l) for l in range(prof.num_cuts + 1)]
        best = payload.index(min(payload))
        # deepest encoder stage spans the second pooled downsample onward
        assert 7 <= best <= 24

    @pytest.mark.parametrize("bundled", [reference_architecture, toy_architecture],
                             ids=["reference", "toy"])
    def test_bundled_round_trips_through_config(self, bundled):
        arch = bundled()
        text = json.dumps(architecture_to_dict(arch))
        again = load_architecture(text)
        assert propagate(again) == propagate(arch)


class TestLoadArchitecture:
    def test_reference_config_loads(self):
        arch = load_architecture(packaged_config_text("reference"))
        assert arch.num_modules == 30

    def test_empty_module_list_rejected(self):
        cfg = {"bits_per_element": 32,
               "input": {"channels": 3, "height": 8, "width": 8},
               "modules": []}
        with pytest.raises(ValidationError):
            load_architecture(json.dumps(cfg))

    def test_unbalanced_sampling_rejected(self):
        cfg = architecture_to_dict(_pool_pair_arch())
        cfg["modules"] = cfg["modules"][:1]  # drop the upsample
        with pytest.raises(ValidationError):
            load_architecture(json.dumps(cfg))

    def test_bad_json_is_parse_error(self):
        with pytest.raises(ParseError):
            load_architecture("{not json")

    def test_unknown_kind_names_module(self):
        cfg = architecture_to_dict(_pool_pair_arch())
        cfg["modules"][0]["main_branch"][0]["kind"] = "avg_pool"
        with pytest.raises(ValidationError, match="module 1"):
            load_architecture(json.dumps(cfg))

    def test_unpool_without_pool_rejected(self):
        down = BottleneckModule(1, (conv(3, 6, k=2, s=2),), (), "down", 0)
        up = BottleneckModule(
            2, (tconv(6, 6, k=2, s=2),), (conv(6, 6, k=1), unpool(6, k=2, s=2)),
            "up", 0)
        cfg = architecture_to_dict(Architecture((down, up), TensorShape(3, 8, 16), 32))
        with pytest.raises(ValidationError, match="module 2"):
            load_architecture(json.dumps(cfg))


class TestCutProfile:
    def test_rejects_decreasing_cumulative(self):
        with pytest.raises(ValidationError):
            CutProfile((0, 5, 3), (9, 9, 9), (0, 0, 0))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValidationError):
            CutProfile((1, 2), (9, 9), (0, 0))

    def test_rejects_a_cut_that_uploads_nothing(self):
        with pytest.raises(ValidationError, match="at least one bit"):
            CutProfile((0, 4), (10, 0), (0, 0))

    def test_payload_is_data_plus_index(self):
        prof = CutProfile((0, 4), (10, 6), (0, 3))
        assert prof.payload_bits(1) == 9
