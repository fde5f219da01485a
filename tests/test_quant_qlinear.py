"""Tests for packed int-k layers: ``FormatLinear`` over an ``IntFormat``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from format_conformance import CONFORMANCE_WIDTHS, width_id
from repro.quant.formats import FormatLinear, IntFormat
from repro.quant.groupwise import quantize_groupwise


def int_layer(result):
    """Pack a group-quantization result as an int FormatLinear."""
    fmt = IntFormat(result.bits)
    return FormatLinear.from_tensor(fmt, fmt.from_group_result(result))


def stored_codes(layer):
    """The ``(d_in, d_out)`` codes held in the layer's packed payload."""
    return layer.format.unpack_payload(layer.arrays, layer.meta).codes


def uncached_decode(layer):
    """Dense weight decoded afresh from the current payload."""
    return layer.format.decode(
        layer.format.unpack_payload(layer.arrays, layer.meta)
    )


def holds_ndarray(value):
    """Whether ``value`` is, or (in a container/dataclass) holds, an ndarray."""
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, dict):
        return any(holds_ndarray(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(holds_ndarray(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(
            holds_ndarray(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    return False


class TestRoundTrip:
    @given(
        st.sampled_from([1, 2, 3, 4, 8]),
        st.integers(1, 40),
        st.integers(1, 48),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_codes_round_trip_any_group_size(self, bits, group_size, d_in, seed):
        # group_size deliberately unconstrained relative to d_in: the last
        # group absorbs the remainder when it does not divide the rows.
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(d_in, 6))
        result = quantize_groupwise(w, bits, group_size)
        layer = int_layer(result)
        assert np.array_equal(stored_codes(layer), result.codes)
        assert np.allclose(layer.dequantize(), result.dequantize(), atol=1e-2)

    def test_codes_survive_packing(self, rng):
        w = rng.normal(size=(64, 12))
        result = quantize_groupwise(w, 4, 16)
        layer = int_layer(result)
        assert np.array_equal(stored_codes(layer), result.codes)

    def test_dequantize_close_to_float_grids(self, rng):
        # Grids are stored fp16, so reconstruction differs only by fp16
        # rounding of scales/zeros.
        w = rng.normal(size=(64, 12))
        result = quantize_groupwise(w, 4, 16)
        layer = int_layer(result)
        assert np.allclose(layer.dequantize(), result.dequantize(), atol=1e-2)

    def test_from_weight_convenience(self, rng):
        w = rng.normal(size=(32, 8))
        layer = FormatLinear.from_weight(w, 2, 16)
        assert layer.bits == 2
        assert layer.shape == (32, 8)
        assert layer.format_name == "int2"

    def test_forward_matches_dequantized_matmul(self, rng):
        w = rng.normal(size=(16, 6))
        layer = FormatLinear.from_weight(w, 4, 8)
        x = rng.normal(size=(5, 16))
        assert np.allclose(layer.forward_array(x), x @ layer.dequantize())


class TestLutAndCache:
    """The memoised dense weight of a packed layer."""

    def test_forward_reuses_cached_weight(self, rng):
        w = rng.normal(size=(32, 8))
        layer = FormatLinear.from_weight(w, 4, 16)
        x = rng.normal(size=(3, 32))
        layer.forward_array(x)
        cached = layer._dense_cache
        assert cached is not None
        layer.forward_array(x)
        assert layer._dense_cache is cached  # same array, no rebuild

    def test_cache_invalidated_on_mutation(self, rng):
        w = rng.normal(size=(32, 8))
        layer = FormatLinear.from_weight(w, 4, 16)
        x = rng.normal(size=(3, 32))
        before = layer.forward_array(x)
        layer.arrays["codes"][0] ^= np.uint32(0b1111)  # flip the first code
        after = layer.forward_array(x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, x @ uncached_decode(layer))
        scales = layer.arrays["scales"]
        scales[0, 0] = np.float16(2.0) * scales[0, 0]
        assert np.array_equal(
            layer.forward_array(x), x @ uncached_decode(layer)
        )

    def test_cached_dense_weight_is_read_only(self, rng):
        # The memoized dense weight is returned by reference on every
        # forward; writing through it would poison all later calls.
        w = rng.normal(size=(32, 8))
        layer = FormatLinear.from_weight(w, 4, 16)
        layer.forward_array(rng.normal(size=(3, 32)))
        assert not layer._dense_cache.flags.writeable
        with pytest.raises(ValueError):
            layer._dense_cache[0, 0] = 123.0

    def test_dequantize_returns_writable_copy(self, rng):
        w = rng.normal(size=(16, 4))
        layer = FormatLinear.from_weight(w, 4, 8)
        dense = layer.dequantize()
        dense[0, 0] = 123.0  # must not poison the cache
        assert layer.dequantize()[0, 0] != 123.0
        assert np.array_equal(layer.dequantize(), uncached_decode(layer))

    @pytest.mark.parametrize("bits", CONFORMANCE_WIDTHS, ids=width_id)
    def test_state_is_payload_only(self, bits, rng):
        # The packed payload is the layer's only array state: no unpacked
        # int64 codes ride along (8 bytes per weight).  The format object
        # holds no arrays.
        layer = FormatLinear.from_weight(rng.normal(size=(24, 6)), bits, 8)

        def stray():
            return sorted(
                attr
                for attr, value in vars(layer).items()
                if attr not in ("format", "arrays") and holds_ndarray(value)
            )

        assert stray() == []
        layer.forward_array(rng.normal(size=(2, 24)))
        assert stray() == ["_dense_cache"]


class TestStorage:
    def test_4bit_compression_ratio(self, rng):
        w = rng.normal(size=(256, 256))
        layer = FormatLinear.from_weight(w, 4, 32)
        # fp16 dense = 128 KiB; 4-bit codes = 32 KiB + grids.
        assert 3.0 < w.size * 2 / layer.storage_bytes() < 4.0

    def test_2bit_smaller_than_4bit(self, rng):
        w = rng.normal(size=(256, 64))
        q2 = FormatLinear.from_weight(w, 2, 32)
        q4 = FormatLinear.from_weight(w, 4, 32)
        assert q2.storage_bytes() < q4.storage_bytes()

    def test_storage_bytes_accounting(self, rng):
        w = rng.normal(size=(64, 10))
        layer = FormatLinear.from_weight(w, 4, 32)
        expected_codes = (64 * 10 * 4 + 31) // 32 * 4
        expected_grids = 2 * (2 * 10) * 2
        assert layer.storage_bytes() == expected_codes + expected_grids
