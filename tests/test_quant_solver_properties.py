"""Property-style seeded sweeps over solver invariants.

Complements the differential suite (which compares schedules against each
other) with properties each result must satisfy on its own: quantized
values live exactly on the group codebook grid, codes stay in range,
reconstruction error is monotone non-increasing in bit-width, codes are
row-aligned with the returned weight, and the factor cache is transparent.
"""

import numpy as np
import pytest

from repro.quant.groupwise import GroupQuantResult
from repro.quant.solver import (
    MICRO_BLOCKSIZE,
    HessianFactorCache,
    factorize_hessian,
    hessian_fingerprint,
    quantize_with_hessian,
)

SEEDS = [0, 1, 2, 3]


def make_problem(shape, seed):
    """Seeded random weight + positive-definite Hessian."""
    d_in, d_out = shape
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((d_in, d_out))
    basis = rng.standard_normal((d_in, d_in))
    hessian = basis @ basis.T / d_in + 0.05 * np.eye(d_in)
    return weight, hessian


class TestGridMembership:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bits", [2, 4])
    def test_quantized_values_on_codebook_grid(self, seed, bits):
        weight, hessian = make_problem((40, 12), seed)
        result = quantize_with_hessian(
            weight, hessian, bits=bits, group_size=8
        )
        group = result.group_result
        assert group.codes.dtype == np.int64
        assert group.codes.min() >= 0
        assert group.codes.max() <= (1 << bits) - 1
        # Dequantizing the codes through the stored grids reproduces the
        # dense quantized weight exactly — every value is a grid point.
        assert np.array_equal(group.dequantize(), result.quantized_weight)

    def test_outputs_finite(self):
        weight, hessian = make_problem((24, 8), seed=9)
        hessian[3, :] = 0.0
        hessian[:, 3] = 0.0  # dead channel
        result = quantize_with_hessian(weight, hessian, bits=4, group_size=8)
        assert np.isfinite(result.quantized_weight).all()
        assert np.isfinite(result.group_result.scales).all()
        assert np.isfinite(result.compensated_loss)


class TestErrorMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mse_non_increasing_with_bits(self, seed):
        weight, hessian = make_problem((48, 16), seed)
        mses = [
            quantize_with_hessian(
                weight, hessian, bits=bits, group_size=8
            ).mse
            for bits in (2, 4, 8)
        ]
        assert mses[0] >= mses[1] >= mses[2]
        assert mses[2] < mses[0]  # strictly better somewhere


class TestCodesRowAligned:
    """Codes and grids are in the weight's own row order: decoding them
    gives the returned dense weight exactly, with no reordering."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ragged_groups_decode_to_weight(self, seed):
        # 30 rows in groups of 8: the last group holds 6.
        weight, hessian = make_problem((30, 10), seed)
        result = quantize_with_hessian(weight, hessian, bits=4, group_size=8)
        assert result.group_result.n_groups == 4
        assert np.array_equal(
            result.group_result.dequantize(), result.quantized_weight
        )

    def test_dead_channel_decodes_to_weight(self):
        weight, hessian = make_problem((16, 6), seed=5)
        hessian[7, :] = 0.0
        hessian[:, 7] = 0.0
        result = quantize_with_hessian(weight, hessian, bits=4, group_size=5)
        assert np.array_equal(result.quantized_weight[7], np.zeros(6))
        assert np.array_equal(
            result.group_result.dequantize(), result.quantized_weight
        )


class TestFactorCache:
    def test_cache_hit_is_transparent(self):
        weight, hessian = make_problem((24, 8), seed=2)
        cache = HessianFactorCache()
        uncached = quantize_with_hessian(weight, hessian, bits=4, group_size=8)
        first = quantize_with_hessian(
            weight, hessian, bits=4, group_size=8, cache=cache
        )
        second = quantize_with_hessian(
            weight, hessian, bits=4, group_size=8, cache=cache
        )
        assert cache.misses == 1 and cache.hits == 1
        for result in (first, second):
            assert np.array_equal(
                result.quantized_weight, uncached.quantized_weight
            )
            assert np.array_equal(
                result.group_result.codes, uncached.group_result.codes
            )
            assert result.compensated_loss == uncached.compensated_loss

    def test_cached_factor_equals_direct(self):
        _, hessian = make_problem((20, 4), seed=3)
        cache = HessianFactorCache()
        cached = cache.factor(hessian, 0.01)
        direct = factorize_hessian(hessian, percdamp=0.01)
        assert np.array_equal(cached.inv_upper, direct.inv_upper)
        assert np.array_equal(cached.dead, direct.dead)

    def test_cached_factors_are_read_only(self):
        # Factors are shared across layers and cache hits, so a consumer
        # mutating one would silently corrupt every other reader.
        _, hessian = make_problem((20, 4), seed=3)
        cache = HessianFactorCache()
        for factor in (
            cache.factor(hessian, 0.01),  # miss
            cache.factor(hessian, 0.01),  # hit
            cache.scaled_factor(hessian, 2.0, 0.01),  # derived
        ):
            assert not factor.inv_upper.flags.writeable
            assert not factor.dead.flags.writeable
            with pytest.raises(ValueError):
                factor.inv_upper[0, 0] = 1.0

    def test_fingerprint_distinguishes_content(self):
        _, hessian = make_problem((16, 4), seed=4)
        other = hessian.copy()
        other[0, 0] += 1e-12
        assert hessian_fingerprint(hessian) == hessian_fingerprint(
            hessian.copy()
        )
        assert hessian_fingerprint(hessian) != hessian_fingerprint(other)

    def test_fifo_eviction_bounds_entries(self):
        cache = HessianFactorCache(max_entries=2)
        for seed in range(4):
            _, hessian = make_problem((8, 2), seed)
            cache.factor(hessian, 0.01)
        assert len(cache) == 2
        with pytest.raises(ValueError):
            HessianFactorCache(max_entries=0)


class TestValidation:
    def test_bad_blocksize_rejected(self):
        weight, hessian = make_problem((8, 4), seed=0)
        with pytest.raises(ValueError, match="blocksize"):
            quantize_with_hessian(weight, hessian, bits=4, blocksize=0)
        assert MICRO_BLOCKSIZE > 0

    def test_shape_mismatch_rejected(self):
        weight, _ = make_problem((8, 4), seed=0)
        _, hessian = make_problem((6, 4), seed=0)
        with pytest.raises(ValueError, match="hessian"):
            quantize_with_hessian(weight, hessian, bits=4)


class TestGroupRecordShape:
    def test_group_record_matches_layout(self):
        weight, hessian = make_problem((20, 6), seed=1)
        result = quantize_with_hessian(weight, hessian, bits=4, group_size=8)
        group = result.group_result
        assert isinstance(group, GroupQuantResult)
        assert group.codes.shape == weight.shape
        assert group.scales.shape == (3, 6)  # ceil(20 / 8) groups
        assert group.zeros.shape == (3, 6)
