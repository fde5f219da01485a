"""Tests for trace estimation, sensitivity and mixed-precision allocation."""

import numpy as np
import pytest

from repro.core.allocation import (
    allocate_bits_by_sensitivity,
    average_bits,
    manual_blockwise_allocation,
)
from repro.core.sensitivity import LayerSensitivity, compute_sensitivities
from repro.core.trace import hutchinson_trace


def sens(name, trace, weights=100):
    return LayerSensitivity(
        name=name, mean_trace=trace, n_weights=weights, is_attention=False
    )


class TestHutchinson:
    def test_close_to_exact_trace(self, rng):
        a = rng.normal(size=(20, 20))
        h = a @ a.T
        exact = np.trace(h)
        estimate = hutchinson_trace(h, n_probes=2000, seed=1)
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_exact_for_diagonal(self):
        # Rademacher probes are exact for diagonal matrices: z_i^2 = 1.
        h = np.diag([1.0, 2.0, 3.0])
        assert hutchinson_trace(h, n_probes=3, seed=0) == pytest.approx(6.0)

    def test_callable_interface(self, rng):
        h = np.diag([2.0, 4.0])
        est = hutchinson_trace(lambda z: h @ z, dim=2, n_probes=5, seed=0)
        assert est == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            hutchinson_trace(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            hutchinson_trace(lambda z: z)
        with pytest.raises(ValueError):
            hutchinson_trace(np.eye(2), n_probes=0)


class TestAllocation:
    def test_ratio_one_all_high(self):
        records = {f"l{i}": sens(f"l{i}", float(i)) for i in range(4)}
        allocation = allocate_bits_by_sensitivity(records, 1.0)
        assert set(allocation.values()) == {4}

    def test_ratio_zero_all_low(self):
        records = {f"l{i}": sens(f"l{i}", float(i)) for i in range(4)}
        allocation = allocate_bits_by_sensitivity(records, 0.0)
        assert set(allocation.values()) == {2}

    def test_most_sensitive_layers_get_high_bits(self):
        records = {
            "hot": sens("hot", 100.0),
            "warm": sens("warm", 10.0),
            "cold": sens("cold", 1.0),
            "freezing": sens("freezing", 0.1),
        }
        allocation = allocate_bits_by_sensitivity(records, 0.5)
        assert allocation["hot"] == 4
        assert allocation["warm"] == 4
        assert allocation["cold"] == 2
        assert allocation["freezing"] == 2

    def test_monotone_in_sensitivity(self):
        records = {f"l{i}": sens(f"l{i}", float(i)) for i in range(10)}
        allocation = allocate_bits_by_sensitivity(records, 0.42)
        ordered = sorted(records.values(), key=lambda s: -s.mean_trace)
        bits = [allocation[s.name] for s in ordered]
        # once it drops to 2 it never returns to 4
        assert bits == sorted(bits, reverse=True)

    def test_weight_counts_respected(self):
        records = {
            "big": sens("big", 10.0, weights=900),
            "small": sens("small", 5.0, weights=100),
        }
        # 50% target: promoting 'big' overshoots (0.9 vs 0.5) worse than
        # leaving it low (0.0 vs 0.5)... equal distance 0.4 -> promoted.
        allocation = allocate_bits_by_sensitivity(records, 0.5)
        assert allocation["big"] == 4

    def test_custom_bit_widths(self):
        records = {"a": sens("a", 2.0), "b": sens("b", 1.0)}
        allocation = allocate_bits_by_sensitivity(
            records, 0.5, high_bits=8, low_bits=3
        )
        assert allocation == {"a": 8, "b": 3}

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            allocate_bits_by_sensitivity({"a": sens("a", 1.0)}, 1.5)


class TestAverageBits:
    def test_eq18_pure_ratio(self):
        # Eq. (18): avg = 4R + 2(1-R) with equal-size layers.
        allocation = {"a": 4, "b": 4, "c": 4, "d": 2}
        counts = {name: 50 for name in allocation}
        assert average_bits(allocation, counts) == pytest.approx(
            4 * 0.75 + 2 * 0.25
        )

    def test_weighted_by_counts(self):
        allocation = {"a": 4, "b": 2}
        counts = {"a": 300, "b": 100}
        assert average_bits(allocation, counts) == pytest.approx(3.5)

    def test_missing_counts_rejected(self):
        with pytest.raises(KeyError):
            average_bits({"a": 4}, {})


class TestManualBlockwise:
    def test_uniform_within_block(self, trained_micro_model):
        allocation = manual_blockwise_allocation(trained_micro_model, 0.5)
        for block in range(trained_micro_model.config.n_layers):
            bits = {
                v for k, v in allocation.items()
                if k.startswith(f"blocks.{block}.")
            }
            assert len(bits) == 1

    def test_half_ratio_on_two_blocks(self, trained_micro_model):
        allocation = manual_blockwise_allocation(trained_micro_model, 0.5)
        counts = {
            name: linear.weight.size
            for name, linear in trained_micro_model.quantizable_linears().items()
        }
        assert average_bits(allocation, counts) == pytest.approx(3.0)

    def test_extremes(self, trained_micro_model):
        assert set(
            manual_blockwise_allocation(trained_micro_model, 1.0).values()
        ) == {4}
        assert set(
            manual_blockwise_allocation(trained_micro_model, 0.0).values()
        ) == {2}

    def test_ratio_validated(self, trained_micro_model):
        with pytest.raises(ValueError):
            manual_blockwise_allocation(trained_micro_model, -0.1)


class TestComputeSensitivities:
    def test_all_layers_covered(self, trained_micro_model, calibration):
        cache = {}
        sensitivities = compute_sensitivities(
            trained_micro_model,
            calibration,
            n_probes=2,
            attention_cache=cache,
        )
        assert set(sensitivities) == set(
            trained_micro_model.quantizable_linears()
        )
        assert set(cache) == {0, 1}
        for record in sensitivities.values():
            assert record.mean_trace > 0
            assert record.n_weights > 0

    def test_attention_flag(self, trained_micro_model, calibration):
        sensitivities = compute_sensitivities(
            trained_micro_model, calibration, n_probes=2
        )
        assert sensitivities["blocks.0.self_attn.q_proj"].is_attention
        assert not sensitivities["blocks.0.mlp.up_proj"].is_attention

    def test_negative_workers_rejected(self, trained_micro_model, calibration):
        with pytest.raises(ValueError, match="workers"):
            compute_sensitivities(trained_micro_model, calibration, workers=-1)
