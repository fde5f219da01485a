"""Differential tests: every fast path is bit-identical to the slow path.

The performance engine (lazy-batch blocked solver, Cholesky factor cache,
forked sensitivity pass) is only landable because each fast path is
provably a pure reordering of the same arithmetic.  These tests pin that
claim with ``np.array_equal`` — never ``allclose`` — over a seeded matrix
of shapes, group sizes, damping values, bit-widths and blocksizes, and over end-to-end APTQ runs with ``workers=2`` (a
forced fork of the sensitivity pass) vs ``workers=0``.
"""

import numpy as np
import pytest

import repro.runtime.parallel as parallel
from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.data.calibration import CalibrationSet
from repro.nn.transformer import LlamaConfig, LlamaModel
from repro.quant.solver import (
    quantize_with_hessian,
    quantize_with_hessian_reference,
)
from repro.runtime.faults import FaultInjector
from repro.runtime.journal import RunJournal

SHAPES = [(17, 5), (32, 32), (48, 20), (64, 16)]
GROUP_SIZES = [8, 12, None]
DAMPS = [0.0, 0.01, 0.1]
BITS = [2, 4]
BLOCKSIZES = [8, 32, 128]


def make_problem(shape, seed, dead_channel=False):
    """Seeded random weight + positive-definite Hessian."""
    d_in, d_out = shape
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((d_in, d_out))
    basis = rng.standard_normal((d_in, d_in))
    hessian = basis @ basis.T / d_in + 0.05 * np.eye(d_in)
    if dead_channel:
        hessian[d_in // 2, :] = 0.0
        hessian[:, d_in // 2] = 0.0
    return weight, hessian


def assert_results_identical(a, b, context="", loss_exact=True):
    """Exact (``np.array_equal``) equality of every solver output array.

    ``compensated_loss`` is a scalar diagnostic summed over error vectors
    whose *values* differ at the last ulp between sweep schedules (the
    cross-block flush is a matmul, the reference update a chain of rank-1
    subtractions), so across schedules it is compared at near-machine
    relative precision; within one schedule (``loss_exact=True``) it must
    match exactly.
    """
    assert np.array_equal(a.quantized_weight, b.quantized_weight), context
    assert np.array_equal(a.group_result.codes, b.group_result.codes), context
    assert np.array_equal(a.group_result.scales, b.group_result.scales), context
    assert np.array_equal(a.group_result.zeros, b.group_result.zeros), context
    if loss_exact:
        assert a.compensated_loss == b.compensated_loss, context
    else:
        assert np.isclose(
            a.compensated_loss, b.compensated_loss, rtol=1e-9, atol=0.0
        ), context


class TestBlockedEqualsReference:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("group_size", GROUP_SIZES, ids=str)
    @pytest.mark.parametrize("percdamp", DAMPS, ids=str)
    def test_blocked_matches_reference_bitwise(self, shape, group_size, percdamp):
        seed = hash((shape, group_size, percdamp)) % (2**32)
        weight, hessian = make_problem(shape, seed)
        for bits in BITS:
            reference = quantize_with_hessian_reference(
                weight,
                hessian,
                bits=bits,
                group_size=group_size,
                percdamp=percdamp,
            )
            for blocksize in BLOCKSIZES:
                blocked = quantize_with_hessian(
                    weight,
                    hessian,
                    bits=bits,
                    group_size=group_size,
                    blocksize=blocksize,
                    percdamp=percdamp,
                )
                assert_results_identical(
                    reference,
                    blocked,
                    f"shape={shape} group={group_size} damp={percdamp} "
                    f"bits={bits} block={blocksize}",
                    loss_exact=False,
                )

    def test_dead_channels_identical(self):
        weight, hessian = make_problem((24, 10), seed=7, dead_channel=True)
        reference = quantize_with_hessian_reference(
            weight, hessian, bits=4, group_size=8
        )
        for blocksize in BLOCKSIZES:
            blocked = quantize_with_hessian(
                weight, hessian, bits=4, group_size=8, blocksize=blocksize
            )
            assert_results_identical(reference, blocked, loss_exact=False)


class TestRunParallelMap:
    def test_preserves_order_and_values(self):
        items = list(range(24))
        serial = parallel.run_parallel_map(lambda i: i * i, items, workers=0)
        pooled = parallel.run_parallel_map(lambda i: i * i, items, workers=2)
        assert serial == pooled == [i * i for i in items]

    def test_auto_serial_records_scheduler_event(self):
        journal = RunJournal()
        result = parallel.run_parallel_map(
            lambda i: -i,
            [1, 2, 3],
            workers=2,
            cost=10.0,
            min_cost=100.0,
            journal=journal,
            label="toy items",
        )
        assert result == [-1, -2, -3]
        notices = [e for e in journal.events if e.category == "scheduler"]
        assert len(notices) == 1
        assert "toy items" in notices[0].message

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken_context(method):
            raise OSError("fork unavailable")

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", broken_context
        )
        journal = RunJournal()
        result = parallel.run_parallel_map(
            lambda i: i + 1, [1, 2, 3], workers=2, journal=journal
        )
        assert result == [2, 3, 4]
        warnings = [e for e in journal.events if e.category == "warning"]
        assert len(warnings) == 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            parallel.run_parallel_map(lambda i: i, [1], workers=-1)


class TestAPTQWorkersParity:
    def test_workers2_equals_workers0_bitwise(self, forced_fork):
        config = LlamaConfig(
            vocab_size=64,
            d_model=16,
            n_layers=2,
            n_heads=2,
            d_ff=24,
            max_seq_len=32,
        )
        rng = np.random.default_rng(0)
        calibration = CalibrationSet(
            segments=rng.integers(0, 64, size=(6, 12)),
            corpus_name="synthetic",
            seed=0,
        )

        def run(workers):
            model = LlamaModel(config, seed=0)
            # Injected Cholesky failures put recovery-ladder events into
            # the streams compared below.
            with FaultInjector().force_linalg_error("blocks.1.*", times=3):
                result = aptq_quantize_model(
                    model,
                    calibration,
                    APTQConfig(ratio_4bit=0.5, workers=workers),
                )
            return model.state_dict(), result

        serial_state, serial_result = run(0)
        assert forced_fork == []
        parallel_state, parallel_result = run(2)
        # Only the sensitivity pass forks: one pool for the whole run.
        assert forced_fork == ["fork"]

        assert sorted(serial_state) == sorted(parallel_state)
        for name in serial_state:
            assert np.array_equal(serial_state[name], parallel_state[name]), name
        assert serial_result.sensitivities == parallel_result.sensitivities
        assert serial_result.allocation == parallel_result.allocation
        assert sorted(serial_result.layer_results) == sorted(
            parallel_result.layer_results
        )
        for name in serial_result.layer_results:
            assert_results_identical(
                serial_result.layer_results[name],
                parallel_result.layer_results[name],
                name,
            )
        serial_events = [e.to_json() for e in serial_result.health.events]
        assert serial_events
        assert serial_events == [
            e.to_json() for e in parallel_result.health.events
        ]
