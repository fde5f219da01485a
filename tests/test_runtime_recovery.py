"""Recovery-ladder tests: degenerate Hessians, rung ordering, fallbacks."""

import numpy as np
import pytest

from repro.quant.solver import quantize_with_hessian
from repro.runtime import (
    LADDER_RUNGS,
    FaultInjector,
    NumericalRecoveryError,
    RecoveryPolicy,
    RunJournal,
    SolverTask,
    clip_hessian_eigenvalues,
    hessian_inverse,
    robust_quantize_layer,
    run_solver_tasks,
)

D_IN, D_OUT = 8, 6


@pytest.fixture
def weight(rng):
    return rng.normal(size=(D_IN, D_OUT))


def spd_hessian(rng, d=D_IN):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.5 * np.eye(d)


class TestHappyPath:
    def test_passthrough_matches_direct_solver(self, rng, weight):
        hessian = spd_hessian(rng)
        journal = RunJournal()
        robust = robust_quantize_layer(
            weight, hessian, bits=4, group_size=4, journal=journal
        )
        direct = quantize_with_hessian(weight, hessian, bits=4, group_size=4)
        np.testing.assert_array_equal(
            robust.quantized_weight, direct.quantized_weight
        )
        assert journal.events == []
        assert journal.health().status == "clean"

    def test_rank_deficient_hessian_survives_on_damping(self, rng, weight):
        v = rng.normal(size=D_IN)
        hessian = np.outer(v, v)  # rank 1; damping makes it PD
        journal = RunJournal()
        result = robust_quantize_layer(
            weight, hessian, bits=4, group_size=4, journal=journal
        )
        assert np.isfinite(result.quantized_weight).all()

    def test_all_dead_channel_hessian(self, rng, weight):
        journal = RunJournal()
        result = robust_quantize_layer(
            weight, np.zeros((D_IN, D_IN)), bits=4, group_size=4,
            journal=journal,
        )
        assert np.isfinite(result.quantized_weight).all()

    def test_extreme_condition_number(self, rng, weight):
        hessian = np.diag(np.logspace(-30, 6, D_IN))
        journal = RunJournal()
        result = robust_quantize_layer(
            weight, hessian, bits=4, group_size=4, journal=journal
        )
        assert np.isfinite(result.quantized_weight).all()


class TestLadder:
    def test_injected_failure_absorbed_by_retry_with_identical_output(
        self, rng, weight
    ):
        hessian = spd_hessian(rng)
        clean = robust_quantize_layer(weight, hessian, bits=4, group_size=4)
        journal = RunJournal()
        with FaultInjector().force_linalg_error("layer-x", times=1):
            faulted = robust_quantize_layer(
                weight, hessian, bits=4, group_size=4,
                journal=journal, layer="layer-x",
            )
        # The retry rung re-attempts at the same damping: zero numerical
        # impact, so the faulted run's output is bit-identical.
        np.testing.assert_array_equal(
            faulted.quantized_weight, clean.quantized_weight
        )
        assert [e.category for e in journal.events] == ["retry"]
        assert journal.events[0].layer == "layer-x"

    def test_non_pd_hessian_escalates_to_eigenvalue_clip(self, rng, weight):
        # Positive diagonal (so the dead-channel repair leaves it alone)
        # but eigenvalue -6 — more negative than any reachable damping.
        hessian = np.full((D_IN, D_IN), -1.0)
        np.fill_diagonal(hessian, 1.0)
        journal = RunJournal()
        result = robust_quantize_layer(
            weight, hessian, bits=4, group_size=4,
            journal=journal, layer="L",
        )
        assert np.isfinite(result.quantized_weight).all()
        categories = [e.category for e in journal.events]
        assert "eigenvalue-clip" in categories
        # Every recorded rung appears in ladder order.
        ranks = [LADDER_RUNGS.index(c) for c in categories]
        assert ranks == sorted(ranks)

    def test_full_exhaustion_reaches_rtn_in_ladder_order(self, rng, weight):
        hessian = spd_hessian(rng)
        journal = RunJournal()
        with FaultInjector().force_linalg_error("*", times=100) as injector:
            result = robust_quantize_layer(
                weight, hessian, bits=4, group_size=4,
                journal=journal, layer="L",
            )
        categories = [e.category for e in journal.events]
        policy = RecoveryPolicy()
        expected = (
            ["retry"] * policy.retries
            + ["damp-escalation"] * len(policy.escalation_schedule(0.01))
            + ["eigenvalue-clip", "rtn-fallback"]
        )
        assert categories == expected
        assert result.compensated_loss == 0.0
        assert np.isfinite(result.quantized_weight).all()
        assert all(site == "cholesky" for site, _ in injector.fired)
        health = journal.health()
        assert health.status == "degraded"
        assert health.degraded_layers == ("L",)

    def test_exhaustion_without_rtn_raises(self, rng, weight):
        policy = RecoveryPolicy(allow_rtn_fallback=False)
        with FaultInjector().force_linalg_error("*", times=100):
            with pytest.raises(NumericalRecoveryError, match="ladder exhausted"):
                robust_quantize_layer(
                    weight, spd_hessian(rng), bits=4, group_size=4,
                    policy=policy, layer="L",
                )


class TestPolicy:
    def test_escalation_schedule_geometric_and_capped(self):
        policy = RecoveryPolicy()
        schedule = policy.escalation_schedule(0.01)
        assert schedule == [0.1, 1.0]
        assert all(b / a == pytest.approx(10.0)
                   for a, b in zip(schedule, schedule[1:]))

    def test_zero_percdamp_starts_from_floor(self):
        schedule = RecoveryPolicy().escalation_schedule(0.0)
        assert schedule[0] == pytest.approx(1e-3)
        assert schedule[-1] <= 1.0


class TestPrimitives:
    def test_clip_floors_spectrum(self, rng):
        hessian = np.diag([1.0, -2.0, 0.0, 1e-20, 3.0, 1.0, 1.0, 1.0])
        clipped = clip_hessian_eigenvalues(hessian, floor_scale=1e-8)
        eigenvalues = np.linalg.eigvalsh(clipped)
        assert eigenvalues.min() >= 1e-8 * 3.0 * (1 - 1e-9)
        np.testing.assert_allclose(clipped, clipped.T)

    def test_hessian_inverse_falls_back_to_pinv(self):
        journal = RunJournal()
        singular = np.zeros((4, 4))
        singular[0, 0] = 2.0
        inverse = hessian_inverse(singular, journal=journal, layer="L")
        assert inverse[0, 0] == pytest.approx(0.5)
        assert [e.category for e in journal.events] == ["pinv-fallback"]

    def test_hessian_inverse_exact_on_regular_matrix(self, rng):
        journal = RunJournal()
        hessian = spd_hessian(rng, d=4)
        inverse = hessian_inverse(hessian, journal=journal)
        np.testing.assert_allclose(hessian @ inverse, np.eye(4), atol=1e-9)
        assert journal.events == []


class TestSolverTasks:
    def test_results_and_events_in_task_order(self, rng):
        tasks = [
            SolverTask(
                key=f"task{index}",
                weight=rng.normal(size=(D_IN, D_OUT)),
                hessian=spd_hessian(rng),
                bits=2 + 2 * (index % 2),
                group_size=4,
            )
            for index in range(3)
        ]
        journal = RunJournal()
        injector = FaultInjector()
        # Plans registered out of task order: events still follow tasks.
        injector.force_linalg_error("task2").force_linalg_error("task0")
        with injector:
            results = run_solver_tasks(tasks, journal=journal)
        assert [e.layer for e in journal.events] == ["task0", "task2"]
        for task, result in zip(tasks, results):
            direct = quantize_with_hessian(
                task.weight, task.hessian, bits=task.bits, group_size=4
            )
            np.testing.assert_array_equal(
                result.quantized_weight, direct.quantized_weight
            )
