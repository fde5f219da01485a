"""Stacked solver stages: one sweep per shape group, bitwise per task.

``quantize_with_hessian`` sweeps a ``(T, d_in, d_out)`` stack of tasks at
once, and ``run_solver_tasks`` settles every task's factor through the
recovery ladder before it sweeps each ``(d_in, d_out, group_size)``
group as one stack.  The oracle is the one-task call each replaces: the
2-D ``quantize_with_hessian`` for a stack, the per-task
``robust_quantize_layer`` loop for a stage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.quant.solver as solver
from repro.quant.solver import (
    HessianFactorCache,
    quantize_with_hessian,
    quantize_with_hessian_reference,
)
from repro.runtime import (
    FaultInjector,
    RunJournal,
    SolverTask,
    robust_quantize_layer,
    run_solver_tasks,
)


def spd(rng, d):
    basis = rng.standard_normal((d, d))
    return basis @ basis.T / d + 0.05 * np.eye(d)


def assert_bitwise(got, want, where=""):
    """Exact equality of two solver results, down to the bytes."""
    for field in ("codes", "scales", "zeros"):
        a = getattr(got.group_result, field)
        b = getattr(want.group_result, field)
        assert a.dtype == b.dtype and a.shape == b.shape, (where, field)
        assert np.array_equal(a, b), (where, field)
        assert a.tobytes() == b.tobytes(), (where, field)
    assert got.group_result.bits == want.group_result.bits, where
    assert got.group_result.group_size == want.group_result.group_size, where
    assert got.quantized_weight.shape == want.quantized_weight.shape, where
    assert np.array_equal(got.quantized_weight, want.quantized_weight), where
    assert got.quantized_weight.tobytes() == want.quantized_weight.tobytes()
    assert got.compensated_loss == want.compensated_loss, where
    assert got.mse == want.mse, where


@st.composite
def stacks(draw):
    """A stack of same-shaped tasks with mixed widths and Hessians."""
    n_tasks = draw(st.sampled_from([1, 2, 5, 12]))
    # 40 and 176 are divided by none of the group, micro-tile (16) and
    # block sizes.
    d_in = draw(st.sampled_from([8, 16, 40, 64, 176]))
    d_out = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kron = draw(st.booleans())
    if kron:
        # KronQ: every task scales one shared Hessian by its own gain.
        shared = spd(rng, d_in)
        hessians = [shared] * n_tasks
        scales = list(rng.uniform(0.1, 10.0, size=n_tasks))
    else:
        hessians = [spd(rng, d_in) for _ in range(n_tasks)]
        scales = [1.0] * n_tasks
    if draw(st.booleans()):
        # A dead input channel in the first task.
        dead = int(rng.integers(d_in))
        hessians[0] = hessians[0].copy()
        hessians[0][dead, :] = 0.0
        hessians[0][:, dead] = 0.0
    return {
        "weights": rng.standard_normal((n_tasks, d_in, d_out)),
        "hessians": hessians,
        "bits": draw(st.lists(st.integers(2, 8), min_size=n_tasks,
                              max_size=n_tasks)),
        "percdamp": list(rng.uniform(0.001, 0.1, size=n_tasks)),
        "scales": scales,
        "group_size": draw(st.sampled_from([None, 8, 32, 48])),
        "blocksize": draw(st.sampled_from([16, 40, 128])),
        "cached": draw(st.booleans()),
    }


class TestStackedSweep:
    @settings(max_examples=40, deadline=None)
    @given(stacks())
    def test_stack_equals_one_call_per_task(self, stack):
        cache = HessianFactorCache() if stack["cached"] else None
        stacked = quantize_with_hessian(
            stack["weights"],
            stack["hessians"],
            bits=stack["bits"],
            group_size=stack["group_size"],
            blocksize=stack["blocksize"],
            percdamp=stack["percdamp"],
            cache=cache,
            hessian_scale=stack["scales"],
        )
        assert len(stacked) == len(stack["weights"])
        for task, got in enumerate(stacked):
            want = quantize_with_hessian(
                stack["weights"][task],
                stack["hessians"][task],
                bits=stack["bits"][task],
                group_size=stack["group_size"],
                blocksize=stack["blocksize"],
                percdamp=stack["percdamp"][task],
                hessian_scale=stack["scales"][task],
            )
            assert_bitwise(got, want, f"task {task}")

    @pytest.mark.parametrize("shape", [(40, 7), (176, 16), (64, 16)])
    @pytest.mark.parametrize("group_size", [8, 32, None], ids=str)
    def test_stack_matches_the_reference_sweep(self, shape, group_size):
        # The column-at-a-time oracle shares no sweep code with the stack:
        # the arrays agree exactly, the loss to machine precision.
        rng = np.random.default_rng(sum(shape))
        weights = rng.standard_normal((5, *shape))
        hessians = [spd(rng, shape[0]) for _ in range(5)]
        bits = [2, 3, 4, 6, 8]
        stacked = quantize_with_hessian(
            weights, hessians, bits=bits, group_size=group_size
        )
        for weight, hessian, width, got in zip(
            weights, hessians, bits, stacked
        ):
            want = quantize_with_hessian_reference(
                weight, hessian, bits=width, group_size=group_size
            )
            for field in ("codes", "scales", "zeros"):
                assert np.array_equal(
                    getattr(got.group_result, field),
                    getattr(want.group_result, field),
                )
            assert np.array_equal(got.quantized_weight, want.quantized_weight)
            assert got.compensated_loss == pytest.approx(
                want.compensated_loss, rel=1e-12
            )

    def test_per_task_lengths_must_match_the_stack(self, rng):
        weights = rng.standard_normal((3, 8, 4))
        hessians = [spd(rng, 8) for _ in range(3)]
        with pytest.raises(ValueError, match="2 Hessians given for 3"):
            quantize_with_hessian(weights, hessians[:2], bits=4)
        with pytest.raises(ValueError, match="bits holds 2 entries"):
            quantize_with_hessian(weights, hessians, bits=[4, 4])
        with pytest.raises(ValueError, match="does not match d_in"):
            quantize_with_hessian(
                weights, [*hessians[:2], spd(rng, 6)], bits=4
            )


def stage_tasks(rng):
    """One stage: 4 heads and a middle task in one group, two more shapes.

    The middle head's Hessian is not positive definite beyond any
    damping (eigenvalue clip); ``stage.rtn`` is driven to RTN by faults.
    """
    non_pd = np.full((16, 16), -1.0)
    np.fill_diagonal(non_pd, 1.0)
    heads = [
        SolverTask(f"stage.q_proj[head {h}]", rng.standard_normal((16, 4)),
                   spd(rng, 16), bits=4, group_size=8)
        for h in range(4)
    ]
    shared = spd(rng, 16)
    return [
        heads[0],
        heads[1],
        SolverTask("stage.middle", rng.standard_normal((16, 4)), non_pd,
                   bits=2, group_size=8),
        heads[2],
        SolverTask("stage.rtn", rng.standard_normal((16, 4)), spd(rng, 16),
                   bits=3, group_size=8),
        SolverTask("stage.gate", rng.standard_normal((16, 12)), shared,
                   bits=4, group_size=8),
        heads[3],
        SolverTask("stage.up", rng.standard_normal((16, 12)), shared,
                   bits=2, group_size=8),
        SolverTask("stage.down", rng.standard_normal((12, 16)), spd(rng, 12),
                   bits=4, group_size=None),
        SolverTask("stage.kron", rng.standard_normal((16, 4)), shared,
                   bits=4, group_size=8, hessian_scale=2.5),
    ]


def faults():
    # Fault keys are globs: ``[[]`` matches the literal bracket.
    return (
        FaultInjector()
        .force_linalg_error("stage.q_proj[[]head 1]", times=1)
        .force_linalg_error("stage.rtn", times=100)
    )


class TestLadderInsideAStage:
    def run_stage(self, tasks):
        journal, cache = RunJournal(), HessianFactorCache()
        with faults():
            results = run_solver_tasks(tasks, journal=journal, cache=cache)
        return results, journal, cache

    def run_per_task(self, tasks):
        journal, cache = RunJournal(), HessianFactorCache()
        with faults():
            results = [
                robust_quantize_layer(
                    task.weight,
                    task.hessian,
                    bits=task.bits,
                    group_size=task.group_size,
                    percdamp=task.percdamp,
                    journal=journal,
                    layer=task.key,
                    cache=cache,
                    hessian_scale=task.hessian_scale,
                )
                for task in tasks
            ]
        return results, journal, cache

    def test_stage_equals_the_per_task_ladder(self, rng):
        tasks = stage_tasks(rng)
        got, got_journal, got_cache = self.run_stage(tasks)
        want, want_journal, want_cache = self.run_per_task(tasks)
        for task, a, b in zip(tasks, got, want):
            assert_bitwise(a, b, task.key)
        assert [e.to_json() for e in got_journal.events] == [
            e.to_json() for e in want_journal.events
        ]
        assert got_cache.misses == want_cache.misses
        assert got_cache.hits == want_cache.hits
        # Every rung fired, in task order: the faulted head retried, the
        # middle task reached the eigenvalue clip, the last fell to RTN.
        layers = [e.layer for e in got_journal.events]
        assert layers == sorted(layers, key=[t.key for t in tasks].index)
        categories = {e.layer: [] for e in got_journal.events}
        for event in got_journal.events:
            categories[event.layer].append(event.category)
        assert categories["stage.q_proj[head 1]"] == ["retry"]
        assert categories["stage.middle"][-1] == "eigenvalue-clip"
        assert categories["stage.rtn"][-1] == "rtn-fallback"
        assert got[4].compensated_loss == 0.0

    def test_one_sweep_per_shape_group(self, rng, monkeypatch):
        # The stage looks the solver entry point up at call time, so a
        # wrapper installed on the module sees every sweep.
        calls = []
        entry = solver.quantize_with_hessian

        def spy(weight, *args, **kwargs):
            calls.append(np.shape(weight))
            return entry(weight, *args, **kwargs)

        monkeypatch.setattr(solver, "quantize_with_hessian", spy)
        self.run_stage(stage_tasks(rng))
        # Heads + middle + kron share (16, 4, 8); gate/up share
        # (16, 12, 8); down is alone; the RTN task is never swept.
        assert calls == [(6, 16, 4), (2, 16, 12), (1, 12, 16)]

    def test_stage_without_a_cache_matches_a_cached_one(self, rng):
        tasks = stage_tasks(rng)
        cached, _, _ = self.run_stage(tasks)
        with faults():
            uncached = run_solver_tasks(tasks)
        for task, a, b in zip(tasks, uncached, cached):
            assert_bitwise(a, b, task.key)
