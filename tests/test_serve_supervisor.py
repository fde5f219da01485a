"""Worker supervision: crash/stall detection, backoff restarts, isolation.

Covers the generic :class:`~repro.runtime.parallel.ForkedWorker` process
harness (real fork, real kill, real hang), the
:class:`~repro.serve.engine.ForkedEngineWorker` parity with the in-process
engine, and the :class:`~repro.serve.supervisor.WorkerSupervisor`'s
restart/backoff/journal behaviour on injected failures.
"""

import os
import time

import numpy as np
import pytest

from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.runtime.errors import WorkerCrashed, WorkerStalled
from repro.runtime.journal import RunJournal
from repro.runtime.parallel import ForkedWorker
from repro.serve.engine import ForkedEngineWorker, InProcessWorker
from repro.serve.session import ManualClock
from repro.serve.supervisor import WorkerSupervisor

CONFIG = LlamaConfig(
    vocab_size=61,
    d_model=16,
    n_layers=2,
    n_heads=2,
    d_ff=24,
    max_seq_len=48,
)


@pytest.fixture(scope="module")
def model():
    return LlamaModel(CONFIG, seed=0)


def _echo(message):
    return ("echo", message)


def _boom(message):
    raise ValueError(f"bad payload {message!r}")


def _exit_hard(message):
    os._exit(17)


def _sleepy(message):
    time.sleep(float(message))
    return "awake"


class TestForkedWorker:
    def test_roundtrip_and_reuse(self):
        worker = ForkedWorker(_echo)
        try:
            assert worker.call(1) == ("echo", 1)
            assert worker.call({"k": np.arange(3)})[0] == "echo"
            assert worker.alive()
        finally:
            worker.close()

    def test_remote_exception_is_rethrown_not_fatal(self):
        worker = ForkedWorker(_boom)
        try:
            with pytest.raises(ValueError, match="bad payload"):
                worker.call("x")
            assert worker.alive()  # an exception is an answer, not a death
        finally:
            worker.close()

    def test_child_death_raises_worker_crashed(self):
        worker = ForkedWorker(_exit_hard)
        with pytest.raises(WorkerCrashed):
            worker.call("die")
        deadline = time.monotonic() + 5.0
        while worker.alive() and time.monotonic() < deadline:
            time.sleep(0.01)  # child teardown is asynchronous
        assert not worker.alive()

    def test_kill_then_call_raises_worker_crashed(self):
        worker = ForkedWorker(_echo)
        worker.kill()
        with pytest.raises(WorkerCrashed):
            worker.call("anyone home")

    def test_hang_past_timeout_raises_worker_stalled(self):
        worker = ForkedWorker(_sleepy)
        try:
            with pytest.raises(WorkerStalled):
                worker.call(30.0, timeout=0.2)
        finally:
            worker.kill()


class TestForkedEngineWorker:
    def test_matches_in_process_engine_bitwise(self, model):
        prompt = np.array([5, 4, 3, 2])
        local = InProcessWorker(model, block_size=4, num_blocks=32)
        remote = ForkedEngineWorker(
            model, block_size=4, num_blocks=32, timeout=30.0
        )
        try:
            local_logits = local.prefill("s", prompt)
            remote_logits = remote.prefill("s", prompt)
            np.testing.assert_array_equal(local_logits, remote_logits)
            token = int(np.argmax(local_logits))
            local_step, _ = local.decode([("s", token, prompt.size)])
            remote_step, _ = remote.decode([("s", token, prompt.size)])
            np.testing.assert_array_equal(local_step, remote_step)
            assert remote.stats()["sequences"] == 1
            assert remote.release("s") > 0
        finally:
            remote.close()

    def test_killed_engine_reports_crash(self, model):
        remote = ForkedEngineWorker(model, block_size=4, num_blocks=32)
        remote.kill()
        with pytest.raises(WorkerCrashed):
            remote.stats()


class _FlakyWorker:
    """Crashes on its first ``fail_first`` engine calls, then succeeds."""

    failures = 0

    def __init__(self, fail_first):
        self._fail_first = fail_first

    def step(self, prefills, decodes):
        if _FlakyWorker.failures < self._fail_first:
            _FlakyWorker.failures += 1
            raise WorkerCrashed("injected")
        return np.zeros((len(prefills) + len(decodes), 4)), 0.0

    def stats(self):
        return {"ok": 1}

    def close(self):
        return None


class TestWorkerSupervisor:
    def test_restart_with_exponential_backoff_on_clock(self):
        _FlakyWorker.failures = 0
        clock = ManualClock()
        journal = RunJournal()
        supervisor = WorkerSupervisor(
            lambda: _FlakyWorker(fail_first=2),
            journal=journal,
            clock=clock,
            backoff_base=0.1,
        )
        for _ in range(2):
            with pytest.raises(WorkerCrashed):
                supervisor.step([], [("s", 0, 0)])
        # Two consecutive failures: 0.1s then 0.2s of backoff.
        assert clock.now() == pytest.approx(0.3)
        assert supervisor.restarts == 2
        logits, delay = supervisor.step([], [("s", 0, 0)])
        assert logits.shape == (1, 4) and delay == 0.0
        categories = [e.category for e in journal.health().events]
        assert categories.count("worker-crash") == 2
        assert categories.count("worker-restart") == 2

    def test_success_resets_failure_streak(self):
        _FlakyWorker.failures = 0
        clock = ManualClock()
        supervisor = WorkerSupervisor(
            lambda: _FlakyWorker(fail_first=1),
            clock=clock,
            backoff_base=0.1,
        )
        with pytest.raises(WorkerCrashed):
            supervisor.step([], [("s", 0, 0)])
        supervisor.step([], [("s", 0, 0)])  # success
        _FlakyWorker.failures = 0  # make it flaky again
        supervisor._worker = _FlakyWorker(fail_first=1)
        with pytest.raises(WorkerCrashed):
            supervisor.step([], [("s", 0, 0)])
        # Streak restarted at 1: second backoff is the base again.
        assert clock.now() == pytest.approx(0.2)

    def test_backoff_is_capped(self):
        _FlakyWorker.failures = 0
        clock = ManualClock()
        supervisor = WorkerSupervisor(
            lambda: _FlakyWorker(fail_first=6),
            clock=clock,
            backoff_base=0.1,
            backoff_cap=0.25,
        )
        for _ in range(6):
            with pytest.raises(WorkerCrashed):
                supervisor.step([], [("s", 0, 0)])
        # 0.1 + 0.2 + 0.25 * 4 (capped) = 1.3
        assert clock.now() == pytest.approx(1.3)

    def test_release_tolerates_dead_worker(self):
        class _Dead:
            def release(self, seq_id):
                raise WorkerCrashed("gone")

        supervisor = WorkerSupervisor(lambda: _Dead(), clock=ManualClock())
        assert supervisor.release("s") == 0
