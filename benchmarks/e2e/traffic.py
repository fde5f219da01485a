"""Serve traffic owned by the benchmark: request streams and the closed
loop that drives them against a :class:`repro.serve.ContinuousBatchScheduler`.

The streams come from the caller's ``np.random.default_rng(seed)``, not
from ``repro.serve.loadgen``, so a change to the program cannot change
the traffic.  The loop is closed: a fixed number of clients each send
their next request as soon as the previous one completes (no think
time), so a slower server receives proportionally less load.  An open
loop was tried for the prefill workload and dropped: on the benchmark
host its queueing turned a 10% change in CPU speed into a 14-23% change
in latency, beyond the regression bounds.

A request's tokens are observed after every scheduler step.  Tokens that
land in one step reach a streaming client together, as one delivery:
TTFT is the time from submission to the first delivery and the
inter-token latency (ITL) the gap between successive deliveries.  A
newly admitted request gets its prefill token and its first decoded
token in the same step.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

import numpy as np

from repro.runtime.errors import AdmissionError

__all__ = ["Request", "ServeOutcome", "make_requests", "drive"]


@dataclasses.dataclass(frozen=True)
class Request:
    """One greedy generation request."""

    prompt: np.ndarray
    max_new_tokens: int


def make_requests(
    rng: np.random.Generator,
    count: int,
    prompt_len: tuple[int, int],
    new_tokens: tuple[int, int],
    vocab_size: int,
) -> list[Request]:
    """``count`` requests with uniform prompt/output lengths (inclusive)."""
    requests = []
    for _ in range(count):
        length = int(rng.integers(prompt_len[0], prompt_len[1] + 1))
        requests.append(
            Request(
                prompt=rng.integers(0, vocab_size, size=length),
                max_new_tokens=int(rng.integers(new_tokens[0], new_tokens[1] + 1)),
            )
        )
    return requests


@dataclasses.dataclass
class ServeOutcome:
    """Everything one traffic run observed, per request and in aggregate."""

    sent: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    generated_tokens: int = 0
    preemptions: int = 0
    wall_s: float = 0.0
    ttft_s: list[float] = dataclasses.field(default_factory=list)
    itl_s: list[float] = dataclasses.field(default_factory=list)
    #: Delay between a client becoming free and its request being submitted.
    lag_s: list[float] = dataclasses.field(default_factory=list)
    #: Submission time by request id.
    submitted_at: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Every completed request with the tokens it generated.
    completions: list[tuple[Request, list[int]]] = dataclasses.field(
        default_factory=list
    )


class _Live:
    """Driver-side state of one in-flight request."""

    __slots__ = ("request", "handle", "last_token_at", "seen")

    def __init__(self, request: Request, handle) -> None:
        self.request = request
        self.handle = handle
        self.last_token_at: Optional[float] = None
        self.seen = 0


async def drive(
    scheduler,
    requests: list[Request],
    clients: int,
    id_prefix: str = "r",
) -> ServeOutcome:
    """Send ``requests``, in order, from ``clients`` closed-loop clients.

    Returns once every request has finished.  Request ids are
    ``id_prefix`` followed by the request's index.
    """
    outcome = ServeOutcome()
    live: dict[str, _Live] = {}
    queue = list(reversed(requests))

    def submit(free_since: float) -> None:
        request = queue.pop()
        request_id = f"{id_prefix}{outcome.sent}"
        outcome.sent += 1
        now = time.perf_counter()
        outcome.lag_s.append(now - free_since)
        outcome.submitted_at[request_id] = now
        try:
            handle = scheduler.submit(
                request.prompt,
                max_new_tokens=request.max_new_tokens,
                temperature=0.0,
                request_id=request_id,
            )
        except AdmissionError:
            outcome.rejected += 1
            return
        live[request_id] = _Live(request, handle)

    start = time.perf_counter()
    for _ in range(min(clients, len(queue))):
        submit(start)
    while scheduler.busy:
        await scheduler.step()
        now = time.perf_counter()
        for request_id, state in list(live.items()):
            handle = state.handle
            count = len(handle.tokens)
            if count > state.seen:
                if state.last_token_at is None:
                    outcome.ttft_s.append(now - outcome.submitted_at[request_id])
                else:
                    outcome.itl_s.append(now - state.last_token_at)
                state.last_token_at = now
                state.seen = count
            if not handle.done:
                continue
            del live[request_id]
            if handle.state == "completed":
                outcome.completed += 1
                outcome.generated_tokens += count
                outcome.completions.append((state.request, list(handle.tokens)))
            else:
                outcome.failed += 1
            if queue:
                submit(now)
    outcome.wall_s = time.perf_counter() - start
    outcome.preemptions = scheduler.journal.health().counts().get("preempt", 0)
    return outcome
