"""High-level evaluation runner combining perplexity and zero-shot metrics."""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.data.tasks import TaskSuite
from repro.eval.perplexity import perplexity
from repro.eval.zeroshot import evaluate_suites
from repro.nn.transformer import LlamaModel

__all__ = ["EvaluationReport", "evaluate_model"]


@dataclasses.dataclass
class EvaluationReport:
    """All metrics for one (model, method) configuration."""

    label: str
    average_bits: float
    perplexities: dict[str, float]
    zero_shot: dict[str, float]

    def summary_row(self) -> dict[str, float | str]:
        """Flatten into a table row keyed by metric name."""
        row: dict[str, float | str] = {
            "method": self.label,
            "avg_bits": self.average_bits,
        }
        for corpus, value in self.perplexities.items():
            row[f"ppl/{corpus}"] = value
        for task, value in self.zero_shot.items():
            row[f"acc/{task}"] = value
        return row


def evaluate_model(
    model: LlamaModel,
    label: str,
    average_bits: float = 16.0,
    eval_streams: Optional[dict[str, np.ndarray]] = None,
    suites: Optional[list[TaskSuite]] = None,
    seq_len: Optional[int] = None,
) -> EvaluationReport:
    """Evaluate ``model`` on perplexity streams and/or task suites."""
    perplexities: dict[str, float] = {}
    if eval_streams:
        for corpus_name, stream in eval_streams.items():
            perplexities[corpus_name] = perplexity(model, stream, seq_len=seq_len)
    zero_shot: dict[str, float] = {}
    if suites:
        zero_shot = evaluate_suites(model, suites)
    return EvaluationReport(
        label=label,
        average_bits=average_bits,
        perplexities=perplexities,
        zero_shot=zero_shot,
    )
