"""Zero-shot multiple-choice scoring (the paper's Table 2 metric).

Implements the scoring rule of the EleutherAI lm-evaluation-harness: for
each candidate continuation, sum the conditional log-likelihood of its
tokens given the context, normalise by continuation length, and pick the
argmax.

Per-token log-likelihoods go through the fused
:func:`repro.nn.functional.gather_nll` (no full-vocab log-prob tensor).
"""

from __future__ import annotations

import numpy as np

from repro.data.tasks import MultipleChoiceExample, TaskSuite
from repro.nn import functional as F
from repro.nn.transformer import LlamaModel

__all__ = ["choice_loglikelihoods", "evaluate_suite", "evaluate_suites"]


def choice_loglikelihoods(
    model: LlamaModel,
    example: MultipleChoiceExample,
    length_normalise: bool = True,
) -> np.ndarray:
    """Log-likelihood of each choice continuation given the context."""
    scores = np.empty(len(example.choices))
    max_len = model.config.max_seq_len
    for index, choice in enumerate(example.choices):
        sequence = np.concatenate([example.context, choice])
        if sequence.size > max_len:
            sequence = sequence[-max_len:]
        logits = model.forward_array(sequence[None, :-1])[0]
        picked = -F.gather_nll(logits, sequence[1:])
        continuation = picked[-choice.size :]
        total = float(continuation.sum())
        scores[index] = total / choice.size if length_normalise else total
    return scores


def evaluate_suite(
    model: LlamaModel,
    suite: TaskSuite,
    length_normalise: bool = True,
) -> float:
    """Accuracy of ``model`` on ``suite`` (fraction of correct argmaxes)."""
    if not suite.examples:
        raise ValueError(f"suite {suite.name} is empty")
    correct = 0
    for example in suite.examples:
        scores = choice_loglikelihoods(model, example, length_normalise)
        if int(np.argmax(scores)) == example.answer:
            correct += 1
    return correct / len(suite.examples)


def evaluate_suites(
    model: LlamaModel,
    suites: list[TaskSuite],
    length_normalise: bool = True,
) -> dict[str, float]:
    """Accuracy per suite plus the cross-suite mean under key ``"mean"``."""
    results = {
        suite.name: evaluate_suite(model, suite, length_normalise)
        for suite in suites
    }
    results["mean"] = float(np.mean(list(results.values())))
    return results
