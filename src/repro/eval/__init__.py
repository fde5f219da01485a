"""Evaluation harness: perplexity and zero-shot multiple-choice accuracy.

Mirrors the paper's two metrics: corpus perplexity (C4 / WikiText-2) and
length-normalised multiple-choice log-likelihood accuracy as computed by the
EleutherAI lm-evaluation-harness.
"""

from repro.eval.perplexity import perplexity, token_nll
from repro.eval.zeroshot import (
    choice_loglikelihoods,
    evaluate_suite,
    evaluate_suites,
)

__all__ = [
    "perplexity",
    "token_nll",
    "choice_loglikelihoods",
    "evaluate_suite",
    "evaluate_suites",
]
