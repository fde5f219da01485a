"""Tests for the zero-shot multiple-choice harness."""

import numpy as np
import pytest

from repro.data.tasks import MultipleChoiceExample, TaskSuite, build_task_suite
from repro.eval.zeroshot import (
    choice_loglikelihoods,
    evaluate_suite,
    evaluate_suites,
)


class TestChoiceLoglikelihoods:
    def test_scores_one_per_choice(self, trained_micro_model, rng):
        example = MultipleChoiceExample(
            context=rng.integers(4, 256, size=10),
            choices=[rng.integers(4, 256, size=5) for _ in range(3)],
            answer=0,
        )
        scores = choice_loglikelihoods(trained_micro_model, example)
        assert scores.shape == (3,)
        assert np.all(scores < 0)

    def test_length_normalisation_divides_by_length(
        self, trained_micro_model, rng
    ):
        example = MultipleChoiceExample(
            context=rng.integers(4, 256, size=10),
            choices=[rng.integers(4, 256, size=4) for _ in range(2)],
            answer=0,
        )
        raw = choice_loglikelihoods(
            trained_micro_model, example, length_normalise=False
        )
        normed = choice_loglikelihoods(
            trained_micro_model, example, length_normalise=True
        )
        assert np.allclose(raw / 4.0, normed)

    def test_long_sequences_truncated_to_context(self, trained_micro_model, rng):
        example = MultipleChoiceExample(
            context=rng.integers(4, 256, size=60),
            choices=[rng.integers(4, 256, size=8) for _ in range(2)],
            answer=0,
        )
        scores = choice_loglikelihoods(trained_micro_model, example)
        assert np.all(np.isfinite(scores))


class TestEvaluateSuite:
    def test_trained_model_beats_chance(self, trained_micro_model,
                                        single_corpus):
        suite = build_task_suite(
            "probe",
            single_corpus.grammars[0],
            single_corpus.tokenizer,
            n_examples=60,
            n_choices=2,
            context_len=16,
            continuation_len=6,
            distractor="random",
            seed=4,
        )
        accuracy = evaluate_suite(trained_micro_model, suite)
        assert accuracy > 0.65  # chance is 0.5

    def test_untrained_model_near_chance(self, micro_model, single_corpus):
        suite = build_task_suite(
            "probe",
            single_corpus.grammars[0],
            single_corpus.tokenizer,
            n_examples=60,
            n_choices=2,
            context_len=16,
            continuation_len=6,
            distractor="random",
            seed=4,
        )
        accuracy = evaluate_suite(micro_model, suite)
        assert 0.2 < accuracy < 0.8

    def test_empty_suite_rejected(self, micro_model):
        with pytest.raises(ValueError):
            evaluate_suite(micro_model, TaskSuite(name="empty", examples=[]))


class TestEvaluateSuites:
    def test_mean_included(self, trained_micro_model, single_corpus):
        suites = [
            build_task_suite(
                f"s{i}",
                single_corpus.grammars[0],
                single_corpus.tokenizer,
                n_examples=10,
                distractor="random",
                seed=i,
            )
            for i in range(2)
        ]
        results = evaluate_suites(trained_micro_model, suites)
        assert set(results) == {"s0", "s1", "mean"}
        assert results["mean"] == pytest.approx(
            (results["s0"] + results["s1"]) / 2
        )
