"""Tests for the perplexity evaluator."""

import numpy as np
import pytest

from repro.eval.perplexity import perplexity, token_nll


class TestTokenNLL:
    def test_untrained_model_near_uniform(self, micro_model, rng):
        tokens = rng.integers(0, 256, size=2000)
        nll = token_nll(micro_model, tokens, seq_len=32)
        assert abs(nll - np.log(256)) < 0.7

    def test_trained_model_below_uniform(self, trained_micro_model,
                                         corpus_splits):
        nll = token_nll(trained_micro_model, corpus_splits.validation[:2000],
                        seq_len=32)
        assert nll < np.log(256) - 0.5

    def test_short_stream_rejected(self, micro_model):
        with pytest.raises(ValueError):
            token_nll(micro_model, np.arange(10), seq_len=32)

    def test_seq_len_minimum(self, micro_model):
        with pytest.raises(ValueError):
            token_nll(micro_model, np.arange(100), seq_len=1)

    def test_batch_size_invariance(self, trained_micro_model, corpus_splits):
        stream = corpus_splits.validation[:2000]
        a = token_nll(trained_micro_model, stream, seq_len=32, batch_size=4)
        b = token_nll(trained_micro_model, stream, seq_len=32, batch_size=64)
        assert a == pytest.approx(b, rel=1e-12)

    def test_trailing_remainder_dropped(self, micro_model, rng):
        tokens = rng.integers(0, 256, size=70)
        a = token_nll(micro_model, tokens, seq_len=32)
        b = token_nll(micro_model, tokens[:64], seq_len=32)
        assert a == pytest.approx(b)


class TestPerplexity:
    def test_exp_of_nll(self, trained_micro_model, corpus_splits):
        stream = corpus_splits.validation[:1000]
        assert perplexity(trained_micro_model, stream, seq_len=32) == (
            pytest.approx(
                np.exp(token_nll(trained_micro_model, stream, seq_len=32))
            )
        )

    def test_default_seq_len_is_model_context(self, trained_micro_model,
                                              corpus_splits):
        stream = corpus_splits.validation[:1000]
        a = perplexity(trained_micro_model, stream)
        b = perplexity(trained_micro_model, stream,
                       seq_len=trained_micro_model.config.max_seq_len)
        assert a == pytest.approx(b)

    def test_bounded_by_vocab_size(self, micro_model, rng):
        tokens = rng.integers(0, 256, size=2000)
        assert perplexity(micro_model, tokens, seq_len=32) < 2 * 256
