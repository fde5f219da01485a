"""Tests for the perplexity evaluator."""

import numpy as np
import pytest

from repro.eval.perplexity import CHUNK_WINDOWS, perplexity, token_nll
from repro.nn import functional as F


def unchunked_token_nll(model, tokens, seq_len, batch_size):
    """token_nll with one forward per batch: the chunking oracle."""
    n_windows = tokens.size // seq_len
    windows = tokens[: n_windows * seq_len].reshape(n_windows, seq_len)
    total_nll = 0.0
    total_count = 0
    for start in range(0, n_windows, batch_size):
        batch = windows[start : start + batch_size]
        nll = F.gather_nll(model.forward_array(batch[:, :-1]), batch[:, 1:])
        total_nll += float(nll.sum())
        total_count += nll.size
    return total_nll / total_count


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

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_minimum(self, micro_model, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            token_nll(micro_model, np.arange(100), seq_len=8,
                      batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            perplexity(micro_model, np.arange(100), seq_len=8,
                       batch_size=batch_size)

    @pytest.mark.parametrize(
        "n_windows, batch_size",
        [(7, 16), (7, 6), (CHUNK_WINDOWS * 3, 16), (13, 5), (1, 16)],
    )
    def test_chunked_forward_is_bit_identical(
        self, trained_micro_model, corpus_splits, n_windows, batch_size
    ):
        # Window counts the chunk does not divide leave a short last chunk.
        stream = corpus_splits.validation[: n_windows * 32 + 5]
        assert token_nll(
            trained_micro_model, stream, seq_len=32, batch_size=batch_size
        ) == unchunked_token_nll(trained_micro_model, stream, 32, batch_size)

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
