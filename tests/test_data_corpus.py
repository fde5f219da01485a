"""Tests for the synthetic corpora."""

import numpy as np
import pytest

from repro.data.corpus import (
    SyntheticCorpus,
    c4_domains,
    c4_sim,
    default_tokenizer,
    wikitext2_sim,
)
from repro.data.grammar import MarkovGrammar


class TestSyntheticCorpus:
    def test_tokens_deterministic(self, corpus):
        assert np.array_equal(
            corpus.tokens(500, seed_offset=1), corpus.tokens(500, seed_offset=1)
        )

    def test_seed_offsets_disjoint(self, corpus):
        a = corpus.tokens(500, seed_offset=1)
        b = corpus.tokens(500, seed_offset=2)
        assert not np.array_equal(a, b)

    def test_tokens_in_model_vocab_range(self, corpus):
        tokens = corpus.tokens(1000)
        assert tokens.min() >= corpus.tokenizer.num_specials
        assert tokens.max() < corpus.tokenizer.vocab_size

    def test_splits_sizes(self, corpus):
        splits = corpus.splits(
            train_tokens=1000, validation_tokens=200, test_tokens=300
        )
        assert splits.train.size == 1000
        assert splits.validation.size == 200
        assert splits.test.size == 300

    def test_zero_tokens_is_an_empty_stream(self, corpus):
        tokens = corpus.tokens(0)
        assert tokens.dtype == np.int64 and tokens.size == 0
        with pytest.raises(ValueError):
            corpus.tokens(-1)

    def test_splits_are_seeded_independently(self, corpus):
        # Asking for one split only leaves that split's stream unchanged.
        full = corpus.splits(
            train_tokens=900, validation_tokens=200, test_tokens=300
        )
        test_only = corpus.splits(
            train_tokens=0, validation_tokens=0, test_tokens=300
        )
        train_only = corpus.splits(
            train_tokens=900, validation_tokens=0, test_tokens=0
        )
        assert np.array_equal(test_only.test, full.test)
        assert np.array_equal(train_only.train, full.train)
        assert train_only.test.size == test_only.train.size == 0

    def test_text_round_trip(self, corpus):
        text = corpus.text(50)
        assert np.array_equal(corpus.tokenizer.encode(text), corpus.tokens(50))

    def test_invalid_weights_rejected(self, tokenizer):
        grammar = MarkovGrammar(252, seed=1)
        with pytest.raises(ValueError):
            SyntheticCorpus("bad", [grammar], [-1.0], tokenizer)
        with pytest.raises(ValueError):
            SyntheticCorpus("bad", [], [], tokenizer)
        with pytest.raises(ValueError):
            SyntheticCorpus("bad", [grammar], [1.0, 2.0], tokenizer)


class TestStandardCorpora:
    def test_c4_has_four_domains(self):
        assert len(c4_domains()) == 4

    def test_domains_share_class_structure(self):
        domains = c4_domains()
        for other in domains[1:]:
            assert np.array_equal(domains[0].word_class, other.word_class)

    def test_domains_have_distinct_transitions(self):
        domains = c4_domains()
        assert not np.array_equal(
            domains[0]._successor_classes, domains[1]._successor_classes
        )

    def test_corpora_share_tokenizer_vocab(self):
        tok = default_tokenizer()
        assert c4_sim(tok).tokenizer is tok
        assert wikitext2_sim(tok).tokenizer is tok

    def test_wikitext_differs_from_c4(self):
        a = c4_sim().tokens(2000, seed_offset=1)
        b = wikitext2_sim().tokens(2000, seed_offset=1)
        assert not np.array_equal(a, b)

    def test_names(self):
        assert c4_sim().name == "c4-sim"
        assert wikitext2_sim().name == "wikitext2-sim"
