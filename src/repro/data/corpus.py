"""Synthetic corpora standing in for C4 and WikiText-2.

``c4-sim`` is a mixture over several Markov grammar "domains" (C4 is a
diverse web crawl); ``wikitext2-sim`` draws from a single domain that is a
member of the c4-sim mixture but mixed with an unseen domain (WikiText-2 is
narrower and distributionally shifted from C4).  Models are pretrained on
the c4-sim training split; calibration uses c4-sim, matching the paper's
protocol, which makes wikitext2-sim the "out-of-calibration-distribution"
evaluation exactly as in Table 1.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.data.grammar import MarkovGrammar
from repro.data.tokenizer import WordTokenizer, build_lexicon

__all__ = [
    "CorpusSplits",
    "SyntheticCorpus",
    "default_tokenizer",
    "c4_domains",
    "c4_sim",
    "wikitext2_sim",
]

DEFAULT_N_WORDS = 252  # + 4 specials = 256 vocab

# All domains of the synthetic language share one lexical class structure.
SHARED_CLASS_SEED = 7


@dataclasses.dataclass
class CorpusSplits:
    """Flat token-id streams for train/validation/test."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


class SyntheticCorpus:
    """A seeded mixture of Markov grammar domains rendered through a tokenizer."""

    def __init__(
        self,
        name: str,
        grammars: Sequence[MarkovGrammar],
        weights: Sequence[float],
        tokenizer: WordTokenizer,
        segment_len: int = 256,
        seed: int = 0,
    ) -> None:
        if len(grammars) != len(weights) or not grammars:
            raise ValueError("grammars and weights must be equal-length, non-empty")
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        self.name = name
        self.grammars = list(grammars)
        self.weights = weights / weights.sum()
        self.tokenizer = tokenizer
        self.segment_len = int(segment_len)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def sample_word_ids(self, n_tokens: int, rng: np.random.Generator) -> np.ndarray:
        """Sample a word-id stream by concatenating domain segments."""
        if n_tokens < 0:
            raise ValueError("n_tokens must be non-negative")
        chunks: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        total = 0
        while total < n_tokens:
            grammar = self.grammars[rng.choice(len(self.grammars), p=self.weights)]
            chunk = grammar.sample(self.segment_len, rng=rng)
            chunks.append(chunk)
            total += chunk.size
        return np.concatenate(chunks)[:n_tokens]

    def tokens(self, n_tokens: int, seed_offset: int = 0) -> np.ndarray:
        """Deterministic token-id stream of length ``n_tokens``."""
        rng = np.random.default_rng([self.seed, seed_offset])
        words = self.sample_word_ids(n_tokens, rng)
        return self.tokenizer.word_ids_to_token_ids(words)

    def text(self, n_tokens: int, seed_offset: int = 0) -> str:
        """Render a sample as whitespace-separated text."""
        return self.tokenizer.decode(self.tokens(n_tokens, seed_offset))

    def splits(
        self,
        train_tokens: int = 200_000,
        validation_tokens: int = 20_000,
        test_tokens: int = 20_000,
    ) -> CorpusSplits:
        """Disjointly seeded train/validation/test streams."""
        return CorpusSplits(
            train=self.tokens(train_tokens, seed_offset=1),
            validation=self.tokens(validation_tokens, seed_offset=2),
            test=self.tokens(test_tokens, seed_offset=3),
        )


def default_tokenizer(n_words: int = DEFAULT_N_WORDS, seed: int = 7) -> WordTokenizer:
    """The tokenizer shared by all standard corpora and tasks."""
    return WordTokenizer(build_lexicon(n_words, seed=seed))


#: ``(branching, zipf_exponent, seed)`` of each c4-sim domain.
_C4_DOMAIN_SPECS = ((5, 1.2, 101), (8, 1.0, 202), (4, 1.4, 303), (10, 0.8, 404))


def _domain(
    n_words: int, branching: int, zipf_exponent: float, seed: int
) -> MarkovGrammar:
    return MarkovGrammar(
        n_words,
        branching=branching,
        zipf_exponent=zipf_exponent,
        seed=seed,
        class_seed=SHARED_CLASS_SEED,
    )


def c4_domains(n_words: int = DEFAULT_N_WORDS) -> list[MarkovGrammar]:
    """The four web-like domains mixed into c4-sim."""
    return [_domain(n_words, *spec) for spec in _C4_DOMAIN_SPECS]


def c4_sim(
    tokenizer: WordTokenizer | None = None,
    n_words: int = DEFAULT_N_WORDS,
) -> SyntheticCorpus:
    """The diverse pretraining/calibration corpus (stands in for C4)."""
    tokenizer = tokenizer or default_tokenizer(n_words)
    return SyntheticCorpus(
        name="c4-sim",
        grammars=c4_domains(n_words),
        weights=[0.35, 0.3, 0.2, 0.15],
        tokenizer=tokenizer,
        seed=11,
    )


def wikitext2_sim(
    tokenizer: WordTokenizer | None = None,
    n_words: int = DEFAULT_N_WORDS,
) -> SyntheticCorpus:
    """The narrower, shifted evaluation corpus (stands in for WikiText-2).

    Dominated by one c4-sim domain plus a domain never seen in
    pretraining, so perplexities are systematically higher — mirroring the
    C4-calibrated / WikiText-2-evaluated gap in the paper's Table 1.
    """
    tokenizer = tokenizer or default_tokenizer(n_words)
    # Each domain is seeded on its own, so building only the one mixed
    # here gives the same grammar as c4_domains()[1].
    shared = _domain(n_words, *_C4_DOMAIN_SPECS[1])
    unseen = _domain(n_words, branching=10, zipf_exponent=1.1, seed=505)
    return SyntheticCorpus(
        name="wikitext2-sim",
        grammars=[shared, unseen],
        weights=[0.8, 0.2],
        tokenizer=tokenizer,
        seed=13,
    )
