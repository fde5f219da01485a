"""Shared fixtures for the test suite.

Heavy artefacts (a briefly-trained micro model, corpora, calibration sets)
are session-scoped so the suite stays fast on a single core.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro.core.sensitivity as sensitivity
from repro.data.calibration import sample_calibration
from repro.data.corpus import (
    SyntheticCorpus,
    c4_sim,
    default_tokenizer,
    wikitext2_sim,
)
from repro.data.grammar import MarkovGrammar
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.training.trainer import Trainer, TrainingConfig

MICRO_CONFIG = LlamaConfig(
    vocab_size=256,
    d_model=16,
    n_layers=2,
    n_heads=2,
    d_ff=24,
    max_seq_len=32,
)

# The trained fixture uses a slightly wider model and a single-domain corpus
# so a ~20s training run yields genuinely learned structure (validation
# perplexity ~60 vs ~103 unigram and ~23 entropy floor) — enough for
# quantization-quality orderings to be measurable in tests.
TRAINED_CONFIG = LlamaConfig(
    vocab_size=256,
    d_model=32,
    n_layers=2,
    n_heads=2,
    d_ff=48,
    max_seq_len=32,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def micro_model() -> LlamaModel:
    """Untrained micro model (mechanics tests)."""
    return LlamaModel(MICRO_CONFIG, seed=0)


@pytest.fixture(scope="session")
def tokenizer():
    return default_tokenizer()


@pytest.fixture(scope="session")
def corpus():
    return c4_sim()


@pytest.fixture(scope="session")
def wikitext_corpus():
    return wikitext2_sim()


@pytest.fixture(scope="session")
def single_corpus(tokenizer):
    """A single-domain corpus the trained fixture can learn quickly."""
    grammar = MarkovGrammar(
        252, branching=4, zipf_exponent=1.4, seed=303, class_seed=7
    )
    return SyntheticCorpus("single-sim", [grammar], [1.0], tokenizer, seed=5)


@pytest.fixture(scope="session")
def corpus_splits(single_corpus):
    return single_corpus.splits(
        train_tokens=40_000, validation_tokens=4_000, test_tokens=4_000
    )


@pytest.fixture(scope="session")
def calibration(single_corpus):
    """Small calibration set (16 segments of 32 tokens)."""
    return sample_calibration(single_corpus, n_segments=16, seq_len=32, seed=77)


@pytest.fixture(scope="session")
def trained_micro_model(corpus_splits) -> LlamaModel:
    """A small model trained ~20s — enough learned structure for
    quantization-quality orderings to be measurable."""
    model = LlamaModel(TRAINED_CONFIG, seed=0)
    Trainer(
        model,
        TrainingConfig(steps=700, batch_size=12, seq_len=32, seed=0,
                       lr=6e-3, warmup_steps=30),
    ).fit(corpus_splits.train)
    return model


@pytest.fixture
def forced_fork(monkeypatch) -> list:
    """Make the sensitivity pass fork even for micro models.

    Drops ``MIN_PARALLEL_COST`` to zero and returns the start method of
    every multiprocessing context requested while the test runs.
    """
    monkeypatch.setattr(sensitivity, "MIN_PARALLEL_COST", 0.0)
    requested: list = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        requested.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return requested


def clone(model: LlamaModel) -> LlamaModel:
    """Deep copy helper usable from any test module."""
    twin = LlamaModel(model.config, seed=0)
    twin.load_state_dict(model.state_dict())
    return twin


@pytest.fixture
def clone_fn():
    return clone
