"""Tests for model configs and the train-and-cache zoo."""

import numpy as np
import pytest

from repro.data.corpus import c4_sim
from repro.models.configs import MODEL_CONFIGS, model_config
from repro.models.zoo import clone_model, default_cache_dir, pretrained
from repro.nn.transformer import LlamaModel
from repro.training.trainer import Trainer, TrainingConfig


class TestConfigs:
    def test_known_names(self):
        for name in ("llama-test", "llama-7b-sim", "llama-13b-sim"):
            assert name in MODEL_CONFIGS

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(KeyError, match="llama-7b-sim"):
            model_config("bogus")

    def test_13b_larger_than_7b(self):
        small = model_config("llama-7b-sim")
        large = model_config("llama-13b-sim")
        assert large.num_parameters() > small.num_parameters()
        assert large.n_layers > small.n_layers

    def test_vocab_matches_default_tokenizer(self, tokenizer):
        assert model_config("llama-7b-sim").vocab_size == tokenizer.vocab_size


class TestZooCache:
    def test_train_and_reload_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        quick = TrainingConfig(steps=3, batch_size=4, seq_len=16, seed=0)
        first = pretrained("llama-test", training=quick)
        cache_files = list((tmp_path / "models").glob("*.npz"))
        assert len(cache_files) == 1
        second = pretrained("llama-test", training=quick)
        ids = np.random.default_rng(0).integers(0, 256, size=(1, 8))
        assert np.allclose(
            first.forward_array(ids), second.forward_array(ids)
        )

    def test_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        quick = TrainingConfig(steps=2, batch_size=4, seq_len=16, seed=0)
        pretrained("llama-test", training=quick, cache=False)
        assert not (tmp_path / "models").exists()

    def test_trains_on_the_c4_sim_train_split(self, tmp_path, monkeypatch):
        # Cached checkpoints stay valid only while this stream is the one
        # the default splits() call returned.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seen = []
        monkeypatch.setattr(
            Trainer, "fit", lambda trainer, tokens: seen.append(tokens)
        )
        quick = TrainingConfig(steps=1, batch_size=2, seq_len=8, seed=0)
        pretrained("llama-test", training=quick, cache=False)
        assert np.array_equal(seen[0], c4_sim().splits().train)

    def test_cache_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"


class TestCloneModel:
    def test_clone_is_independent(self, trained_micro_model):
        twin = clone_model(trained_micro_model)
        twin.blocks[0].mlp.up_proj.weight.data[:] = 0.0
        assert not np.allclose(
            trained_micro_model.blocks[0].mlp.up_proj.weight.data, 0.0
        )

    def test_clone_matches_numerically(self, trained_micro_model):
        twin = clone_model(trained_micro_model)
        ids = np.random.default_rng(1).integers(0, 256, size=(1, 12))
        assert np.allclose(
            twin.forward_array(ids), trained_micro_model.forward_array(ids)
        )
