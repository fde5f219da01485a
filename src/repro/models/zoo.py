"""Train-and-cache pretrained stand-in models.

``pretrained(name)`` returns a trained :class:`LlamaModel`; the first call
trains it on the c4-sim corpus and caches the checkpoint under a key derived
from the config, trainer settings and corpus seeds, so every later call
(including across pytest sessions and benchmark runs) loads instantly and
identically.

Cache loads are checksum-verified: a truncated, bit-flipped, or otherwise
corrupt cache entry is detected, deleted, and transparently retrained
rather than crashing (or worse, silently serving garbage weights).
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Optional

from repro.data.corpus import c4_sim
from repro.models.configs import model_config
from repro.nn.config import LlamaConfig
from repro.nn.serialize import load_state_dict, save_state_dict
from repro.nn.transformer import LlamaModel
from repro.runtime.checkpoint import checksum_path
from repro.runtime.errors import CheckpointError
from repro.training.trainer import Trainer, TrainingConfig

__all__ = ["default_cache_dir", "pretrained", "clone_model"]

_TRAINING_PRESETS: dict[str, TrainingConfig] = {
    "llama-test": TrainingConfig(steps=1500, batch_size=16, seq_len=64, seed=0),
    "llama-7b-sim": TrainingConfig(steps=4000, batch_size=16, seq_len=64, seed=0),
    "llama-13b-sim": TrainingConfig(steps=4000, batch_size=16, seq_len=64, seed=0),
}
_TRAIN_TOKENS = 200_000
_CACHE_VERSION = "v1"


def default_cache_dir() -> Path:
    """Cache root; override with the ``REPRO_CACHE_DIR`` environment variable."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-aptq"


def _checkpoint_path(name: str, config: LlamaConfig, training: TrainingConfig) -> Path:
    key = (
        f"{name}-{_CACHE_VERSION}-{config.cache_key()}"
        f"-s{training.steps}b{training.batch_size}l{training.seq_len}"
        f"r{training.seed}"
    )
    return default_cache_dir() / "models" / f"{key}.npz"


def pretrained(
    name: str,
    cache: bool = True,
    training: Optional[TrainingConfig] = None,
) -> LlamaModel:
    """Return the named model trained on c4-sim (cached on disk)."""
    config = model_config(name)
    training = training or _TRAINING_PRESETS.get(name, TrainingConfig())
    path = _checkpoint_path(name, config, training)
    if cache and path.exists():
        try:
            state, stored_config = load_state_dict(path)
            model = LlamaModel(stored_config, seed=training.seed)
            model.load_state_dict(state)
            return model
        except (CheckpointError, KeyError, ValueError) as error:
            # Corrupt or stale cache entry: drop it and fall through to a
            # fresh training run that overwrites the cache.
            warnings.warn(
                f"discarding corrupt model cache {path}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            path.unlink(missing_ok=True)
            checksum_path(path).unlink(missing_ok=True)
    model = LlamaModel(config, seed=training.seed)
    tokens = c4_sim().splits(
        train_tokens=_TRAIN_TOKENS, validation_tokens=0, test_tokens=0
    ).train
    Trainer(model, training).fit(tokens)
    if cache:
        save_state_dict(path, model, config)
    return model


def clone_model(model: LlamaModel) -> LlamaModel:
    """Deep-copy a model (quantizers mutate weights in place)."""
    twin = LlamaModel(model.config, seed=0)
    twin.load_state_dict(model.state_dict())
    return twin
