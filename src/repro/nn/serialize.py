"""Model checkpoint (de)serialisation as ``.npz`` archives with JSON config.

Every archive here is a :func:`repro.runtime.checkpoint.save_checkpoint`
container under its own reserved key (``__config_json__`` for model
checkpoints, ``__meta_json__`` for packed artifacts).  So a file on disk
is always either the complete old file or the complete new file (tmp-file
+ ``os.replace``), never a torn one, and always carries a SHA-256 sidecar
that loads verify against.  Unreadable or incomplete archives raise
:class:`~repro.runtime.errors.CheckpointError` instead of leaking raw
``KeyError``/``zipfile`` internals.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.config import LlamaConfig
from repro.nn.modules import Module
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.errors import CheckpointError

__all__ = ["save_arrays", "load_arrays", "save_state_dict", "load_state_dict"]

_CONFIG_KEY = "__config_json__"
_META_KEY = "__meta_json__"


def save_arrays(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> Path:
    """Write named arrays plus a JSON header to a single ``.npz``.

    The generic sibling of :func:`save_state_dict` used by payload
    producers that are not plain state dicts (the packed artifacts of
    :mod:`repro.quant.deploy`).  The write is atomic and leaves a
    SHA-256 sidecar; ``meta`` must be JSON-serialisable and is embedded
    under a reserved ``__meta_json__`` key.
    """
    return save_checkpoint(path, arrays, meta or {}, key=_META_KEY)


def load_arrays(
    path: str | Path, verify: bool = True
) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive written by :func:`save_arrays` → (arrays, meta).

    Checksum mismatch, unreadable archive, or a missing/corrupt header
    raise :class:`CheckpointError`; a missing file stays
    ``FileNotFoundError``.
    """
    return load_checkpoint(path, verify, key=_META_KEY)


def save_state_dict(path: str | Path, model: Module, config: LlamaConfig) -> None:
    """Write ``model``'s parameters and ``config`` to a single ``.npz``.

    The write is atomic (tmp file in the destination directory +
    ``os.replace``) and leaves a ``<path>.sha256`` sidecar; a crash
    mid-write can never produce a truncated archive that a later
    :func:`load_state_dict` (or ``repro.models.zoo.pretrained``) loads
    blindly.
    """
    save_checkpoint(path, model.state_dict(), config.to_dict(), key=_CONFIG_KEY)


def load_state_dict(
    path: str | Path, verify: bool = True
) -> tuple[dict[str, np.ndarray], LlamaConfig]:
    """Read a checkpoint, returning (state dict, config).

    With ``verify=True`` the SHA-256 sidecar (when present) must match the
    archive.  Raises :class:`CheckpointError` for a corrupt or truncated
    archive, a checksum mismatch, or an archive without a valid
    ``__config_json__`` entry; a missing file stays ``FileNotFoundError``
    so "no checkpoint yet" remains distinguishable from "bad checkpoint".
    """
    state, record = load_checkpoint(path, verify, key=_CONFIG_KEY)
    try:
        config = LlamaConfig.from_dict(record)
    except (KeyError, TypeError) as error:
        raise CheckpointError(
            f"checkpoint {path} carries a corrupt config record: {error}"
        ) from error
    return state, config
