"""Atomic, checksum-verified checkpoint I/O.

The failure this module exists to prevent: a long quantization (or training)
run dies mid-``np.savez`` and leaves a truncated archive that a later load
picks up blindly.  Two mechanisms close that hole:

* **Atomic writes** — payloads are serialized to memory, written to a
  temporary file *in the destination directory*, fsynced, and
  ``os.replace``-d into place.  A crash at any point leaves either the old
  file or the new file, never a torn one.
* **SHA-256 sidecars** — every write also lands ``<file>.sha256`` holding
  the payload digest.  :func:`verify_checksum` re-hashes on load and raises
  :class:`~repro.runtime.errors.CheckpointError` on any mismatch, which
  catches bit-flips that a successful ``np.load`` would happily decode.

On top of the primitives sits a small ``.npz``-based container
(:func:`save_checkpoint` / :func:`load_checkpoint`) that pairs arbitrary
named arrays with a JSON metadata blob stored under one reserved array
name.  It is the on-disk format of APTQ per-block run checkpoints
(:mod:`repro.core.aptq`, ``__checkpoint_json__``) and, through
:mod:`repro.nn.serialize`, of packed artifacts (``__meta_json__``) and
model checkpoints (``__config_json__``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.runtime.errors import CheckpointError

__all__ = [
    "atomic_write_bytes",
    "atomic_save_npz",
    "sha256_of_file",
    "checksum_path",
    "write_checksum",
    "verify_checksum",
    "save_checkpoint",
    "load_checkpoint",
]

_META_KEY = "__checkpoint_json__"


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        # The temp file must never survive a failed write.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_save_npz(path: str | Path, arrays: Mapping[str, np.ndarray]) -> Path:
    """Serialize ``arrays`` to a compressed ``.npz`` and write it atomically."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **dict(arrays))
    return atomic_write_bytes(path, buffer.getvalue())


def sha256_of_file(path: str | Path) -> str:
    """Hex SHA-256 digest of a file's contents (streamed, constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def checksum_path(path: str | Path) -> Path:
    """Sidecar path holding a file's SHA-256 (``<file>.sha256``)."""
    path = Path(path)
    return path.with_name(path.name + ".sha256")


def write_checksum(path: str | Path) -> Path:
    """Write the SHA-256 sidecar for ``path`` (atomically) and return it."""
    path = Path(path)
    line = f"{sha256_of_file(path)}  {path.name}\n"
    return atomic_write_bytes(checksum_path(path), line.encode())


def verify_checksum(path: str | Path, required: bool = False) -> bool:
    """Check ``path`` against its SHA-256 sidecar.

    Returns True when the digest matches, False when no sidecar exists and
    ``required`` is False.  Raises :class:`CheckpointError` on a digest
    mismatch, an unparseable sidecar, or a missing sidecar with
    ``required=True``.
    """
    path = Path(path)
    sidecar = checksum_path(path)
    if not sidecar.exists():
        if required:
            raise CheckpointError(f"no checksum sidecar for {path}")
        return False
    recorded = sidecar.read_text().split()
    if not recorded or len(recorded[0]) != 64:
        raise CheckpointError(f"unparseable checksum sidecar {sidecar}")
    actual = sha256_of_file(path)
    if actual != recorded[0]:
        raise CheckpointError(
            f"checksum mismatch for {path}: file hashes to {actual[:12]}..., "
            f"sidecar records {recorded[0][:12]}...; the checkpoint is "
            "corrupt (truncated or bit-flipped)"
        )
    return True


def save_checkpoint(
    path: str | Path,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping,
    key: str = _META_KEY,
) -> Path:
    """Atomically write arrays + JSON ``meta`` as one checksummed ``.npz``.

    ``meta`` is stored as JSON bytes under the reserved array name ``key``,
    after the arrays.
    """
    payload = dict(arrays)
    if key in payload:
        raise ValueError(f"array name {key!r} is reserved")
    payload[key] = np.frombuffer(
        json.dumps(dict(meta)).encode(), dtype=np.uint8
    )
    atomic_save_npz(path, payload)
    write_checksum(path)
    return Path(path)


def load_checkpoint(
    path: str | Path, verify: bool = True, key: str = _META_KEY
) -> tuple[dict[str, np.ndarray], dict]:
    """Load a :func:`save_checkpoint` archive, returning ``(arrays, meta)``.

    ``key`` is the reserved array name the metadata was saved under.  With
    ``verify=True`` (default) the SHA-256 sidecar is checked first when
    present.  Raises :class:`CheckpointError` for any unreadable, truncated,
    or metadata-less archive, and for metadata that is not a JSON object;
    ``FileNotFoundError`` passes through untouched so "no checkpoint yet"
    stays distinguishable from "bad checkpoint".
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if verify:
        verify_checksum(path, required=False)
    try:
        with np.load(path) as archive:
            raw = {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as error:
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
    if key not in raw:
        raise CheckpointError(
            f"checkpoint {path} has no {key} entry; it was not written "
            f"by repro.runtime.checkpoint.save_checkpoint with key {key!r}"
        )
    try:
        meta = json.loads(raw.pop(key).tobytes().decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"checkpoint {path} carries corrupt metadata: {error}"
        ) from error
    if not isinstance(meta, dict):
        raise CheckpointError(
            f"checkpoint {path} carries corrupt metadata: {key} is not a "
            "JSON object"
        )
    return raw, meta
