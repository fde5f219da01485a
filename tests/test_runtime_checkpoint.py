"""Checkpoint I/O tests: atomicity, checksums, corruption, cache recovery."""

import os
import warnings

import numpy as np
import pytest

from repro.models.zoo import pretrained
from repro.nn.serialize import load_state_dict, save_state_dict
from repro.runtime import (
    CheckpointError,
    atomic_save_npz,
    atomic_write_bytes,
    checksum_path,
    flip_bit,
    load_checkpoint,
    save_checkpoint,
    sha256_of_file,
    truncate_file,
    verify_checksum,
    write_checksum,
)
from repro.training.trainer import TrainingConfig
from tests.conftest import MICRO_CONFIG
from repro.nn.transformer import LlamaModel


def save_json_entry(path, key, text):
    """A foreign ``.npz`` whose reserved ``key`` holds the JSON ``text``."""
    np.savez(
        path,
        weight=np.zeros((2, 2)),
        **{key: np.frombuffer(text.encode(), dtype=np.uint8)},
    )


class TestAtomicWrites:
    def test_write_and_no_temp_residue(self, tmp_path):
        target = tmp_path / "sub" / "blob.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"
        assert [p.name for p in target.parent.iterdir()] == ["blob.bin"]

    def test_failed_replace_leaves_original_and_no_residue(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"old")

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_atomic_save_npz_roundtrip(self, tmp_path, rng):
        target = tmp_path / "arrays.npz"
        arrays = {"a": rng.normal(size=(3, 2)), "b": np.arange(5)}
        atomic_save_npz(target, arrays)
        with np.load(target) as archive:
            np.testing.assert_array_equal(archive["a"], arrays["a"])
            np.testing.assert_array_equal(archive["b"], arrays["b"])


class TestChecksums:
    def test_sidecar_roundtrip(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"payload")
        write_checksum(target)
        sidecar = checksum_path(target)
        assert sidecar.name == "blob.bin.sha256"
        assert sha256_of_file(target) in sidecar.read_text()
        assert verify_checksum(target) is True

    def test_missing_sidecar_is_soft_unless_required(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"x")
        assert verify_checksum(target) is False
        with pytest.raises(CheckpointError, match="no checksum sidecar"):
            verify_checksum(target, required=True)

    def test_bit_flip_detected(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"payload-payload")
        write_checksum(target)
        flip_bit(target, byte_offset=3, bit=5)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            verify_checksum(target)

    def test_unparseable_sidecar_raises(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"x")
        checksum_path(target).write_text("not-a-digest\n")
        with pytest.raises(CheckpointError, match="unparseable"):
            verify_checksum(target)


class TestCheckpointContainer:
    def test_roundtrip_arrays_and_meta(self, tmp_path, rng):
        target = tmp_path / "run.npz"
        arrays = {"w": rng.normal(size=(4, 4)), "codes": np.arange(6)}
        meta = {"next_block": 3, "allocation": {"a": 4}}
        save_checkpoint(target, arrays, meta)
        loaded, loaded_meta = load_checkpoint(target)
        assert loaded_meta == meta
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert loaded["codes"].dtype == arrays["codes"].dtype

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(
                tmp_path / "x.npz", {"__checkpoint_json__": np.zeros(1)}, {}
            )

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_truncated_archive_raises_checkpoint_error(self, tmp_path, rng):
        target = tmp_path / "run.npz"
        save_checkpoint(target, {"w": rng.normal(size=(64, 64))}, {"k": 1})
        truncate_file(target, keep_bytes=100)
        with pytest.raises(CheckpointError):
            load_checkpoint(target)

    def test_foreign_npz_without_meta_raises(self, tmp_path):
        target = tmp_path / "foreign.npz"
        np.savez(target, w=np.zeros(3))
        with pytest.raises(CheckpointError, match="__checkpoint_json__"):
            load_checkpoint(target)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_non_object_metadata_raises(self, tmp_path, text):
        target = tmp_path / "foreign.npz"
        save_json_entry(target, "__checkpoint_json__", text)
        with pytest.raises(CheckpointError, match="corrupt metadata"):
            load_checkpoint(target)


class TestModelSerialization:
    def test_save_writes_sidecar_and_roundtrips(self, tmp_path, micro_model):
        target = tmp_path / "model.npz"
        save_state_dict(target, micro_model, MICRO_CONFIG)
        assert checksum_path(target).exists()
        state, config = load_state_dict(target)
        assert config == MICRO_CONFIG
        np.testing.assert_array_equal(
            state["blocks.0.self_attn.q_proj.weight"],
            micro_model.state_dict()["blocks.0.self_attn.q_proj.weight"],
        )

    def test_truncated_model_checkpoint_raises(self, tmp_path, micro_model):
        target = tmp_path / "model.npz"
        save_state_dict(target, micro_model, MICRO_CONFIG)
        truncate_file(target, keep_bytes=50)
        with pytest.raises(CheckpointError):
            load_state_dict(target)

    def test_configless_archive_raises(self, tmp_path):
        target = tmp_path / "model.npz"
        np.savez(target, weight=np.zeros((2, 2)))
        with pytest.raises(CheckpointError, match="__config_json__"):
            load_state_dict(target)

    def test_non_object_config_raises(self, tmp_path):
        target = tmp_path / "model.npz"
        save_json_entry(target, "__config_json__", "[1, 2]")
        with pytest.raises(CheckpointError, match="corrupt metadata"):
            load_state_dict(target)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(tmp_path / "absent.npz")


class TestZooCacheRecovery:
    TRAINING = TrainingConfig(steps=3, batch_size=4, seq_len=16, seed=0)

    def test_corrupt_cache_detected_and_retrained(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = pretrained("llama-test", training=self.TRAINING)
        cached = list((tmp_path / "models").glob("*.npz"))
        assert len(cached) == 1
        flip_bit(cached[0], byte_offset=-40, bit=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            second = pretrained("llama-test", training=self.TRAINING)
        assert any("corrupt model cache" in str(w.message) for w in caught)
        # The retrained model is deterministic, so it matches the original.
        np.testing.assert_array_equal(
            first.state_dict()["embed.weight"],
            second.state_dict()["embed.weight"],
        )
        # The rewritten cache now loads cleanly (no warning, identical).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            third = pretrained("llama-test", training=self.TRAINING)
        assert isinstance(third, LlamaModel)
