"""Deployable packed-model artifact.

The paper's motivation is fitting LLMs into edge-device memory; this module
provides the artifact a deployment would actually ship: every quantizable
layer stored as a :class:`~repro.quant.formats.FormatLinear` payload
(bit-packed int-k codes + fp16 group grids, the storage format of
:class:`~repro.quant.formats.IntFormat`), the full-precision remainder
(embeddings, norms) as fp16, all in one ``.npz``.

``pack_model`` captures a quantized model (after any method from
``repro.quant``/``repro.core`` ran on it); ``PackedModel.to_model()``
reconstructs a runnable :class:`~repro.nn.transformer.LlamaModel` whose
weights equal the packed representation exactly.  The on-disk archive is
written through :func:`repro.nn.serialize.save_arrays`, so it is atomic
and checksummed like every other checkpoint in the repo.  An archive is
input from outside the program: :meth:`PackedModel.load` accepts only a
header that names every quantizable layer of its config, ``int<k>``
layer headers and finite grids.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.config import LlamaConfig
from repro.nn.serialize import load_arrays, save_arrays
from repro.nn.transformer import LlamaModel, quantizable_layer_names
from repro.quant.formats import FormatLinear, IntFormat

__all__ = ["PackedModel", "pack_model"]


class PackedModel:
    """A quantized model in deployment form."""

    def __init__(
        self,
        config: LlamaConfig,
        layers: dict[str, FormatLinear],
        full_precision: dict[str, np.ndarray],
    ) -> None:
        self.config = config
        self.layers = layers
        self.full_precision = full_precision

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Total artifact size: packed layers + fp16 remainder."""
        packed = sum(q.storage_bytes() for q in self.layers.values())
        dense = sum(2 * a.size for a in self.full_precision.values())
        return packed + dense

    def average_bits(self) -> float:
        """Code bits per quantized weight entry (paper Eq. (18) accounting)."""
        total_weights = sum(
            q.shape[0] * q.shape[1] for q in self.layers.values()
        )
        total_bits = sum(
            q.bits * q.shape[0] * q.shape[1] for q in self.layers.values()
        )
        if total_weights == 0:
            raise ValueError("no packed layers")
        return total_bits / total_weights

    def to_model(self, seed: int = 0) -> LlamaModel:
        """Materialise a runnable model from the packed representation."""
        model = LlamaModel(self.config, seed=seed)
        state = model.state_dict()
        for name, array in self.full_precision.items():
            state[name] = np.asarray(array, dtype=np.float64)
        for name, packed in self.layers.items():
            state[f"{name}.weight"] = packed.dequantize()
        model.load_state_dict(state)
        return model

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the artifact as one atomic, checksummed ``.npz``."""
        payload: dict[str, np.ndarray] = {}
        meta: dict[str, dict] = {}
        for name, layer in self.layers.items():
            for key, array in layer.arrays.items():
                payload[f"packed/{name}/{key}"] = array
            meta[name] = layer.meta
        for name, array in self.full_precision.items():
            payload[f"fp/{name}"] = array.astype(np.float16)
        header = {"config": self.config.to_dict(), "layers": meta}
        return save_arrays(path, payload, header)

    @classmethod
    def load(cls, path: str | Path) -> "PackedModel":
        """Inverse of :meth:`save`.

        The archive is checked before anything is decoded: its header
        must carry ``config`` and ``layers``, ``layers`` must name exactly
        the quantizable layers of the config's model, and every layer's
        scales and zeros must be finite; otherwise a ``ValueError`` names
        the field.
        """
        raw, header = load_arrays(path)
        for field in ("config", "layers"):
            if field not in header:
                raise ValueError(f"packed artifact header lacks {field!r}")
        config = LlamaConfig.from_dict(header["config"])
        layers: dict[str, FormatLinear] = {}
        for name, meta in header["layers"].items():
            prefix = f"packed/{name}/"
            arrays = {
                key[len(prefix):]: array
                for key, array in raw.items()
                if key.startswith(prefix)
            }
            for grid in ("scales", "zeros"):
                if grid in arrays and not np.isfinite(arrays[grid]).all():
                    raise ValueError(
                        f"packed layer {name!r} has non-finite {grid}"
                    )
            fmt = _header_format(name, meta)
            layers[name] = FormatLinear(
                fmt, arrays, {"format": fmt.name, **meta}
            )
        expected = quantizable_layer_names(config)
        missing = sorted(set(expected) - set(layers))
        unknown = sorted(set(layers) - set(expected))
        if missing or unknown:
            raise ValueError(
                "packed artifact header 'layers' must name exactly the "
                "quantizable layers of its config; missing "
                f"{missing}, unknown {unknown}"
            )
        full_precision = {
            key[len("fp/"):]: raw[key]
            for key in raw
            if key.startswith("fp/")
        }
        return cls(config=config, layers=layers, full_precision=full_precision)


def _header_format(name: str, meta: dict) -> IntFormat:
    """The int format a layer header declares; any other format is refused.

    Headers written before layers named their format carry only
    ``bits``/``group_size``/``shape`` and load as ``int<bits>``; the
    loaded layer's header then names it.
    """
    bits = meta["bits"]
    declared = meta.get("format", f"int{bits}")
    if declared != f"int{bits}":
        raise ValueError(
            f"packed layer {name!r} declares format {declared!r} with "
            f"{bits}-bit codes; only int<k> layers load"
        )
    return IntFormat(bits)


def pack_model(
    model: LlamaModel,
    bits: int | dict[str, int],
    group_size: int | None = 32,
    layer_results: dict | None = None,
) -> PackedModel:
    """Pack a (typically already fake-quantized) model for deployment.

    ``bits`` is a uniform width or a per-layer allocation (e.g.
    ``APTQResult.allocation``).  When ``layer_results`` is supplied (the
    ``APTQResult.layer_results``/GPTQ result mapping), each layer's *exact*
    solver codes and grids are packed as an ``int<bits>`` payload — the
    lossless path; otherwise the current weights are re-rounded onto a
    fresh min/max grid, which may shift entries by up to half a
    quantization step.  Non-quantizable parameters (embeddings, norm
    gains) are carried at fp16.
    """
    quantizable = model.quantizable_linears()
    layers: dict[str, FormatLinear] = {}
    for name, linear in quantizable.items():
        result = (layer_results or {}).get(name)
        if result is not None:
            fmt = IntFormat(result.group_result.bits)
            layers[name] = FormatLinear.from_tensor(
                fmt, fmt.from_group_result(result.group_result)
            )
            continue
        if isinstance(bits, dict):
            try:
                layer_bits = bits[name]
            except KeyError:
                known = ", ".join(sorted(bits)) or "<empty>"
                raise ValueError(
                    f"no bit allocation for layer {name!r}; allocation "
                    f"covers: {known}"
                ) from None
        else:
            layer_bits = int(bits)
        layers[name] = FormatLinear.from_weight(
            linear.weight.data, layer_bits, group_size
        )
    quantized_keys = {f"{name}.weight" for name in quantizable}
    full_precision = {
        name: array
        for name, array in model.state_dict().items()
        if name not in quantized_keys
    }
    return PackedModel(
        config=model.config, layers=layers, full_precision=full_precision
    )
