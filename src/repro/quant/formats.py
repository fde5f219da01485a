"""Int-k storage format of packed layers.

Every quantized layer is stored the way the solver produces it (paper
Eq. 18): uniform int-k codes on affine group grids.  :class:`IntFormat`
encodes a weight onto such grids (or wraps the solver's exact codes via
:meth:`IntFormat.from_group_result`), decodes ``(code - zero) * scale`` in
float64, declares the reconstruction ``error_bound`` that the conformance
suite (``tests/test_quant_formats.py``) asserts against the measured
error, and stores a byte-exact payload: codes bit-packed by
:func:`~repro.quant.packing.pack_codes` plus fp16 scales and zeros.
:class:`FormatLinear` is the one deployable layer type: a format plus its
packed payload.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.quant.groupwise import (
    GroupQuantResult,
    dequantize_groups,
    group_params,
    quantize_groupwise,
)
from repro.quant.packing import pack_codes, unpack_codes

__all__ = ["QuantizedTensor", "IntFormat", "FormatLinear"]


def _fp16_grid(kind: str, values: np.ndarray) -> np.ndarray:
    """``values`` cast to the fp16 of the stored grids.

    A value the cast would turn into ``inf`` (or one that is not finite)
    raises a ``ValueError`` naming the largest offender, so no grid that
    decodes to NaN is ever packed.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        stored = values.astype(np.float16)
    bad = ~np.isfinite(stored)
    if bad.any():
        worst = float(np.max(np.abs(values[bad])))
        raise ValueError(
            f"group {kind} {worst:g} does not fit the fp16 grid (largest "
            f"finite {float(np.finfo(np.float16).max):g}); the layer "
            "cannot be stored"
        )
    return stored


@dataclasses.dataclass
class QuantizedTensor:
    """One weight matrix encoded as int-k group codes.

    ``codes`` has the weight's ``(d_in, d_out)`` shape and holds affine
    grid codes in ``[0, 2**bits - 1]``; ``scales``/``zeros`` have shape
    ``(n_groups, d_out)``.
    """

    format: str
    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray
    bits: int
    group_size: int
    shape: tuple[int, int]

    def n_groups(self) -> int:
        """Number of quantization groups along the input dimension.

        Bits:
            return: i64[1, *]
        """
        return int(self.scales.shape[0])


class IntFormat:
    """Uniform int-k on affine group grids — the solver's storage format.

    Codes come from :func:`~repro.quant.groupwise.quantize_groupwise` (or
    the error-compensated solver, via :meth:`from_group_result`), grids are
    stored fp16, and the reconstruction is ``(code - zero) * scale`` in
    float64 — pinned against a first-principles oracle by the conformance
    suite.  A format is a pure, deterministic value: ``encode`` depends
    only on the weight and the group geometry, so encoded tensors are
    reproducible (golden-pinnable).
    """

    def __init__(self, bits: int) -> None:
        if not 1 <= int(bits) <= 16:
            raise ValueError("int format bits must be in [1, 16]")
        #: Stored bits per code entry.
        self.bits = int(bits)
        #: Header name of the format (``int4``, ...).
        self.name = f"int{self.bits}"

    def encode(
        self, weight: np.ndarray, group_size: int | None = None
    ) -> QuantizedTensor:
        """Round-to-nearest affine group quantization (fp16 grids).

        Bits:
            group_size: i64[1, *]
            return: any
        """
        return self.from_group_result(
            quantize_groupwise(weight, self.bits, group_size)
        )

    def from_group_result(self, result: GroupQuantResult) -> QuantizedTensor:
        """Wrap exact group codes as this format's tensor (fp16 grids).

        Shared by :meth:`encode` and :func:`~repro.quant.deploy.pack_model`,
        which stores the solver's codes through it.

        Bits:
            result: any
            return: any
        """
        return QuantizedTensor(
            format=self.name,
            codes=result.codes,
            scales=_fp16_grid("scale", result.scales),
            zeros=_fp16_grid("zero", result.zeros),
            bits=self.bits,
            group_size=result.group_size,
            shape=result.codes.shape,
        )

    def decode(self, tensor: QuantizedTensor) -> np.ndarray:
        """``(code - zero) * scale`` per group, in float64.

        Bits:
            tensor: any
            return: f64
        """
        return dequantize_groups(
            tensor.codes, tensor.scales, tensor.zeros, tensor.group_size
        )

    def error_bound(self, tensor: QuantizedTensor, weight: np.ndarray) -> float:
        """Declared max-abs reconstruction error of ``encode`` on ``weight``.

        Half a grid step plus the fp16 grid-rounding slack.  The
        conformance suite asserts
        ``max |decode(encode(w)) - w| <= error_bound(encode(w), w)``.

        Bits:
            tensor: any
            return: f64[0, *]
        """
        weight = np.asarray(weight, dtype=np.float64)
        n_levels = (1 << self.bits) - 1
        bound = 0.0
        d_in = tensor.shape[0]
        for g in range(tensor.n_groups()):
            rows = slice(
                g * tensor.group_size,
                min((g + 1) * tensor.group_size, d_in),
            )
            exact = group_params(weight, rows, self.bits)
            s16 = tensor.scales[g].astype(np.float64)
            z16 = tensor.zeros[g].astype(np.float64)
            slack = (
                np.abs(s16 - exact.scale) * n_levels
                + np.abs(z16 - exact.zero) * s16
            )
            bound = max(bound, float((exact.scale / 2.0 + slack).max()))
        return bound

    def pack_payload(
        self, tensor: QuantizedTensor
    ) -> tuple[dict[str, np.ndarray], dict]:
        """Byte-exact storage form: named arrays plus a JSON-able header.

        Codes are bit-packed with :func:`~repro.quant.packing.pack_codes`
        at ``tensor.bits`` per entry; scales and zeros are stored fp16.

        Bits:
            tensor: any
            return: any
        """
        arrays = {
            "codes": pack_codes(tensor.codes.reshape(-1), tensor.bits),
            "scales": np.asarray(tensor.scales, dtype=np.float16),
            "zeros": np.asarray(tensor.zeros, dtype=np.float16),
        }
        meta = {
            "format": self.name,
            "bits": int(tensor.bits),
            "group_size": int(tensor.group_size),
            "shape": [int(tensor.shape[0]), int(tensor.shape[1])],
        }
        return arrays, meta

    def unpack_payload(
        self, arrays: dict[str, np.ndarray], meta: dict
    ) -> QuantizedTensor:
        """Exact inverse of :meth:`pack_payload`.

        Bits:
            arrays: any
            meta: any
            return: any
        """
        shape = (int(meta["shape"][0]), int(meta["shape"][1]))
        bits = int(meta["bits"])
        codes = unpack_codes(
            arrays["codes"], bits, shape[0] * shape[1]
        ).reshape(shape)
        return QuantizedTensor(
            format=self.name,
            codes=codes,
            scales=arrays["scales"],
            zeros=arrays["zeros"],
            bits=bits,
            group_size=int(meta["group_size"]),
            shape=shape,
        )


class FormatLinear:
    """A linear layer stored as one format's packed payload.

    The layer's state is the format plus its byte-exact payload — the
    bit-packed ``arrays`` and the JSON-able header ``meta`` that
    :meth:`storage_bytes` counts and
    :class:`~repro.quant.deploy.PackedModel` archives; no unpacked codes
    are kept.  ``x @ W`` is served from a memoised dense reconstruction
    keyed on a fingerprint of the payload: evaluation loops decode each
    layer once, and in-place mutation of the stored arrays invalidates
    the cache.  Only :meth:`forward_array` fills the memo:
    :meth:`dequantize` decodes afresh on every call, so materialising a
    model from a loaded artifact keeps no second dense copy of its
    weights.
    """

    def __init__(
        self, fmt: IntFormat, arrays: dict[str, np.ndarray], meta: dict
    ) -> None:
        self.format = fmt
        self.arrays = arrays
        self.meta = meta
        self._dense_cache: np.ndarray | None = None
        self._dense_cache_key: bytes | None = None

    @classmethod
    def from_tensor(
        cls, fmt: IntFormat, tensor: QuantizedTensor
    ) -> "FormatLinear":
        """Pack an encoded tensor (the tensor itself is not retained).

        Bits:
            fmt: any
            tensor: any
            return: any
        """
        return cls(fmt, *fmt.pack_payload(tensor))

    @classmethod
    def from_weight(
        cls, weight: np.ndarray, bits: int, group_size: int | None = None
    ) -> "FormatLinear":
        """Encode ``weight`` as ``int<bits>`` codes on fresh min/max grids.

        Bits:
            bits: i64[1, 16]
            group_size: i64[1, *]
            return: any
        """
        fmt = IntFormat(bits)
        return cls.from_tensor(fmt, fmt.encode(weight, group_size))

    # -- header fields -------------------------------------------------
    @property
    def format_name(self) -> str:
        """Header name of the stored format.

        Bits:
            return: any
        """
        return self.format.name

    @property
    def bits(self) -> int:
        """Stored bits per code entry.

        Bits:
            return: i64[1, 16]
        """
        return int(self.meta["bits"])

    @property
    def shape(self) -> tuple[int, int]:
        """Weight shape ``(d_in, d_out)``.

        Bits:
            return: any
        """
        d_in, d_out = self.meta["shape"]
        return int(d_in), int(d_out)

    @property
    def group_size(self) -> int:
        """Rows per quantization group.

        Bits:
            return: i64[1, *]
        """
        return int(self.meta["group_size"])

    def _fingerprint(self) -> bytes:
        """Digest of everything the dense reconstruction depends on."""
        digest = hashlib.blake2b(digest_size=16)
        for key in sorted(self.arrays):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(self.arrays[key]).tobytes())
        digest.update(repr(sorted(self.meta.items())).encode())
        return digest.digest()

    def _dense_weight(self) -> np.ndarray:
        """Memoised read-only dense weight; rebuilt when storage mutates."""
        key = self._fingerprint()
        if self._dense_cache is None or self._dense_cache_key != key:
            dense = self.dequantize()
            dense.setflags(write=False)
            self._dense_cache = dense
            self._dense_cache_key = key
        return self._dense_cache

    def dequantize(self) -> np.ndarray:
        """Dense float64 weight decoded from storage (a fresh array).

        Leaves the memo of :meth:`forward_array` alone.

        Bits:
            return: f64
        """
        tensor = self.format.unpack_payload(self.arrays, self.meta)
        return self.format.decode(tensor)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """``x @ W`` served from the memoised dense reconstruction.

        Bits:
            x: any
            return: any
        """
        return x @ self._dense_weight()

    def storage_bytes(self) -> int:
        """Bytes of the packed payload (codes + grids).

        Bits:
            return: i64[0, *]
        """
        return sum(array.nbytes for array in self.arrays.values())
