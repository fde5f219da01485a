"""Low-precision format zoo: a registry of quantized storage formats.

A :class:`QuantFormat` registry of storage formats, so the deployment
layer (:mod:`repro.quant.deploy`) and the evaluation harness can select
among:

* ``int2``/``int3``/``int4``/``int8`` — :class:`IntFormat`, uniform int-k
  codes on affine fp16 group grids (the solver's storage format; any
  other width ``int<k>``, 1 <= k <= 16, resolves on demand);
* ``fp4`` / ``fp4-p99`` — :class:`LutFormat` over the E2M1 fp4 value grid
  of :mod:`repro.quant.fpq`, with observer-driven scale selection
  (absmax, or a clipping 99th-percentile observer);
* ``nf4`` — :class:`LutFormat` over the NormalFloat4 quantile grid of
  QLoRA (Dettmers et al., 2023);
* ``mx4`` — :class:`MxFormat`, an MX-style block format: fp4 element
  codes under a shared power-of-two exponent per (group, column), stored
  as an int16 exponent instead of an fp16 scale;
* ``sparse24`` — :class:`Sparse24Format`, 2:4 structured sparsity
  (2 survivors per 4 consecutive input rows, magnitude-pruned) composed
  with int4 group quantization of the survivors.

Every format implements ``encode``/``decode``, dense byte-exact
``pack_payload``/``unpack_payload`` (routed through
:func:`~repro.quant.packing.pack_codes`), and a *declared* reconstruction
``error_bound`` that the shared conformance harness
(``tests/test_quant_formats.py``) asserts against the measured error.
Adding a format without registering it — or registering one that breaks
any contract — is a tier-1 test failure.  :class:`FormatLinear` is the one
deployable layer type: a format plus its packed payload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re

import numpy as np

from repro.quant.fpq import FP4_VALUES
from repro.quant.groupwise import (
    GroupQuantResult,
    dequantize_groups,
    group_of_row,
    group_params,
    quantize_groupwise,
    resolve_group_size,
)
from repro.quant.observer import AbsmaxObserver, Observer, PercentileObserver
from repro.quant.packing import pack_codes, unpack_codes

__all__ = [
    "NF4_VALUES",
    "QuantizedTensor",
    "QuantFormat",
    "IntFormat",
    "LutFormat",
    "MxFormat",
    "Sparse24Format",
    "FormatLinear",
    "register_format",
    "get_format",
    "resolve_format",
    "available_formats",
]

#: NormalFloat4 code book (QLoRA, Dettmers et al. 2023): the 16 quantiles
#: of a standard normal, normalised to [-1, 1], zero exactly representable.
NF4_VALUES = np.array(
    [
        -1.0,
        -0.6961928009986877,
        -0.5250730514526367,
        -0.39491748809814453,
        -0.28444138169288635,
        -0.18477343022823334,
        -0.09105003625154495,
        0.0,
        0.07958029955625534,
        0.16093020141124725,
        0.24611230194568634,
        0.33791524171829224,
        0.44070982933044434,
        0.5626170039176941,
        0.7229568362236023,
        1.0,
    ]
)

#: Rows per 2:4 sparsity block (2 survivors kept out of every 4).
_SPARSE_BLOCK = 4

#: Smallest positive fp16 value; substituted when a scale underflows to 0
#: so normalisation never divides by zero (clipping is then covered by the
#: declared error bound's clip-excess term).
_FP16_TINY = np.float16(2.0 ** -24)


@dataclasses.dataclass
class QuantizedTensor:
    """One weight matrix encoded by a registered format.

    ``codes`` has the weight's ``(d_in, d_out)`` shape and holds LUT
    indices or affine grid codes in ``[0, 2**bits - 1]``;
    ``scales``/``zeros`` have shape ``(n_groups, d_out)`` (``zeros`` is
    ``None`` for code-book formats, which need no zero point); ``mask`` is
    a boolean survivor map for sparse formats, ``None`` otherwise.
    """

    format: str
    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray | None
    mask: np.ndarray | None
    bits: int
    group_size: int
    shape: tuple[int, int]

    def n_groups(self) -> int:
        """Number of quantization groups along the input dimension.

        Bits:
            return: i64[1, *]
        """
        return int(self.scales.shape[0])


class QuantFormat:
    """Protocol of one storage format; concrete formats override the core.

    A format is a *pure, deterministic* value: ``encode`` depends only on
    the weight and the group geometry, so encoded tensors are reproducible
    (golden-pinnable) and safe to fan out over worker processes.
    """

    #: Registry name (``int4``, ``nf4``, ...).
    name = "base"
    #: Stored bits per code entry.
    bits = 0
    #: Number of valid code values (``2**bits`` unless a LUT is smaller).
    n_codes = 0

    # -- core ----------------------------------------------------------
    def encode(
        self, weight: np.ndarray, group_size: int | None = None
    ) -> QuantizedTensor:
        """Quantize a ``(d_in, d_out)`` float weight into this format.

        Bits:
            group_size: i64[1, *]
            return: any
        """
        raise NotImplementedError

    def decode(self, tensor: QuantizedTensor) -> np.ndarray:
        """Dense float64 reconstruction of an encoded tensor.

        Bits:
            tensor: any
            return: f64
        """
        raise NotImplementedError

    def error_bound(self, tensor: QuantizedTensor, weight: np.ndarray) -> float:
        """Declared max-abs reconstruction error of ``encode`` on ``weight``.

        The conformance harness asserts
        ``max |decode(encode(w)) - w| <= error_bound(encode(w), w)`` for
        every registered format; a format whose implementation drifts past
        its declared bound fails tier-1.

        Bits:
            tensor: any
            return: f64[0, *]
        """
        raise NotImplementedError

    # -- storage -------------------------------------------------------
    def pack_payload(
        self, tensor: QuantizedTensor
    ) -> tuple[dict[str, np.ndarray], dict]:
        """Byte-exact storage form: named arrays plus a JSON-able header.

        Codes are bit-packed with :func:`~repro.quant.packing.pack_codes`
        at ``tensor.bits`` per entry; grids are stored fp16 (formats with
        other grid storage override :meth:`_pack_grids`).

        Bits:
            tensor: any
            return: any
        """
        arrays = {"codes": pack_codes(tensor.codes.reshape(-1), tensor.bits)}
        arrays.update(self._pack_grids(tensor))
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
        scales, zeros = self._unpack_grids(arrays)
        return QuantizedTensor(
            format=self.name,
            codes=codes,
            scales=scales,
            zeros=zeros,
            mask=None,
            bits=bits,
            group_size=int(meta["group_size"]),
            shape=shape,
        )

    def _pack_grids(self, tensor: QuantizedTensor) -> dict[str, np.ndarray]:
        """Grid arrays of the payload (fp16 scales, optional fp16 zeros)."""
        arrays = {"scales": np.asarray(tensor.scales, dtype=np.float16)}
        if tensor.zeros is not None:
            arrays["zeros"] = np.asarray(tensor.zeros, dtype=np.float16)
        return arrays

    def _unpack_grids(
        self, arrays: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Inverse of :meth:`_pack_grids`."""
        return arrays["scales"], arrays.get("zeros")


class IntFormat(QuantFormat):
    """Uniform int-k on affine group grids — the solver's storage format.

    Codes come from :func:`~repro.quant.groupwise.quantize_groupwise` (or
    the error-compensated solver, via :meth:`from_group_result`), grids are
    stored fp16, and the reconstruction is ``(code - zero) * scale`` in
    float64 — pinned against a first-principles oracle by the conformance
    suite.
    """

    def __init__(self, bits: int) -> None:
        if not 1 <= int(bits) <= 16:
            raise ValueError("int format bits must be in [1, 16]")
        self.bits = int(bits)
        self.name = f"int{self.bits}"
        self.n_codes = 1 << self.bits

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
            scales=result.scales.astype(np.float16),
            zeros=result.zeros.astype(np.float16),
            mask=None,
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
        """Half a grid step plus the fp16 grid-rounding slack.

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


class LutFormat(QuantFormat):
    """Fixed code-book format with observer-driven per-group scales.

    Each (group, column) gets one fp16 scale mapping the observer's
    magnitude bound onto the largest code-book value; every entry snaps to
    the nearest scaled code-book value.  Values beyond the observer bound
    clip onto the extreme code — the clipped excess is part of the
    declared error bound, so a percentile observer trades a *bounded*
    clipping error for resolution.
    """

    def __init__(
        self,
        name: str,
        values: np.ndarray,
        observer: Observer | None = None,
    ) -> None:
        values = np.sort(np.asarray(values, dtype=np.float64))
        if values.size < 2 or values.size > 256:
            raise ValueError("code book must have 2..256 values")
        self.name = name
        self.values = values
        self.n_codes = int(values.size)
        self.bits = max(1, int(np.ceil(np.log2(values.size))))
        self.observer = observer if observer is not None else AbsmaxObserver()
        #: Half the largest gap between adjacent code-book values: the
        #: worst-case snap distance for an in-range normalised entry.
        self.half_max_gap = float(np.diff(values).max() / 2.0)

    def encode(
        self, weight: np.ndarray, group_size: int | None = None
    ) -> QuantizedTensor:
        """Snap each entry to the nearest scaled code-book value.

        Bits:
            group_size: i64[1, *]
            return: any
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError("expected a 2-D weight matrix")
        d_in, d_out = weight.shape
        gsize = resolve_group_size(d_in, group_size)
        n_groups = (d_in + gsize - 1) // gsize
        codes = np.empty(weight.shape, dtype=np.int64)
        scales = np.empty((n_groups, d_out), dtype=np.float16)
        vmax = self.values[-1]
        for g in range(n_groups):
            rows = slice(g * gsize, min((g + 1) * gsize, d_in))
            block = weight[rows]
            peak = self.observer.bound(block)
            wide = np.where(peak > 0, peak / vmax, 1.0)
            # Keep the scale inside fp16's finite range; anything the
            # clamped grid cannot reach is clip excess, which the declared
            # error bound accounts for.
            wide = np.clip(wide, float(_FP16_TINY), float(np.finfo(np.float16).max))
            scale = wide.astype(np.float16)
            normalised = block / scale.astype(np.float64)
            codes[rows] = np.argmin(
                np.abs(normalised[..., None] - self.values), axis=-1
            )
            scales[g] = scale
        return QuantizedTensor(
            format=self.name,
            codes=codes,
            scales=scales,
            zeros=None,
            mask=None,
            bits=self.bits,
            group_size=gsize,
            shape=weight.shape,
        )

    def decode(self, tensor: QuantizedTensor) -> np.ndarray:
        """``values[code] * scale`` per group, in float64.

        Bits:
            tensor: any
            return: f64
        """
        scales = tensor.scales.astype(np.float64)
        rows = group_of_row(
            tensor.shape[0], tensor.group_size, tensor.n_groups()
        )
        return self.values[tensor.codes] * scales[rows]

    def error_bound(self, tensor: QuantizedTensor, weight: np.ndarray) -> float:
        """Half the largest code gap per scale, plus any clipped excess.

        Bits:
            tensor: any
            return: f64[0, *]
        """
        weight = np.asarray(weight, dtype=np.float64)
        scales = tensor.scales.astype(np.float64)
        vmax = self.values[-1]
        bound = 0.0
        d_in = tensor.shape[0]
        for g in range(tensor.n_groups()):
            rows = slice(
                g * tensor.group_size,
                min((g + 1) * tensor.group_size, d_in),
            )
            absmax = np.abs(weight[rows]).max(axis=0)
            clip = np.maximum(0.0, absmax - scales[g] * vmax)
            bound = max(
                bound,
                float((scales[g] * self.half_max_gap + clip).max()),
            )
        return bound


class MxFormat(LutFormat):
    """MX-style block format: fp4 codes under a shared power-of-two scale.

    Per (group, column) the scale is the smallest power of two for which
    the block's absmax fits the code book (``2**ceil(log2(absmax/vmax))``,
    clamped to the float64 exponent range), so in the regular regime
    nothing clips and the payload stores one int16 *exponent* per group
    instead of an fp16 scale — the MX layout of shared-exponent hardware
    formats.
    """

    #: Float64-safe exponent range for ``2.0 ** exponent``.
    MIN_EXPONENT = -1022
    MAX_EXPONENT = 1023

    def __init__(self, name: str = "mx4", values: np.ndarray | None = None) -> None:
        super().__init__(
            name,
            FP4_VALUES if values is None else values,
            observer=AbsmaxObserver(),
        )

    def encode(
        self, weight: np.ndarray, group_size: int | None = None
    ) -> QuantizedTensor:
        """Shared-exponent scales, then nearest-code snapping.

        Bits:
            group_size: i64[1, *]
            return: any
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError("expected a 2-D weight matrix")
        d_in, d_out = weight.shape
        gsize = resolve_group_size(d_in, group_size)
        n_groups = (d_in + gsize - 1) // gsize
        codes = np.empty(weight.shape, dtype=np.int64)
        scales = np.empty((n_groups, d_out), dtype=np.float64)
        vmax = self.values[-1]
        for g in range(n_groups):
            rows = slice(g * gsize, min((g + 1) * gsize, d_in))
            block = weight[rows]
            absmax = np.abs(block).max(axis=0)
            with np.errstate(divide="ignore"):
                exponent = np.where(
                    absmax > 0,
                    np.ceil(np.log2(absmax / vmax)),
                    0.0,
                )
            exponent = np.clip(exponent, self.MIN_EXPONENT, self.MAX_EXPONENT)
            scale = 2.0 ** exponent
            # log2 rounding may land one step low; bump until absmax fits.
            needs_bump = (absmax > scale * vmax) & (
                exponent < self.MAX_EXPONENT
            )
            while needs_bump.any():
                exponent = exponent + needs_bump
                scale = 2.0 ** exponent
                needs_bump = (absmax > scale * vmax) & (
                    exponent < self.MAX_EXPONENT
                )
            codes[rows] = np.argmin(
                np.abs((block / scale)[..., None] - self.values), axis=-1
            )
            scales[g] = scale
        return QuantizedTensor(
            format=self.name,
            codes=codes,
            scales=scales,
            zeros=None,
            mask=None,
            bits=self.bits,
            group_size=gsize,
            shape=weight.shape,
        )

    def _pack_grids(self, tensor: QuantizedTensor) -> dict[str, np.ndarray]:
        """Store the power-of-two scales as int16 exponents."""
        exponents = np.log2(tensor.scales).astype(np.int16)
        return {"exponents": exponents}

    def _unpack_grids(
        self, arrays: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Rebuild exact power-of-two scales from int16 exponents."""
        return 2.0 ** arrays["exponents"].astype(np.float64), None


class Sparse24Format(QuantFormat):
    """2:4 structured sparsity composed with int4 group quantization.

    Of every 4 consecutive input rows (per output column) the 2 largest
    magnitudes survive (ties break to the lower row — deterministic); a
    trailing partial block keeps all its rows.  Survivors are quantized on
    int4 affine group grids; pruned entries decode to exactly zero.  The
    payload stores a 1-bit survivor mask plus packed codes of the
    survivors only, so storage lands near ``1 + bits/2`` bits per entry.
    """

    def __init__(self, bits: int = 4) -> None:
        if not 1 <= int(bits) <= 16:
            raise ValueError("sparse24 element bits must be in [1, 16]")
        self.bits = int(bits)
        self.name = "sparse24" if self.bits == 4 else f"sparse24-int{self.bits}"
        self.n_codes = 1 << self.bits

    @staticmethod
    def sparsity_mask(weight: np.ndarray) -> np.ndarray:
        """Boolean 2:4 survivor mask (True = kept), magnitude-pruned.

        Bits:
            weight: any
            return: bool
        """
        weight = np.asarray(weight, dtype=np.float64)
        d_in, d_out = weight.shape
        mask = np.zeros(weight.shape, dtype=bool)
        full = (d_in // _SPARSE_BLOCK) * _SPARSE_BLOCK
        if full:
            blocks = np.abs(weight[:full]).reshape(-1, _SPARSE_BLOCK, d_out)
            # Stable argsort on negated magnitudes: equal values keep the
            # lower row index, so the mask is deterministic.
            order = np.argsort(-blocks, axis=1, kind="stable")
            keep = order[:, :2, :]
            n_blocks = blocks.shape[0]
            block_index = np.arange(n_blocks)[:, None, None]
            col_index = np.arange(d_out)[None, None, :]
            block_mask = np.zeros((n_blocks, _SPARSE_BLOCK, d_out), dtype=bool)
            block_mask[block_index, keep, col_index] = True
            mask[:full] = block_mask.reshape(full, d_out)
        mask[full:] = True
        return mask

    def encode(
        self, weight: np.ndarray, group_size: int | None = None
    ) -> QuantizedTensor:
        """Prune to 2:4, then int-quantize the masked weight.

        Bits:
            group_size: i64[1, *]
            return: any
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError("expected a 2-D weight matrix")
        mask = self.sparsity_mask(weight)
        result = quantize_groupwise(weight * mask, self.bits, group_size)
        return QuantizedTensor(
            format=self.name,
            codes=result.codes,
            scales=result.scales.astype(np.float16),
            zeros=result.zeros.astype(np.float16),
            mask=mask,
            bits=self.bits,
            group_size=result.group_size,
            shape=result.codes.shape,
        )

    def decode(self, tensor: QuantizedTensor) -> np.ndarray:
        """Affine dequant of survivors; pruned entries are exactly zero.

        Bits:
            tensor: any
            return: f64
        """
        return IntFormat(self.bits).decode(tensor) * tensor.mask

    def error_bound(self, tensor: QuantizedTensor, weight: np.ndarray) -> float:
        """Int-grid bound on survivors, magnitude of the largest pruned entry.

        Bits:
            tensor: any
            return: f64[0, *]
        """
        weight = np.asarray(weight, dtype=np.float64)
        masked = weight * tensor.mask
        grid_bound = IntFormat(self.bits).error_bound(
            dataclasses.replace(tensor, mask=None), masked
        )
        pruned = np.abs(weight[~tensor.mask])
        pruning_bound = float(pruned.max()) if pruned.size else 0.0
        return max(grid_bound, pruning_bound)

    def pack_payload(
        self, tensor: QuantizedTensor
    ) -> tuple[dict[str, np.ndarray], dict]:
        """Packed survivor codes + 1-bit packed mask + fp16 grids.

        Bits:
            tensor: any
            return: any
        """
        survivors = tensor.codes[tensor.mask]
        arrays = {
            "codes": pack_codes(survivors, tensor.bits),
            "mask": pack_codes(
                tensor.mask.reshape(-1).astype(np.int64), 1
            ),
            "scales": np.asarray(tensor.scales, dtype=np.float16),
            "zeros": np.asarray(tensor.zeros, dtype=np.float16),
        }
        meta = {
            "format": self.name,
            "bits": int(tensor.bits),
            "group_size": int(tensor.group_size),
            "shape": [int(tensor.shape[0]), int(tensor.shape[1])],
            "n_survivors": int(survivors.size),
        }
        return arrays, meta

    def unpack_payload(
        self, arrays: dict[str, np.ndarray], meta: dict
    ) -> QuantizedTensor:
        """Rebuild dense codes: survivors at mask positions, zero codes off.

        Bits:
            arrays: any
            meta: any
            return: any
        """
        shape = (int(meta["shape"][0]), int(meta["shape"][1]))
        bits = int(meta["bits"])
        group_size = int(meta["group_size"])
        mask = (
            unpack_codes(arrays["mask"], 1, shape[0] * shape[1])
            .astype(bool)
            .reshape(shape)
        )
        survivors = unpack_codes(
            arrays["codes"], bits, int(meta["n_survivors"])
        )
        zeros = arrays["zeros"]
        # Pruned entries carry their group's zero code (a whole number in
        # fp16), matching encode exactly.
        zero_codes = np.rint(zeros.astype(np.float64)).astype(np.int64)
        rows = group_of_row(shape[0], group_size, zeros.shape[0])
        codes = np.broadcast_to(zero_codes[rows], shape).copy()
        codes[mask] = survivors
        return QuantizedTensor(
            format=self.name,
            codes=codes,
            scales=arrays["scales"],
            zeros=zeros,
            mask=mask,
            bits=bits,
            group_size=group_size,
            shape=shape,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, QuantFormat] = {}


def register_format(fmt: QuantFormat, replace: bool = False) -> QuantFormat:
    """Add a format to the registry (``replace=True`` to overwrite).

    Bits:
        fmt: any
        replace: bool
        return: any
    """
    if not fmt.name or fmt.name == "base":
        raise ValueError("format must carry a concrete registry name")
    if fmt.name in _REGISTRY and not replace:
        raise ValueError(f"format {fmt.name!r} is already registered")
    _REGISTRY[fmt.name] = fmt
    return fmt


def available_formats() -> tuple[str, ...]:
    """Sorted names of every registered format.

    Bits:
        return: any
    """
    return tuple(sorted(_REGISTRY))


def get_format(name: str) -> QuantFormat:
    """Look up a format by name; unknown names list the registry.

    Unregistered ``int<k>`` names (1 <= k <= 16) resolve to
    :class:`IntFormat` at that width, so int layers of any width load.

    Bits:
        name: any
        return: any
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    width = re.fullmatch(r"int([1-9][0-9]?)", str(name))
    if width and int(width.group(1)) <= 16:
        return IntFormat(int(width.group(1)))
    raise ValueError(
        f"unknown quantization format {name!r}; registered formats: "
        + ", ".join(available_formats())
    )


def resolve_format(name: str, bits: int | None = None) -> QuantFormat:
    """Resolve a format selection, validating any bits request against it.

    ``name="int"`` is the generic affine family: ``bits`` picks the width
    (any 1..16, registered or not).  Every other name must be registered,
    and a ``bits`` request that contradicts the format's width is an
    error naming the valid registry entries.

    Bits:
        bits: i64[1, 16]
        return: any
    """
    if name == "int":
        if bits is None:
            raise ValueError("format 'int' needs an explicit bits width")
        return IntFormat(bits)
    fmt = get_format(name)
    if bits is not None and int(bits) != fmt.bits:
        entries = ", ".join(
            f"{n} ({_REGISTRY[n].bits}-bit)" for n in available_formats()
        )
        raise ValueError(
            f"format {name!r} stores {fmt.bits}-bit codes but {bits} bits "
            f"were requested; registered formats: {entries}"
        )
    return fmt


for _bits in (2, 3, 4, 8):
    register_format(IntFormat(_bits))
register_format(LutFormat("fp4", FP4_VALUES))
register_format(
    LutFormat("fp4-p99", FP4_VALUES, observer=PercentileObserver(99.0))
)
register_format(LutFormat("nf4", NF4_VALUES))
register_format(MxFormat("mx4"))
register_format(Sparse24Format())


# ----------------------------------------------------------------------
# Deployable layer
# ----------------------------------------------------------------------
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
        self, fmt: QuantFormat, arrays: dict[str, np.ndarray], meta: dict
    ) -> None:
        self.format = fmt
        self.arrays = arrays
        self.meta = meta
        self._dense_cache: np.ndarray | None = None
        self._dense_cache_key: bytes | None = None

    @classmethod
    def from_tensor(
        cls, fmt: QuantFormat, tensor: QuantizedTensor
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
        cls,
        weight: np.ndarray,
        format_name: str,
        group_size: int | None = None,
        bits: int | None = None,
    ) -> "FormatLinear":
        """Encode ``weight`` with a registered format.

        Bits:
            format_name: any
            group_size: i64[1, *]
            bits: i64[1, 16]
            return: any
        """
        fmt = resolve_format(format_name, bits)
        return cls.from_tensor(fmt, fmt.encode(weight, group_size))

    # -- header fields -------------------------------------------------
    @property
    def format_name(self) -> str:
        """Registry name of the stored format.

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
        """Bytes of the packed payload (codes + grids + any mask).

        Bits:
            return: i64[0, *]
        """
        return sum(array.nbytes for array in self.arrays.values())
