"""Shared conformance obligations of the int-k storage format.

``tests/test_quant_formats.py`` parametrizes these checks over
:data:`CONFORMANCE_WIDTHS`, and the hypothesis suite replays them on
random geometries — one definition of "conforming", used everywhere.
The obligations:

1. **Round trip within the declared bound** — ``decode(encode(w))`` never
   deviates from ``w`` by more than ``error_bound(encode(w), w)``.  The
   format is lossy, but only by exactly as much as it declares.
2. **Pack/unpack byte-identity** — ``unpack_payload(pack_payload(t))``
   reproduces every field of the encoded tensor exactly, and re-packing
   the reconstruction yields byte-identical arrays and an identical
   header (so an archive survives arbitrarily many load/save cycles).
3. **Code-domain safety** — every code sits in ``[0, 2**bits - 1]``,
   the precondition the ``Bits:`` contracts of
   :func:`repro.quant.packing.pack_codes` assume (the static range pass
   seeds from those contracts).
4. **Serialization** — the payload round-trips through
   :func:`repro.nn.serialize.save_arrays`/``load_arrays`` on disk,
   checksum sidecar included.
"""

import numpy as np

from repro.nn.serialize import load_arrays, save_arrays
from repro.quant.formats import IntFormat, QuantizedTensor
from repro.report.bench import FORMAT_BENCH_BITS

#: Widths whose payloads the format goldens pin: those the bench times.
PINNED_WIDTHS = FORMAT_BENCH_BITS

#: Every width the conformance suite runs: the pinned ones plus one
#: width with no golden pin or bench record.
CONFORMANCE_WIDTHS = PINNED_WIDTHS + (5,)


def width_id(bits: int) -> str:
    """Test id of one width: its header name (``int4``)."""
    return f"int{bits}"

#: Multiplicative + additive slack on the declared bound: covers only the
#: float rounding of the bound computation itself, never a looser grid.
BOUND_RTOL = 1e-9
BOUND_ATOL = 1e-12


def assert_round_trip_within_bound(
    fmt: IntFormat, weight: np.ndarray, group_size: int | None
) -> QuantizedTensor:
    """Obligation 1: reconstruction error never exceeds the declared bound."""
    tensor = fmt.encode(weight, group_size)
    decoded = fmt.decode(tensor)
    assert decoded.shape == weight.shape
    assert np.isfinite(decoded).all(), f"{fmt.name}: non-finite reconstruction"
    error = float(np.abs(decoded - np.asarray(weight, dtype=np.float64)).max())
    bound = fmt.error_bound(tensor, weight)
    assert bound >= 0.0, f"{fmt.name}: negative declared bound {bound}"
    assert error <= bound * (1 + BOUND_RTOL) + BOUND_ATOL, (
        f"{fmt.name}: reconstruction error {error} exceeds the declared "
        f"bound {bound}"
    )
    return tensor


def assert_code_domain(fmt: IntFormat, tensor: QuantizedTensor) -> None:
    """Obligation 3: codes honour the packing layer's ``Bits:`` contract."""
    assert tensor.codes.dtype == np.int64
    assert tensor.bits == fmt.bits and 1 <= tensor.bits <= 16
    low = int(tensor.codes.min())
    high = int(tensor.codes.max())
    assert 0 <= low and high < (1 << tensor.bits), (
        f"{fmt.name}: codes span [{low}, {high}] outside "
        f"[0, {(1 << tensor.bits) - 1}]"
    )


def assert_tensors_equal(a: QuantizedTensor, b: QuantizedTensor) -> None:
    """Field-by-field exact equality of two encoded tensors."""
    assert a.format == b.format
    assert a.bits == b.bits
    assert a.group_size == b.group_size
    assert tuple(a.shape) == tuple(b.shape)
    assert np.array_equal(a.codes, b.codes)
    assert a.scales.dtype == b.scales.dtype
    assert np.array_equal(a.scales, b.scales)
    assert a.zeros.dtype == b.zeros.dtype
    assert np.array_equal(a.zeros, b.zeros)


def assert_payload_byte_identity(
    fmt: IntFormat, tensor: QuantizedTensor
) -> None:
    """Obligation 2: pack → unpack → pack is byte-stable."""
    arrays, meta = fmt.pack_payload(tensor)
    rebuilt = fmt.unpack_payload(arrays, meta)
    assert_tensors_equal(tensor, rebuilt)
    arrays2, meta2 = fmt.pack_payload(rebuilt)
    assert meta == meta2
    assert set(arrays) == set(arrays2)
    for key in arrays:
        assert arrays[key].dtype == arrays2[key].dtype, key
        assert np.array_equal(arrays[key], arrays2[key]), (
            f"{fmt.name}: payload array {key!r} not byte-identical after "
            "a pack/unpack cycle"
        )


def assert_serialize_round_trip(
    fmt: IntFormat, tensor: QuantizedTensor, tmp_path
) -> None:
    """Obligation 4: the payload survives the checksummed ``.npz`` archive."""
    arrays, meta = fmt.pack_payload(tensor)
    path = tmp_path / f"{fmt.name}.npz"
    save_arrays(path, arrays, meta)
    assert path.with_name(path.name + ".sha256").exists()
    loaded_arrays, loaded_meta = load_arrays(path)
    assert loaded_meta == meta
    assert set(loaded_arrays) == set(arrays)
    for key in arrays:
        assert np.array_equal(loaded_arrays[key], arrays[key]), key
    assert_tensors_equal(tensor, fmt.unpack_payload(loaded_arrays, loaded_meta))


def run_conformance(
    fmt: IntFormat,
    weight: np.ndarray,
    group_size: int | None,
    tmp_path=None,
) -> QuantizedTensor:
    """All obligations on one (format, weight, geometry) case.

    ``tmp_path=None`` skips the on-disk obligation (the hypothesis suite
    runs many examples and exercises serialization separately).
    """
    tensor = assert_round_trip_within_bound(fmt, weight, group_size)
    assert_code_domain(fmt, tensor)
    assert_payload_byte_identity(fmt, tensor)
    if tmp_path is not None:
        assert_serialize_round_trip(fmt, tensor, tmp_path)
    return tensor
