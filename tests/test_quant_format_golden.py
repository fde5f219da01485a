"""Golden regression pins for the int-k format's encoded outputs.

Mirrors ``tests/test_quant_golden.py``: SHA-256 digests over the packed
payload arrays (codes, scales, zeros), the header and the decoded weight
each pinned width produces on a fixed seeded weight.  Any silent drift in
the encoder — a changed grid fit, a reordered rounding, a new payload
layout — flips a digest and fails tier-1.

To intentionally re-pin after a *reviewed* format change::

    PYTHONPATH=src python tests/test_quant_format_golden.py --regen
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from format_conformance import PINNED_WIDTHS
from repro.quant.formats import IntFormat

GOLDEN_PATH = Path(__file__).parent / "golden" / "format_golden.json"

#: Fixed case every width is pinned on: one seeded weight, one geometry
#: with a remainder group.
PIN_SHAPE = (48, 12)
PIN_GROUP_SIZE = 10
PIN_SEED = 2024


def array_digest(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and raw bytes of a contiguous array."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def compute_digests() -> dict[str, str]:
    """Payload digests of every pinned width on the fixed case."""
    rng = np.random.default_rng(PIN_SEED)
    weight = rng.standard_normal(PIN_SHAPE)
    digests: dict[str, str] = {}
    for bits in PINNED_WIDTHS:
        fmt = IntFormat(bits)
        tensor = fmt.encode(weight, PIN_GROUP_SIZE)
        arrays, meta = fmt.pack_payload(tensor)
        for key in sorted(arrays):
            digests[f"{fmt.name}/{key}"] = array_digest(arrays[key])
        digests[f"{fmt.name}/__meta__"] = hashlib.sha256(
            json.dumps(meta, sort_keys=True).encode()
        ).hexdigest()
        digests[f"{fmt.name}/decoded"] = array_digest(fmt.decode(tensor))
    return digests


def test_format_golden_digests_unchanged():
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; record it with "
        "`PYTHONPATH=src python tests/test_quant_format_golden.py --regen`"
    )
    pinned = json.loads(GOLDEN_PATH.read_text())
    current = compute_digests()
    drifted = sorted(
        key
        for key in set(pinned) | set(current)
        if pinned.get(key) != current.get(key)
    )
    assert not drifted, (
        "the int format drifted from the golden pins "
        f"(keys: {drifted}); if the change is intentional and reviewed, "
        "re-pin with `python tests/test_quant_format_golden.py --regen`"
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
