"""Golden regression tests: SHA-256 pins of quantized outputs.

The differential suite proves the fast paths equal the slow path; this
suite proves *both* still produce the exact bytes they produced when the
pins in ``tests/golden/quant_golden.json`` were recorded.  Any silent
numeric drift in the solver, the Hessian pipeline, or APTQ — a changed
summation order, a different grid fit, a reordered sweep — flips a digest
and fails tier-1.

To intentionally re-pin after a *reviewed* numerical change::

    PYTHONPATH=src python tests/test_quant_golden.py --regen
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.data.calibration import CalibrationSet
from repro.nn.transformer import LlamaConfig, LlamaModel
from repro.quant.solver import quantize_with_hessian

GOLDEN_PATH = Path(__file__).parent / "golden" / "quant_golden.json"


def array_digest(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and raw bytes of a contiguous array."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def solver_digests() -> dict[str, str]:
    """Digests of the solver outputs on fixed seeded problems."""
    digests: dict[str, str] = {}
    for seed, shape, bits, group_size in [
        (0, (32, 24), 4, 8),
        (1, (48, 16), 2, 12),
        (2, (40, 40), 4, None),
    ]:
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal(shape)
        basis = rng.standard_normal((shape[0], shape[0]))
        hessian = basis @ basis.T / shape[0] + 0.05 * np.eye(shape[0])
        result = quantize_with_hessian(
            weight,
            hessian,
            bits=bits,
            group_size=group_size,
        )
        key = f"solver/seed{seed}-{shape[0]}x{shape[1]}-b{bits}"
        digests[key + "/quantized"] = array_digest(result.quantized_weight)
        digests[key + "/codes"] = array_digest(result.group_result.codes)
        digests[key + "/scales"] = array_digest(result.group_result.scales)
    return digests


def aptq_digests() -> dict[str, str]:
    """Digests of the end-to-end APTQ state on the fixed micro model."""
    config = LlamaConfig(
        vocab_size=64,
        d_model=16,
        n_layers=2,
        n_heads=2,
        d_ff=24,
        max_seq_len=32,
    )
    rng = np.random.default_rng(0)
    calibration = CalibrationSet(
        segments=rng.integers(0, 64, size=(6, 12)),
        corpus_name="synthetic",
        seed=0,
    )
    model = LlamaModel(config, seed=0)
    result = aptq_quantize_model(
        model, calibration, APTQConfig(ratio_4bit=0.5)
    )
    digests = {
        f"aptq/state/{name}": array_digest(array)
        for name, array in sorted(model.state_dict().items())
    }
    digests["aptq/allocation"] = hashlib.sha256(
        json.dumps(result.allocation, sort_keys=True).encode()
    ).hexdigest()
    return digests


def compute_digests() -> dict[str, str]:
    """All golden digests, deterministic from fixed seeds."""
    digests = solver_digests()
    digests.update(aptq_digests())
    return digests


def test_golden_digests_unchanged():
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; record it with "
        "`PYTHONPATH=src python tests/test_quant_golden.py --regen`"
    )
    pinned = json.loads(GOLDEN_PATH.read_text())
    current = compute_digests()
    drifted = sorted(
        key
        for key in set(pinned) | set(current)
        if pinned.get(key) != current.get(key)
    )
    assert not drifted, (
        "quantization outputs drifted from the golden pins "
        f"(keys: {drifted}); if the numerical change is intentional and "
        "reviewed, re-pin with `python tests/test_quant_golden.py --regen`"
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
