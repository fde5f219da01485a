"""Edge-deployment scenario: pack an APTQ model into real integer storage.

The paper motivates APTQ with edge-device memory limits.  This example
quantizes a model with APTQ, materialises every layer in the *packed*
deployment format (dense 2/4-bit codes + fp16 group grids, see
``repro.quant.packing``), verifies the packed forward pass is numerically
faithful, and prints the resulting memory budget layer by layer.

Run:  python examples/mixed_precision_deployment.py [--model llama-test]
"""

import argparse

import numpy as np

from repro.core import APTQConfig, aptq_quantize_model
from repro.data import c4_sim, sample_calibration
from repro.models import clone_model, pretrained
from repro.quant import FormatLinear


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="llama-7b-sim")
    parser.add_argument("--ratio", type=int, default=75)
    args = parser.parse_args()

    reference = pretrained(args.model)
    calibration = sample_calibration(
        c4_sim(), n_segments=64, seq_len=reference.config.max_seq_len
    )
    model = clone_model(reference)
    result = aptq_quantize_model(
        model, calibration, APTQConfig(ratio_4bit=args.ratio / 100)
    )

    print(f"{'layer':<40} {'bits':>4} {'packed':>10} {'fp16':>10} {'ratio':>6}")
    total_packed = 0
    total_fp16 = 0
    worst_error = 0.0
    rng = np.random.default_rng(0)
    for name, linear in model.quantizable_linears().items():
        bits = result.allocation[name]
        packed = FormatLinear.from_weight(
            linear.weight.data, bits, group_size=32
        )
        fp16_bytes = linear.weight.size * 2
        total_packed += packed.storage_bytes()
        total_fp16 += fp16_bytes
        print(f"{name:<40} {bits:>4} {packed.storage_bytes():>9}B "
              f"{fp16_bytes:>9}B {fp16_bytes / packed.storage_bytes():>5.1f}x")
        # Verify the packed layer computes the same product as the
        # fake-quantized weights the evaluation used.
        x = rng.normal(size=(4, linear.d_in))
        error = np.abs(
            packed.forward_array(x) - x @ packed.dequantize()
        ).max()
        worst_error = max(worst_error, error)

    print("-" * 74)
    print(f"{'total (quantizable layers)':<40} {'':>4} {total_packed:>9}B "
          f"{total_fp16:>9}B {total_fp16 / total_packed:>5.1f}x")
    print(f"\naverage bits (Eq. 18): {result.average_bits:.2f}")
    print(f"packed-vs-dequantized forward max abs error: {worst_error:.2e}")


if __name__ == "__main__":
    main()
