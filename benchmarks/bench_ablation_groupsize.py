"""Ablation A3: quantization group size at mixed 2/4-bit precision.

The paper fixes group size 128 (we scale to 32 for the stand-in models).
This bench sweeps the group size at APTQ-75% to show the accuracy/metadata
trade-off: smaller groups track outliers better (lower perplexity) at the
cost of more fp16 grid parameters.
"""

from repro.core import APTQConfig, aptq_quantize_model
from repro.eval.perplexity import perplexity
from repro.models.zoo import clone_model
from repro.quant import FormatLinear
from repro.report import format_table, write_csv


def run_ablation(context, group_sizes=(8, 16, 32, 64)):
    stream = context.eval_streams["c4-sim"]
    rows = []
    for group_size in group_sizes:
        model = clone_model(context.reference_model)
        result = aptq_quantize_model(
            model, context.calibration,
            APTQConfig(ratio_4bit=0.75, group_size=group_size),
        )
        storage = sum(
            FormatLinear.from_weight(
                linear.weight.data, result.allocation[name], group_size
            ).storage_bytes()
            for name, linear in model.quantizable_linears().items()
        )
        rows.append(
            {
                "group_size": group_size,
                "c4-sim": perplexity(model, stream),
                "packed_bytes": storage,
            }
        )
    return rows


def test_ablation_group_size(benchmark, context_7b, results_dir):
    rows = benchmark.pedantic(
        lambda: run_ablation(context_7b), rounds=1, iterations=1
    )
    table = format_table(
        rows, title="Ablation A3: group size at APTQ-75% (3.5 avg bits)"
    )
    print("\n" + table)
    write_csv(results_dir / "ablation_groupsize.csv", rows)
    (results_dir / "ablation_groupsize.txt").write_text(table + "\n")

    by_size = {row["group_size"]: row for row in rows}
    # Metadata monotonically shrinks with larger groups.
    sizes = sorted(by_size)
    for small, large in zip(sizes, sizes[1:]):
        assert by_size[small]["packed_bytes"] > by_size[large]["packed_bytes"]
    # Perplexity should not *improve* dramatically as groups grow.
    assert by_size[sizes[0]]["c4-sim"] <= by_size[sizes[-1]]["c4-sim"] * 1.10
