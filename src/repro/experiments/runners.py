"""One runner per paper table/figure.

Each runner builds (or is handed) an :class:`ExperimentContext` — the
pretrained model, the paper's calibration protocol and the evaluation
data — then sweeps the relevant methods and returns result rows ready for
:mod:`repro.report`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.data.calibration import CalibrationSet, sample_calibration
from repro.data.corpus import c4_sim, wikitext2_sim
from repro.data.tasks import TaskSuite, standard_task_suites
from repro.eval.perplexity import perplexity
from repro.eval.zeroshot import evaluate_suites
from repro.experiments.methods import apply_method
from repro.models.zoo import clone_model, pretrained
from repro.nn.transformer import LlamaModel

__all__ = [
    "ExperimentContext",
    "build_context",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_figure2",
]

TABLE1_METHODS = (
    "fp16",
    "gptq",
    "owq",
    "llm-qat",
    "pb-llm-20",
    "aptq-100",
    "aptq-75",
    "aptq-50",
)
TABLE2_METHODS = (
    "fp16",
    "rtn",
    "smoothquant",
    "fpq",
    "llm-qat",
    "gptq",
    "pb-llm-30",
    "pb-llm-10",
    "aptq-100",
    "aptq-90",
    "aptq-80",
    "aptq-75",
    "aptq-70",
    "aptq-60",
    "aptq-50",
)
TABLE3_METHODS = ("manual-75", "aptq-75", "manual-50", "aptq-50")
FIGURE2_RATIOS = (100, 90, 80, 75, 70, 60, 50)
FIGURE2_REFERENCES = ("gptq", "owq", "llm-qat", "pb-llm-20")


@dataclasses.dataclass
class ExperimentContext:
    """Everything one model's experiments need, built once and reused."""

    model_name: str
    reference_model: LlamaModel
    calibration: CalibrationSet
    eval_streams: dict[str, np.ndarray]
    suites: list[TaskSuite]
    group_size: int | None
    seed: int


def build_context(
    model_name: str = "llama-7b-sim",
    n_calibration: int = 128,
    calibration_seq_len: int | None = None,
    eval_tokens: int = 12_000,
    n_task_examples: int = 150,
    group_size: int | None = 32,
    seed: int = 0,
    with_tasks: bool = True,
) -> ExperimentContext:
    """Assemble the paper's experimental setup for one model.

    Mirrors Section 4.1: 128 calibration segments from C4 (c4-sim), group
    size scaled to the stand-in (32 vs the paper's 128), perplexity on C4
    and WikiText-2 stand-ins, zero-shot via the five synthetic suites.
    """
    model = pretrained(model_name)
    corpus = c4_sim()
    calibration = sample_calibration(
        corpus,
        n_segments=n_calibration,
        seq_len=calibration_seq_len or model.config.max_seq_len,
        seed=1234 + seed,
    )
    eval_streams = {
        source.name: source.splits(
            train_tokens=0, validation_tokens=0, test_tokens=eval_tokens
        ).test
        for source in (corpus, wikitext2_sim())
    }
    suites = (
        standard_task_suites(corpus, n_examples=n_task_examples)
        if with_tasks
        else []
    )
    return ExperimentContext(
        model_name=model_name,
        reference_model=model,
        calibration=calibration,
        eval_streams=eval_streams,
        suites=suites,
        group_size=group_size,
        seed=seed,
    )


def _quantized_copy(context: ExperimentContext, method: str, **kwargs):
    model = clone_model(context.reference_model)
    applied = apply_method(
        method,
        model,
        context.calibration,
        group_size=context.group_size,
        seed=context.seed,
        **kwargs,
    )
    return model, applied


def run_table1(
    context: ExperimentContext,
    methods: Sequence[str] = TABLE1_METHODS,
    **method_kwargs,
) -> list[dict]:
    """Table 1: perplexity on the C4 and WikiText-2 stand-ins."""
    rows = []
    for method in methods:
        model, applied = _quantized_copy(context, method, **method_kwargs)
        row = {
            "method": method,
            "avg_bits": round(applied.average_bits, 2),
        }
        for corpus_name, stream in context.eval_streams.items():
            row[corpus_name] = perplexity(model, stream)
        rows.append(row)
    return rows


def run_table2(
    context: ExperimentContext,
    methods: Sequence[str] = TABLE2_METHODS,
    **method_kwargs,
) -> list[dict]:
    """Table 2: zero-shot accuracy on the five synthetic suites."""
    if not context.suites:
        raise ValueError("context was built without task suites")
    rows = []
    for method in methods:
        model, applied = _quantized_copy(context, method, **method_kwargs)
        accuracies = evaluate_suites(model, context.suites)
        row = {
            "model": context.model_name,
            "method": method,
            "avg_bits": round(applied.average_bits, 2),
        }
        for suite_name, accuracy in accuracies.items():
            row[suite_name] = 100.0 * accuracy
        rows.append(row)
    return rows


def run_table3(
    context: ExperimentContext,
    methods: Sequence[str] = TABLE3_METHODS,
    **method_kwargs,
) -> list[dict]:
    """Table 3: APTQ vs manual block-wise allocation, C4 perplexity."""
    rows = []
    for method in methods:
        model, applied = _quantized_copy(context, method, **method_kwargs)
        rows.append(
            {
                "method": method,
                "ratio_4bit": method.split("-")[-1] + "%",
                "avg_bits": round(applied.average_bits, 2),
                "c4-sim": perplexity(model, context.eval_streams["c4-sim"]),
            }
        )
    return rows


def run_figure2(
    context: ExperimentContext,
    ratios: Sequence[int] = FIGURE2_RATIOS,
    references: Sequence[str] = FIGURE2_REFERENCES,
    **method_kwargs,
) -> dict[str, list[tuple[float, float]]]:
    """Figure 2: C4 perplexity of APTQ across 4-bit ratios vs baselines.

    Returns named series of (average bits, perplexity) points.
    """
    stream = context.eval_streams["c4-sim"]
    aptq_series: list[tuple[float, float]] = []
    for ratio in ratios:
        model, applied = _quantized_copy(
            context, f"aptq-{ratio}", **method_kwargs
        )
        aptq_series.append((applied.average_bits, perplexity(model, stream)))
    series = {"aptq": aptq_series}
    for method in references:
        model, applied = _quantized_copy(context, method, **method_kwargs)
        series[method] = [(applied.average_bits, perplexity(model, stream))]
    return series
