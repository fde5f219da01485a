"""Integration tests: the full pipeline on the trained fixture model.

These mirror the paper's qualitative claims at micro scale:
train -> calibrate -> quantize (several methods) -> evaluate, and check the
*orderings* Table 1 / Table 3 report.
"""

import numpy as np
import pytest

from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.core.allocation import manual_blockwise_allocation
from repro.data.tasks import build_task_suite
from repro.eval.perplexity import perplexity
from repro.eval.zeroshot import evaluate_suite
from repro.quant.rtn import rtn_quantize_model
from tests.conftest import clone


@pytest.fixture(scope="module")
def eval_stream(corpus_splits):
    return corpus_splits.test[:3000]


def ppl(model, stream):
    return perplexity(model, stream, seq_len=32)


class TestPerplexityOrderings:
    def test_quantization_hurts_and_bits_help(
        self, trained_micro_model, calibration, eval_stream
    ):
        fp = ppl(trained_micro_model, eval_stream)
        results = {}
        for ratio in (100, 50, 0):
            model = clone(trained_micro_model)
            aptq_quantize_model(
                model, calibration,
                APTQConfig(ratio_4bit=ratio / 100, group_size=8, n_probes=2),
            )
            results[ratio] = ppl(model, eval_stream)
        assert fp <= results[100] * 1.05
        assert results[100] < results[0]
        assert results[50] < results[0] * 1.05

    def test_aptq_4bit_close_to_fp(self, trained_micro_model, calibration,
                                   eval_stream):
        model = clone(trained_micro_model)
        aptq_quantize_model(
            model, calibration,
            APTQConfig(ratio_4bit=1.0, group_size=8, n_probes=2),
        )
        assert ppl(model, eval_stream) < ppl(trained_micro_model, eval_stream) * 1.2

    def test_aptq_beats_rtn_at_2bit(self, trained_micro_model, calibration,
                                    eval_stream):
        rtn = clone(trained_micro_model)
        rtn_quantize_model(rtn, bits=2, group_size=8)
        aptq = clone(trained_micro_model)
        aptq_quantize_model(
            aptq, calibration,
            APTQConfig(ratio_4bit=0.0, group_size=8, n_probes=2),
        )
        assert ppl(aptq, eval_stream) < ppl(rtn, eval_stream)


class TestTable3Ablation:
    def test_sensitivity_allocation_not_worse_than_manual(
        self, trained_micro_model, calibration, eval_stream
    ):
        manual = clone(trained_micro_model)
        aptq_quantize_model(
            manual, calibration,
            APTQConfig(
                group_size=8, n_probes=2,
                allocation_override=manual_blockwise_allocation(manual, 0.5),
            ),
        )
        auto = clone(trained_micro_model)
        aptq_quantize_model(
            auto, calibration,
            APTQConfig(ratio_4bit=0.5, group_size=8, n_probes=2),
        )
        # At micro scale we allow a small tolerance, but APTQ's allocation
        # must not be substantially worse than the manual baseline.
        assert ppl(auto, eval_stream) < ppl(manual, eval_stream) * 1.1


class TestZeroShotDegradation:
    def test_accuracy_degrades_gracefully(
        self, trained_micro_model, calibration, single_corpus
    ):
        suite = build_task_suite(
            "probe",
            single_corpus.grammars[0],
            single_corpus.tokenizer,
            n_examples=60,
            n_choices=2,
            context_len=16,
            continuation_len=6,
            distractor="random",
            seed=11,
        )
        fp_acc = evaluate_suite(trained_micro_model, suite)
        q4 = clone(trained_micro_model)
        aptq_quantize_model(
            q4, calibration, APTQConfig(ratio_4bit=1.0, group_size=8, n_probes=2)
        )
        q4_acc = evaluate_suite(q4, suite)
        assert q4_acc > 0.5  # still above chance
        assert q4_acc > fp_acc - 0.15  # small drop at 4 bits


class TestDeterminism:
    def test_aptq_fully_deterministic(self, trained_micro_model, calibration):
        outputs = []
        for _ in range(2):
            model = clone(trained_micro_model)
            result = aptq_quantize_model(
                model, calibration,
                APTQConfig(ratio_4bit=0.75, group_size=8, n_probes=2, seed=9),
            )
            outputs.append(
                (result.average_bits,
                 model.blocks[0].self_attn.q_proj.weight.data.copy())
            )
        assert outputs[0][0] == outputs[1][0]
        assert np.array_equal(outputs[0][1], outputs[1][1])
