"""Tests for the per-table experiment runners, on a micro context."""

import numpy as np
import pytest

import repro.experiments.runners as runners
from repro.data.corpus import c4_sim, wikitext2_sim
from repro.data.tasks import build_task_suite
from repro.experiments.runners import (
    ExperimentContext,
    build_context,
    run_figure2,
    run_table1,
    run_table2,
    run_table3,
)


@pytest.fixture(scope="module")
def micro_context(trained_micro_model, calibration, corpus_splits,
                  single_corpus):
    suite = build_task_suite(
        "probe",
        single_corpus.grammars[0],
        single_corpus.tokenizer,
        n_examples=12,
        n_choices=2,
        context_len=12,
        continuation_len=4,
        distractor="random",
        seed=5,
    )
    return ExperimentContext(
        model_name="micro",
        reference_model=trained_micro_model,
        calibration=calibration,
        eval_streams={
            "c4-sim": corpus_splits.test[:1500],
            "wikitext2-sim": corpus_splits.validation[:1500],
        },
        suites=[suite],
        group_size=8,
        seed=0,
    )


class TestBuildContext:
    def test_eval_streams_are_the_default_test_splits(
        self, monkeypatch, micro_model
    ):
        monkeypatch.setattr(runners, "pretrained", lambda name: micro_model)
        context = build_context(
            "micro", n_calibration=2, eval_tokens=600, with_tasks=False
        )
        assert list(context.eval_streams) == ["c4-sim", "wikitext2-sim"]
        for corpus in (c4_sim(), wikitext2_sim()):
            expected = corpus.splits(test_tokens=600).test
            assert np.array_equal(context.eval_streams[corpus.name], expected)


class TestRunTable1:
    def test_rows_and_columns(self, micro_context):
        rows = run_table1(
            micro_context, methods=("fp16", "rtn", "aptq-75"), n_probes=2
        )
        assert [row["method"] for row in rows] == ["fp16", "rtn", "aptq-75"]
        for row in rows:
            assert {"method", "avg_bits", "c4-sim", "wikitext2-sim"} <= set(row)
            assert np.isfinite(row["c4-sim"])

    def test_fp16_bits(self, micro_context):
        rows = run_table1(micro_context, methods=("fp16",))
        assert rows[0]["avg_bits"] == 16.0

    def test_reference_model_untouched(self, micro_context):
        before = micro_context.reference_model.blocks[0].mlp.up_proj.weight.data.copy()
        run_table1(micro_context, methods=("rtn",))
        after = micro_context.reference_model.blocks[0].mlp.up_proj.weight.data
        assert np.array_equal(before, after)


class TestRunTable2:
    def test_rows_include_suite_scores(self, micro_context):
        rows = run_table2(micro_context, methods=("fp16", "rtn"))
        for row in rows:
            assert "probe" in row and "mean" in row
            assert 0.0 <= row["probe"] <= 100.0

    def test_requires_suites(self, micro_context):
        bare = ExperimentContext(
            model_name="micro",
            reference_model=micro_context.reference_model,
            calibration=micro_context.calibration,
            eval_streams=micro_context.eval_streams,
            suites=[],
            group_size=8,
            seed=0,
        )
        with pytest.raises(ValueError):
            run_table2(bare, methods=("fp16",))


class TestRunTable3:
    def test_pairs_have_matching_bits(self, micro_context):
        rows = run_table3(
            micro_context, methods=("manual-50", "aptq-50"), n_probes=2
        )
        assert abs(rows[0]["avg_bits"] - rows[1]["avg_bits"]) < 0.5
        for row in rows:
            assert row["ratio_4bit"] == "50%"


class TestRunFigure2:
    def test_series_structure(self, micro_context):
        series = run_figure2(
            micro_context, ratios=(100, 0), references=("rtn",), n_probes=2
        )
        assert set(series) == {"aptq", "rtn"}
        assert len(series["aptq"]) == 2
        bits = [b for b, _ in series["aptq"]]
        assert max(bits) == pytest.approx(4.0)
        assert min(bits) == pytest.approx(2.0)
