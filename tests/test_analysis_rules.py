"""Unit tests for the static-analysis rules: exact (rule-id, line) checks.

Each fixture is a minimal snippet exhibiting (or deliberately avoiding) one
violation; assertions pin both the rule id and the line number so the rules
cannot silently drift to different anchors.
"""

import json

import pytest

from repro.analysis import (
    all_rules,
    analyze_source,
    get_rule,
    render_json,
    render_text,
)

EXPECTED_RULE_IDS = {
    "numeric-unstable-sigmoid",
    "numeric-raw-exp",
    "numeric-raw-log",
    "numeric-div-no-eps",
    "autograd-backward-contract",
    "autograd-inplace-data",
    "autograd-eval-no-grad",
    "dtype-drift",
    "api-missing-all",
    "api-missing-docstring",
    "api-mutable-default",
    "api-bare-except",
    "runtime-raw-linalg",
    "serve-unbounded-queue",
    "perf-raw-factorization",
    "perf-full-logsoftmax",
    "perf-calibration-reforward",
}


def hits(source, rule_id, path="src/repro/nn/example.py"):
    """(rule-id, line) pairs for one rule over a snippet."""
    return [
        (d.rule_id, d.line)
        for d in analyze_source(source, path=path, select=[rule_id])
    ]


class TestRegistry:
    def test_expected_rules_registered(self):
        assert {r.id for r in all_rules()} >= EXPECTED_RULE_IDS

    def test_rules_have_summaries(self):
        for registered in all_rules():
            assert registered.summary, registered.id

    def test_get_rule_roundtrip(self):
        assert get_rule("numeric-raw-exp").id == "numeric-raw-exp"
        with pytest.raises(KeyError):
            get_rule("no-such-rule")

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            analyze_source("x = 1\n", select=["bogus-rule"])


class TestNumericRules:
    def test_unstable_sigmoid_flagged(self):
        src = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return 1.0 / (1.0 + np.exp(-x))\n'
        assert hits(src, "numeric-unstable-sigmoid") == [
            ("numeric-unstable-sigmoid", 7)
        ]

    def test_sign_split_sigmoid_clean(self):
        src = (
            '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n'
            "    z = np.exp(-np.abs(x))\n"
            "    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))\n"
        )
        assert hits(src, "numeric-unstable-sigmoid") == []
        assert hits(src, "numeric-raw-exp") == []

    def test_raw_exp_flagged(self):
        src = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return np.exp(x)\n'
        assert hits(src, "numeric-raw-exp") == [("numeric-raw-exp", 7)]

    def test_max_shift_is_exp_evidence(self):
        src = (
            '"""m."""\nimport numpy as np\n\n\ndef softmax(x):\n    """D."""\n'
            "    shifted = x - x.max(axis=-1, keepdims=True)\n"
            "    e = np.exp(shifted)\n"
            "    return e / e.sum(axis=-1, keepdims=True)\n"
        )
        assert hits(src, "numeric-raw-exp") == []

    def test_shift_evidence_does_not_leak_across_functions(self):
        src = (
            '"""m."""\nimport numpy as np\n\n\ndef stable(x):\n    """D."""\n'
            "    shifted = x - x.max()\n"
            "    return np.exp(shifted)\n\n\n"
            'def unstable(x):\n    """D."""\n    return np.exp(x)\n'
        )
        assert hits(src, "numeric-raw-exp") == [("numeric-raw-exp", 13)]

    def test_raw_log_flagged_and_floored_log_clean(self):
        bad = '"""m."""\nimport numpy as np\n\n\ndef f(p):\n    """D."""\n    return np.log(p)\n'
        good = '"""m."""\nimport numpy as np\n\n\ndef f(p):\n    """D."""\n    return np.log(np.maximum(p, 1e-12))\n'
        eps = '"""m."""\nimport numpy as np\n\n\ndef f(p, eps):\n    """D."""\n    return np.log(p + eps)\n'
        assert hits(bad, "numeric-raw-log") == [("numeric-raw-log", 7)]
        assert hits(good, "numeric-raw-log") == []
        assert hits(eps, "numeric-raw-log") == []

    def test_div_no_eps_flagged_only_for_computed_statistics(self):
        bad = (
            '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n'
            "    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True))\n"
        )
        good = bad.replace("keepdims=True))", "keepdims=True) + 1e-5)")
        dim = '"""m."""\nimport numpy as np\n\n\ndef f(x, d):\n    """D."""\n    return x / np.sqrt(d)\n'
        assert hits(bad, "numeric-div-no-eps") == [("numeric-div-no-eps", 7)]
        assert hits(good, "numeric-div-no-eps") == []
        assert hits(dim, "numeric-div-no-eps") == []


class TestAutogradRules:
    def test_backward_missing_sink_flagged(self):
        src = (
            '"""m."""\n\n\ndef op(a):\n    """D."""\n'
            "    def backward(grad, sink):\n"
            "        a.grad = grad\n"
            "    return backward\n"
        )
        lines = [line for (_, line) in hits(src, "autograd-backward-contract")]
        assert 6 in lines  # never calls sink
        assert 7 in lines  # mutates .grad directly

    def test_backward_wrong_arity_flagged(self):
        src = (
            '"""m."""\n\n\ndef op(a):\n    """D."""\n'
            "    def backward(grad):\n"
            "        return grad\n"
            "    return backward\n"
        )
        assert hits(src, "autograd-backward-contract") == [
            ("autograd-backward-contract", 6)
        ]

    def test_backward_via_sink_clean(self):
        src = (
            '"""m."""\n\n\ndef op(a):\n    """D."""\n'
            "    def backward(grad, sink):\n"
            "        sink(a, grad)\n"
            "    return backward\n"
        )
        assert hits(src, "autograd-backward-contract") == []

    def test_inplace_data_flagged_outside_quant(self):
        src = '"""m."""\n\n\ndef f(t, w):\n    """D."""\n    t.data = w\n'
        assert hits(src, "autograd-inplace-data", path="src/repro/nn/x.py") == [
            ("autograd-inplace-data", 6)
        ]
        # Subscript stores and augmented stores count too.
        aug = '"""m."""\n\n\ndef f(t, w):\n    """D."""\n    t.data[0] += w\n'
        assert hits(aug, "autograd-inplace-data", path="src/repro/core/x.py") == [
            ("autograd-inplace-data", 6)
        ]

    def test_inplace_data_allowed_in_quant_and_training(self):
        src = '"""m."""\n\n\ndef f(t, w):\n    """D."""\n    t.data = w\n'
        for path in ("src/repro/quant/rtn.py", "src/repro/training/optim.py"):
            assert hits(src, "autograd-inplace-data", path=path) == []

    def test_data_reads_not_flagged(self):
        src = '"""m."""\n\n\ndef f(t):\n    """D."""\n    return t.data[0] + 1\n'
        assert hits(src, "autograd-inplace-data") == []

    def test_eval_forward_outside_no_grad_flagged(self):
        src = (
            '"""m."""\n\n\ndef score(model, ids):\n    """D."""\n'
            "    return model.forward(ids)\n"
        )
        assert hits(src, "autograd-eval-no-grad", path="src/repro/eval/x.py") == [
            ("autograd-eval-no-grad", 6)
        ]

    def test_eval_forward_under_no_grad_clean(self):
        src = (
            '"""m."""\nfrom repro.autograd import no_grad\n\n\n'
            'def score(model, ids):\n    """D."""\n'
            "    with no_grad():\n"
            "        return model.forward(ids)\n"
        )
        assert hits(src, "autograd-eval-no-grad", path="src/repro/eval/x.py") == []

    def test_generate_function_flagged_outside_eval_package(self):
        src = (
            '"""m."""\n\n\ndef generate_tokens(model, ids):\n    """D."""\n'
            "    return model.forward(ids)\n"
        )
        assert hits(src, "autograd-eval-no-grad", path="src/repro/nn/x.py") == [
            ("autograd-eval-no-grad", 6)
        ]

    def test_forward_array_is_fine_in_eval(self):
        src = (
            '"""m."""\n\n\ndef score(model, ids):\n    """D."""\n'
            "    return model.forward_array(ids)\n"
        )
        assert hits(src, "autograd-eval-no-grad", path="src/repro/eval/x.py") == []

    def test_dtype_drift_flagged(self):
        astype = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return x.astype(np.float32)\n'
        kwarg = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return np.asarray(x, dtype=np.float16)\n'
        assert hits(astype, "dtype-drift") == [("dtype-drift", 7)]
        assert hits(kwarg, "dtype-drift") == [("dtype-drift", 7)]

    def test_dtype_drift_allowed_in_storage_modules(self):
        src = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return x.astype(np.float16)\n'
        for path in (
            "src/repro/quant/packing.py",
            "src/repro/quant/formats.py",
            "src/repro/quant/deploy.py",
            "src/repro/nn/serialize.py",
        ):
            assert hits(src, "dtype-drift", path=path) == []

    def test_float64_never_flagged(self):
        src = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return x.astype(np.float64)\n'
        assert hits(src, "dtype-drift") == []


class TestHygieneRules:
    def test_missing_all_flagged_at_line_1(self):
        src = '"""m."""\n\n\ndef f():\n    """D."""\n'
        assert hits(src, "api-missing-all") == [("api-missing-all", 1)]

    def test_module_with_all_clean(self):
        src = '"""m."""\n\n__all__ = ["f"]\n\n\ndef f():\n    """D."""\n'
        assert hits(src, "api-missing-all") == []

    def test_private_only_module_needs_no_all(self):
        src = '"""m."""\n\n\ndef _helper():\n    return 1\n'
        assert hits(src, "api-missing-all") == []

    def test_missing_docstrings_module_function_method(self):
        src = (
            "__all__ = ['f', 'C']\n\n\n"
            "def f():\n    return 1\n\n\n"
            "class C:\n"
            '    """D."""\n\n'
            "    def m(self):\n"
            "        return 2\n"
        )
        assert hits(src, "api-missing-docstring") == [
            ("api-missing-docstring", 1),  # module
            ("api-missing-docstring", 4),  # function f
            ("api-missing-docstring", 11),  # method C.m
        ]

    def test_mutable_default_flagged(self):
        src = '"""m."""\n\n\ndef f(x, acc=[]):\n    """D."""\n    return acc\n'
        assert hits(src, "api-mutable-default") == [("api-mutable-default", 4)]
        none_default = '"""m."""\n\n\ndef f(x, acc=None):\n    """D."""\n    return acc\n'
        assert hits(none_default, "api-mutable-default") == []

    def test_bare_except_flagged(self):
        src = (
            '"""m."""\n\n\ndef f():\n    """D."""\n'
            "    try:\n        return 1\n    except:\n        return 2\n"
        )
        assert hits(src, "api-bare-except") == [("api-bare-except", 8)]


class TestRobustnessRules:
    CHOLESKY = (
        '"""m."""\nimport numpy as np\n\n\ndef f(h):\n    """D."""\n'
        "    return np.linalg.cholesky(h)\n"
    )
    INV = (
        '"""m."""\nimport numpy as np\n\n\ndef f(h):\n    """D."""\n'
        "    return np.linalg.inv(h)\n"
    )

    def test_raw_cholesky_and_inv_flagged(self):
        assert hits(self.CHOLESKY, "runtime-raw-linalg") == [
            ("runtime-raw-linalg", 7)
        ]
        assert hits(self.INV, "runtime-raw-linalg") == [
            ("runtime-raw-linalg", 7)
        ]

    def test_sanctioned_modules_exempt(self):
        from repro.analysis.rules.robustness import RAW_LINALG_ALLOWED

        for module in RAW_LINALG_ALLOWED:
            path = "src/" + module.replace(".", "/") + ".py"
            assert hits(self.CHOLESKY, "runtime-raw-linalg", path=path) == []
            assert hits(self.INV, "runtime-raw-linalg", path=path) == []

    def test_other_linalg_calls_clean(self):
        src = (
            '"""m."""\nimport numpy as np\n\n\ndef f(h):\n    """D."""\n'
            "    return np.linalg.eigh(h)\n"
        )
        assert hits(src, "runtime-raw-linalg") == []


class TestServeUnboundedQueueRule:
    SERVE_PATH = "src/repro/serve/example.py"

    @staticmethod
    def _snippet(expr):
        return (
            '"""m."""\nimport asyncio\nimport collections\nimport queue\n'
            '\n\ndef f():\n    """D."""\n'
            f"    return {expr}\n"
        )

    @pytest.mark.parametrize(
        "expr",
        [
            "asyncio.Queue()",
            "queue.Queue()",
            "asyncio.Queue(maxsize=0)",
            "queue.Queue(0)",
            "asyncio.PriorityQueue()",
            "queue.LifoQueue(maxsize=None)",
            "collections.deque()",
            "collections.deque([], None)",
        ],
    )
    def test_unbounded_constructors_flagged(self, expr):
        assert hits(
            self._snippet(expr), "serve-unbounded-queue", path=self.SERVE_PATH
        ) == [("serve-unbounded-queue", 9)]

    def test_simplequeue_always_flagged(self):
        diagnostics = analyze_source(
            self._snippet("queue.SimpleQueue()"),
            path=self.SERVE_PATH,
            select=["serve-unbounded-queue"],
        )
        assert len(diagnostics) == 1
        assert "cannot be bounded" in diagnostics[0].message
        assert "AdmissionError" in diagnostics[0].message

    @pytest.mark.parametrize(
        "expr",
        [
            "asyncio.Queue(maxsize=8)",
            "queue.Queue(16)",
            "asyncio.Queue(maxsize=limit)",
            "collections.deque(maxlen=4)",
            "collections.deque([], 32)",
        ],
    )
    def test_bounded_constructors_clean(self, expr):
        src = self._snippet(expr).replace(
            "def f():", "def f(limit=8):"
        )
        assert (
            hits(src, "serve-unbounded-queue", path=self.SERVE_PATH) == []
        )

    def test_rule_scoped_to_serving_packages(self):
        from repro.analysis.rules.robustness import BOUNDED_QUEUE_PACKAGES

        assert "repro.serve" in BOUNDED_QUEUE_PACKAGES
        src = self._snippet("asyncio.Queue()")
        for path in (
            "src/repro/runtime/example.py",
            "src/repro/nn/example.py",
        ):
            assert hits(src, "serve-unbounded-queue", path=path) == []


class TestPerfFactorizationRule:
    FACTORIZE = (
        '"""m."""\nfrom repro.quant.solver import factorize_hessian\n\n\n'
        'def f(h):\n    """D."""\n    return factorize_hessian(h)\n'
    )
    INV_CHOL = (
        '"""m."""\nfrom repro.quant import solver\n\n\n'
        'def f(h):\n    """D."""\n    return solver.inverse_cholesky(h)\n'
    )

    def test_direct_factorization_flagged(self):
        assert hits(self.FACTORIZE, "perf-raw-factorization") == [
            ("perf-raw-factorization", 7)
        ]
        assert hits(self.INV_CHOL, "perf-raw-factorization") == [
            ("perf-raw-factorization", 7)
        ]

    def test_solver_module_exempt(self):
        from repro.analysis.rules.robustness import RAW_FACTORIZATION_ALLOWED

        for module in RAW_FACTORIZATION_ALLOWED:
            path = "src/" + module.replace(".", "/") + ".py"
            assert hits(self.FACTORIZE, "perf-raw-factorization", path=path) == []
            assert hits(self.INV_CHOL, "perf-raw-factorization", path=path) == []

    def test_cached_call_sites_clean(self):
        src = (
            '"""m."""\nfrom repro.quant.solver import quantize_with_hessian\n'
            "\n\ndef f(w, h, cache):\n"
            '    """D."""\n'
            "    return quantize_with_hessian(w, h, bits=4, cache=cache)\n"
        )
        assert hits(src, "perf-raw-factorization") == []


class TestPerfLogSoftmaxRule:
    FUNCTIONAL = (
        '"""m."""\nfrom repro.nn import functional as F\n\n\n'
        'def f(logits, targets):\n    """D."""\n'
        "    return -F.log_softmax(logits, axis=-1)[..., targets]\n"
    )
    OPS = (
        '"""m."""\nfrom repro.autograd import ops\n\n\n'
        'def f(logits):\n    """D."""\n'
        "    return ops.log_softmax(logits, axis=-1)\n"
    )

    def test_full_logsoftmax_flagged(self):
        assert hits(self.FUNCTIONAL, "perf-full-logsoftmax") == [
            ("perf-full-logsoftmax", 7)
        ]
        assert hits(self.OPS, "perf-full-logsoftmax") == [
            ("perf-full-logsoftmax", 7)
        ]

    def test_primitive_modules_exempt(self):
        from repro.analysis.rules.perf import FULL_LOGSOFTMAX_ALLOWED

        for module in FULL_LOGSOFTMAX_ALLOWED:
            path = "src/" + module.replace(".", "/") + ".py"
            assert hits(self.FUNCTIONAL, "perf-full-logsoftmax", path=path) == []
            assert hits(self.OPS, "perf-full-logsoftmax", path=path) == []

    def test_fused_call_sites_clean(self):
        src = (
            '"""m."""\nfrom repro.nn import functional as F\n\n\n'
            'def f(logits, targets):\n    """D."""\n'
            "    return F.gather_nll(logits, targets)\n"
        )
        assert hits(src, "perf-full-logsoftmax") == []


class TestPerfCalibrationReforward:
    CAPTURE_IN_LOOP = (
        '"""m."""\nfrom repro.core.hessian import capture_attention\n\n\n'
        'def f(model, batches, i):\n    """D."""\n'
        "    out = []\n"
        "    for batch in batches:\n"
        "        out.append(capture_attention(model, batch, i))\n"
        "    return out\n"
    )
    FORWARD_IN_BLOCK_LOOP = (
        '"""m."""\n\n\n'
        'def f(model, x):\n    """D."""\n'
        "    for _i in range(len(model.blocks)):\n"
        "        x = model.forward_array(x)\n"
        "    return x\n"
    )

    def test_capture_attention_in_any_loop_flagged(self):
        assert hits(self.CAPTURE_IN_LOOP, "perf-calibration-reforward") == [
            ("perf-calibration-reforward", 9)
        ]

    def test_model_forward_in_block_loop_flagged(self):
        assert hits(
            self.FORWARD_IN_BLOCK_LOOP, "perf-calibration-reforward"
        ) == [("perf-calibration-reforward", 7)]

    STATS_IN_BLOCK_LOOP = (
        '"""m."""\n'
        "from repro.quant.calibration_hooks import collect_input_stats\n\n\n"
        'def f(model, segments):\n    """D."""\n'
        "    stats = []\n"
        "    for i in range(len(model.blocks)):\n"
        "        stats.append(collect_input_stats(model, segments))\n"
        "    return stats\n"
    )

    def test_input_stats_in_block_loop_flagged(self):
        # collect_input_stats hides a full-model forward per batch.
        assert hits(
            self.STATS_IN_BLOCK_LOOP, "perf-calibration-reforward"
        ) == [("perf-calibration-reforward", 9)]

    STATS_PER_BLOCK_GROUP = (
        '"""m."""\n'
        "from repro.quant.calibration_hooks import collect_input_stats\n"
        "from repro.quant.gptq import group_layers_by_block\n\n\n"
        'def f(model, segments, layers):\n    """D."""\n'
        "    for group in group_layers_by_block(layers):\n"
        "        collect_input_stats(model, segments, layer_names=group)\n"
    )

    def test_input_stats_per_block_group_flagged(self):
        # The iterable names blocks without the word "blocks".
        assert hits(
            self.STATS_PER_BLOCK_GROUP, "perf-calibration-reforward"
        ) == [("perf-calibration-reforward", 9)]

    def test_input_stats_outside_block_loop_clean(self):
        src = (
            '"""m."""\n'
            "from repro.quant.calibration_hooks import collect_input_stats\n"
            "\n\n"
            'def f(model, segments, groups):\n    """D."""\n'
            "    first = collect_input_stats(model, segments)\n"
            "    for group in groups:\n"
            "        collect_input_stats(model, segments, layer_names=group)\n"
            "    return first\n"
        )
        assert hits(src, "perf-calibration-reforward") == []

    def test_stream_input_stats_clean(self):
        src = (
            '"""m."""\n\n\n'
            'def f(stream, model, layers):\n    """D."""\n'
            "    out = []\n"
            "    for i in range(len(model.blocks)):\n"
            "        out.append(stream.block_input_stats(i, layers[i]))\n"
            "    return out\n"
        )
        assert hits(src, "perf-calibration-reforward") == []

    def test_batch_loop_forward_clean(self):
        # Looping over *batches* is the normal evaluation shape; only a
        # loop over blocks re-runs the quantized prefix per block.
        src = (
            '"""m."""\n\n\n'
            'def f(model, batches):\n    """D."""\n'
            "    outs = []\n"
            "    for batch in batches:\n"
            "        outs.append(model.forward_array(batch))\n"
            "    return outs\n"
        )
        assert hits(src, "perf-calibration-reforward") == []

    def test_streamed_captures_clean(self):
        src = (
            '"""m."""\n\n\n'
            'def f(stream, model):\n    """D."""\n'
            "    out = []\n"
            "    for i in range(len(model.blocks)):\n"
            "        out.append(stream.block_captures(i))\n"
            "    return out\n"
        )
        assert hits(src, "perf-calibration-reforward") == []

    def test_reference_module_exempt(self):
        from repro.analysis.rules.perf import CALIBRATION_REFORWARD_ALLOWED

        for module in CALIBRATION_REFORWARD_ALLOWED:
            path = "src/" + module.replace(".", "/") + ".py"
            assert (
                hits(
                    self.CAPTURE_IN_LOOP,
                    "perf-calibration-reforward",
                    path=path,
                )
                == []
            )
            assert (
                hits(
                    self.FORWARD_IN_BLOCK_LOOP,
                    "perf-calibration-reforward",
                    path=path,
                )
                == []
            )
            assert (
                hits(
                    self.STATS_IN_BLOCK_LOOP,
                    "perf-calibration-reforward",
                    path=path,
                )
                == []
            )


class TestSuppression:
    def test_line_suppression_silences_only_that_rule(self):
        src = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return np.exp(x)  # lint: disable=numeric-raw-exp\n'
        assert hits(src, "numeric-raw-exp") == []

    def test_suppression_is_line_scoped(self):
        src = (
            '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n'
            "    a = np.exp(x)  # lint: disable=numeric-raw-exp\n"
            "    return np.exp(a)\n"
        )
        assert hits(src, "numeric-raw-exp") == [("numeric-raw-exp", 8)]

    def test_suppression_wrong_rule_id_does_not_silence(self):
        src = '"""m."""\nimport numpy as np\n\n\ndef f(x):\n    """D."""\n    return np.exp(x)  # lint: disable=numeric-raw-log\n'
        assert hits(src, "numeric-raw-exp") == [("numeric-raw-exp", 7)]

    def test_comma_separated_suppressions(self):
        src = (
            '"""m."""\nimport numpy as np\n\n__all__ = ["f"]\n\n\n'
            'def f(x):\n    """D."""\n'
            "    return 1.0 / (1.0 + np.exp(-x))  "
            "# lint: disable=numeric-unstable-sigmoid,numeric-raw-exp\n"
        )
        assert analyze_source(src, path="src/repro/nn/x.py") == []


class TestReporters:
    SRC = (
        '"""m."""\nimport numpy as np\n\n__all__ = ["f"]\n\n\n'
        'def f(x):\n    """D."""\n    return np.exp(x)\n'
    )

    def test_text_reporter_names_rule_file_line(self):
        diagnostics = analyze_source(self.SRC, path="src/repro/nn/x.py")
        text = render_text(diagnostics)
        assert "src/repro/nn/x.py:9" in text
        assert "numeric-raw-exp" in text
        assert "repro-lint: 1 violation" in text

    def test_text_reporter_clean(self):
        assert "no violations" in render_text([])

    def test_json_reporter_roundtrips(self):
        diagnostics = analyze_source(self.SRC, path="src/repro/nn/x.py")
        payload = json.loads(render_json(diagnostics))
        assert payload["violations"] == 1
        record = payload["diagnostics"][0]
        assert record["rule"] == "numeric-raw-exp"
        assert record["path"] == "src/repro/nn/x.py"
        assert record["line"] == 9
        assert record["col"] > 0
        assert "np.exp" in record["message"]

    def test_json_reporter_clean(self):
        assert json.loads(render_json([])) == {
            "violations": 0,
            "warnings": 0,
            "diagnostics": [],
        }
