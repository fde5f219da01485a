"""Unit tests for the analyzer's shared AST/scope helper utilities."""

import ast

from repro.analysis.astutil import iter_scopes
from repro.analysis.core import (
    UNUSED_SUPPRESSION_RULE,
    ModuleContext,
    all_rule_ids,
)
from repro.analysis.rules import autograd, hygiene, numeric

SOURCE = (
    '"""Module under inspection."""\n'
    "import numpy as np\n\n"
    "def outer(x):\n"
    '    """Outer."""\n'
    "    shifted = x - x.max(axis=-1, keepdims=True)\n"
    "    return np.exp(shifted)\n\n"
    "def _private(x):\n"
    "    return x\n\n"
    "class Box:\n"
    '    """Box."""\n'
)


def context() -> ModuleContext:
    return ModuleContext("src/repro/nn/sample.py", SOURCE)


class TestScopes:
    def test_iter_scopes_yields_module_and_every_def(self):
        names = [
            getattr(scope, "name", "<module>")
            for scope in iter_scopes(context().tree)
        ]
        assert names == ["<module>", "outer", "_private", "Box"]

    def test_scope_chain_of_runs_innermost_to_module(self):
        module = context()
        call = next(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
        )
        chain = numeric.scope_chain_of(module, call)
        assert chain[0].name == "outer"
        assert isinstance(chain[-1], ast.Module)

    def test_scope_has_shift_sees_max_shift_assignment(self):
        module = context()
        call = next(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exp"
        )
        assert numeric.scope_has_shift(numeric.scope_chain_of(module, call))

    def test_exp_argument_is_bounded(self):
        bounded = ast.parse("np.exp(-np.abs(x))", mode="eval").body.args[0]
        unbounded = ast.parse("np.exp(x)", mode="eval").body.args[0]
        assert numeric.exp_argument_is_bounded(bounded)
        assert not numeric.exp_argument_is_bounded(unbounded)


class TestHygieneHelpers:
    def test_public_toplevel_defs_skips_private_names(self):
        defs = hygiene.public_toplevel_defs(context().tree)
        assert [node.name for node in defs] == ["outer", "Box"]


class TestPolicyConstants:
    def test_data_mutation_allowlist_is_path_scoped(self):
        assert all("." in entry for entry in autograd.DATA_MUTATION_ALLOWED)

    def test_narrowing_allowlist_covers_storage_layers(self):
        assert "repro.quant.packing" in autograd.DTYPE_NARROWING_ALLOWED

    def test_unused_suppression_rule_is_synthetic(self):
        assert UNUSED_SUPPRESSION_RULE == "lint-unused-suppression"
        assert UNUSED_SUPPRESSION_RULE in all_rule_ids()
