"""Unit tests for the whole-program project model and module summaries."""

from repro.analysis.core import ModuleContext
from repro.analysis.project import (
    ImportRecord,
    ModuleRecord,
    ModuleSummary,
    Project,
    build_summary,
)

OPS_SOURCE = (
    '"""Toy op module."""\n'
    "from repro.autograd.tensor import Tensor\n\n"
    '__all__ = ["double"]\n\n\n'
    "def double(a):\n"
    '    """Twice ``a``."""\n'
    "    out = a.data * 2.0\n\n"
    "    def backward(grad, sink):\n"
    "        sink(a, grad * 2.0)\n\n"
    "    return Tensor.make(out, (a,), backward)\n"
)


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


class TestBuildSummary:
    def summary(self) -> ModuleSummary:
        context = ModuleContext("src/repro/autograd/toyops.py", OPS_SOURCE)
        return build_summary(context, is_consumer=False)

    def test_module_name_exports_and_definitions(self):
        summary = self.summary()
        assert summary.module == "repro.autograd.toyops"
        assert summary.exports == [["double", 4]]
        assert "double" in summary.definitions

    def test_import_records_resolve_targets(self):
        record = self.summary().imports[0]
        assert isinstance(record, ImportRecord)
        assert record.target() == "repro.autograd.tensor.Tensor"
        assert record.toplevel

    def test_summary_json_roundtrip(self):
        summary = self.summary()
        rebuilt = ModuleSummary.from_json(summary.to_json())
        assert rebuilt == summary

    def test_resolved_uses_rewrites_aliases(self):
        source = (
            '"""Caller."""\n'
            "from repro.quant import gptq as gq\n\n"
            "def run(names):\n"
            '    """Run."""\n'
            "    return gq.group_layers_by_block(names)\n"
        )
        context = ModuleContext("src/repro/experiments/caller.py", source)
        uses = build_summary(context, is_consumer=False).resolved_uses()
        assert "repro.quant.gptq" in uses
        assert "repro.quant.gptq.group_layers_by_block" in uses


class TestProject:
    FILES = {
        "repro/__init__.py": (
            '"""Package facade."""\n'
            "from repro.mathlib import scale\n\n"
            '__all__ = ["scale"]\n'
        ),
        "repro/mathlib.py": (
            '"""Math helpers."""\n\n'
            '__all__ = ["scale"]\n\n\n'
            "def scale(x, factor):\n"
            '    """Scale.\n\n'
            "    Bits:\n"
            "        x: i64[0, 255]\n"
            "        factor: i64[1, 4]\n"
            "        return: i64[0, 1020]\n"
            '    """\n'
            "    return x * factor\n"
        ),
        "repro/app.py": (
            '"""App."""\n'
            "import repro\n"
            "from repro.mathlib import scale\n\n"
            '__all__ = ["run"]\n\n\n'
            "def run(x):\n"
            '    """Run."""\n'
            "    return scale(x, 2.0)\n"
        ),
    }

    def load(self, tmp_path) -> Project:
        root = write_tree(tmp_path, self.FILES)
        return Project.load([str(root / "repro")])

    def test_load_builds_module_records(self, tmp_path):
        project = self.load(tmp_path)
        assert len(project.records) == 3
        assert all(
            isinstance(record, ModuleRecord) and record.analyzed
            for record in project.records.values()
        )
        assert project.stats == {"analyzed": 3, "cached": 0}

    def test_resolve_from_import(self, tmp_path):
        project = self.load(tmp_path)
        resolved = project.resolve_function("repro.app", "scale")
        assert resolved is not None
        module, qualname, spec = resolved
        assert (module, qualname) == ("repro.mathlib", "scale")
        assert spec.entry_map()["x"].hi == "255"

    def test_resolve_chases_package_reexport(self, tmp_path):
        # repro.scale written via the package facade still finds the spec.
        project = self.load(tmp_path)
        resolved = project.resolve_function("repro.app", "repro.scale")
        assert resolved is not None
        assert resolved[0] == "repro.mathlib"

    def test_usage_index_counts_importers(self, tmp_path):
        index = self.load(tmp_path).usage_index()
        assert "repro.app" in index["repro.mathlib.scale"]

    def test_spec_fingerprint_tracks_spec_edits(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        before = Project.load([str(root / "repro")]).spec_fingerprint()
        edited = self.FILES["repro/mathlib.py"].replace(
            "i64[0, 255]", "i64[0, 127]"
        )
        (root / "repro" / "mathlib.py").write_text(edited)
        after = Project.load([str(root / "repro")]).spec_fingerprint()
        assert before != after
