"""Tier-1 gate: the repo's own source tree must lint clean.

Also exercises the CLI end to end: a seeded violation in a scratch file
must produce a non-zero exit code and a diagnostic naming the rule id,
file, and line.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.analysis import analyze_paths, render_text

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"

SEEDED_BAD = (
    '"""Scratch module with a deliberate violation."""\n'
    "import numpy as np\n\n"
    '__all__ = ["score"]\n\n\n'
    "def score(x):\n"
    '    """Unbounded exponential: should trip numeric-raw-exp."""\n'
    "    return np.exp(x)\n"
)


def run_cli(*argv):
    """Run ``python -m repro.analysis`` and return the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


class TestRepoLintsClean:
    def test_no_violations_in_source_tree(self):
        diagnostics = analyze_paths([str(SRC_TREE)])
        assert diagnostics == [], "\n" + render_text(diagnostics)

    def test_cli_exits_zero_on_clean_tree(self):
        proc = run_cli(str(SRC_TREE))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no violations" in proc.stdout

    def test_whole_program_passes_are_clean_too(self):
        # --strict also fails on warnings (e.g. stale suppressions), and
        # --no-cache keeps this run independent of any on-disk state.
        proc = run_cli(
            "--whole-program", "--strict", "--no-cache", str(SRC_TREE)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no violations" in proc.stdout


class TestSeededViolation:
    def test_cli_exits_nonzero_naming_rule_file_line(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        assert "numeric-raw-exp" in proc.stdout
        assert f"{bad}:9" in proc.stdout
        assert "1 violation" in proc.stdout

    def test_json_format_reports_seeded_violation(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli("--format", "json", str(bad))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["violations"] == 1
        assert payload["diagnostics"][0]["rule"] == "numeric-raw-exp"
        assert payload["diagnostics"][0]["line"] == 9

    def test_select_excludes_other_rules(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli("--select", "api-bare-except", str(bad))
        assert proc.returncode == 0

    def test_unknown_rule_id_is_usage_error(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli("--select", "no-such-rule", str(bad))
        assert proc.returncode == 2

    def test_syntax_error_reported_not_crash(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        proc = run_cli(str(broken))
        assert proc.returncode == 1
        assert "syntax-error" in proc.stdout


SEEDED_ESCAPE = (
    '"""Scratch cache leaking a writable view."""\n'
    "import numpy as np\n\n"
    '__all__ = ["GramCache"]\n\n\n'
    "class GramCache:\n"
    '    """Memoizes grams."""\n\n'
    "    def __init__(self):\n"
    '        """Init."""\n'
    "        self._entries = {}\n\n"
    "    def gram(self, key, flat):\n"
    '        """Memoized product."""\n'
    "        value = flat.T @ flat\n"
    "        self._entries[key] = (key, value)\n"
    "        return value\n"
)

SEEDED_FORK_UNSAFE = (
    '"""Scratch module submitting a global-mutating task."""\n\n'
    '__all__ = ["launch"]\n\n'
    "PROGRESS = []\n\n\n"
    "def run_parallel_map(fn, items):\n"
    '    """Executor stand-in."""\n'
    "    return [fn(item) for item in items]\n\n\n"
    "def task(item):\n"
    '    """Mutates a module global from the worker."""\n'
    "    PROGRESS.append(item)\n"
    "    return item\n\n\n"
    "def launch(items):\n"
    '    """Fans the unsafe task out."""\n'
    "    return run_parallel_map(task, items)\n"
)


class TestSeededWholeProgramViolations:
    def _seed(self, tmp_path, source):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text('"""Pkg."""\n__all__ = []\n')
        (package / "scratch.py").write_text(source)
        return package

    def test_writable_view_escape_is_caught(self, tmp_path):
        package = self._seed(tmp_path, SEEDED_ESCAPE)
        proc = run_cli("--whole-program", "--no-cache", str(package))
        assert proc.returncode == 1
        assert "wp-cache-writable-escape" in proc.stdout
        assert f"{package / 'scratch.py'}:18" in proc.stdout

    def test_global_mutating_fork_task_is_caught(self, tmp_path):
        package = self._seed(tmp_path, SEEDED_FORK_UNSAFE)
        proc = run_cli("--whole-program", "--no-cache", str(package))
        assert proc.returncode == 1
        assert "wp-fork-unsafe-effect" in proc.stdout
        assert f"{package / 'scratch.py'}:21" in proc.stdout

    def test_sarif_output_carries_the_new_rule_descriptor(self, tmp_path):
        package = self._seed(tmp_path, SEEDED_ESCAPE)
        proc = run_cli(
            "--whole-program",
            "--no-cache",
            "--format",
            "sarif",
            str(package),
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        driver = payload["runs"][0]["tool"]["driver"]
        descriptors = {rule["id"]: rule for rule in driver["rules"]}
        assert "wp-cache-writable-escape" in descriptors
        assert descriptors["wp-cache-writable-escape"]["shortDescription"][
            "text"
        ]
        results = payload["runs"][0]["results"]
        escape = [
            r for r in results if r["ruleId"] == "wp-cache-writable-escape"
        ]
        assert len(escape) == 1
        region = escape[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 18

    def test_effects_table_renders_the_inferred_lattice(self, tmp_path):
        package = self._seed(tmp_path, SEEDED_FORK_UNSAFE)
        proc = run_cli(
            "--whole-program", "--no-cache", "--effects", str(package)
        )
        assert proc.returncode == 0
        assert "repro.scratch.task: mutates-global" in proc.stdout
        assert "PROGRESS.append" in proc.stdout
        # launch only *submits* task (it never calls it), so its own
        # lattice verdict stays pure — the hazard is the submission, which
        # wp-fork-unsafe-effect reports.
        assert "repro.scratch.launch: pure" in proc.stdout


SEEDED_RANGES = (
    '"""Scratch module with a shift past its u16 container."""\n'
    "import numpy as np\n\n"
    '__all__ = ["pack_high"]\n\n\n'
    "def pack_high(codes):\n"
    '    """Shift 4-bit codes into the top of a u16 word.\n\n'
    "    Bits:\n"
    "        codes: u16[0, 15]\n"
    "        return: u16\n"
    '    """\n'
    "    word = np.uint16(0)\n"
    "    return word | (codes << np.uint16(14))\n"
)


class TestSeededRangeViolations:
    def _seed(self, tmp_path, source):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text('"""Pkg."""\n__all__ = []\n')
        (package / "scratch.py").write_text(source)
        return package

    def test_int_overflow_caught_with_pinned_anchor(self, tmp_path):
        package = self._seed(tmp_path, SEEDED_RANGES)
        proc = run_cli(
            "--whole-program",
            "--no-cache",
            "--select",
            "wp-int-*,wp-lossy-cast,wp-bits-spec-violation",
            str(package),
        )
        assert proc.returncode == 1
        assert "wp-int-overflow" in proc.stdout
        assert f"{package / 'scratch.py'}:15" in proc.stdout

    def test_sarif_carries_the_range_rule_descriptors(self, tmp_path):
        package = self._seed(tmp_path, SEEDED_RANGES)
        proc = run_cli(
            "--whole-program",
            "--no-cache",
            "--format",
            "sarif",
            str(package),
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        driver = payload["runs"][0]["tool"]["driver"]
        descriptors = {rule["id"]: rule for rule in driver["rules"]}
        assert "wp-int-overflow" in descriptors
        assert descriptors["wp-int-overflow"]["shortDescription"]["text"]
        results = payload["runs"][0]["results"]
        overflow = [r for r in results if r["ruleId"] == "wp-int-overflow"]
        assert len(overflow) == 1
        region = overflow[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 15

    def test_ranges_table_renders_declared_and_inferred(self, tmp_path):
        package = self._seed(tmp_path, SEEDED_RANGES)
        proc = run_cli(
            "--whole-program", "--no-cache", "--ranges", str(package)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro.scratch.pack_high" in proc.stdout
        assert "codes: u16 [0, 15]" in proc.stdout


class TestListSpecs:
    def test_list_specs_counts_annotated_functions(self):
        proc = run_cli("--list-specs", str(SRC_TREE / "quant"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro.quant.packing.pack_codes [bits]" in proc.stdout
        assert "repro.quant.gptq.gptq_quantize_layer [bits]" in proc.stdout
        summary = proc.stdout.strip().splitlines()[-1]
        assert "annotated functions across" in summary

    def test_list_specs_works_without_whole_program_flag(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text('"""Pkg."""\n__all__ = []\n')
        (package / "scratch.py").write_text(SEEDED_RANGES)
        proc = run_cli("--list-specs", str(package))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro.scratch.pack_high [bits]" in proc.stdout
        assert "1 annotated functions across 1 modules" in proc.stdout


SEEDED_EXCLUDED_PRAGMA = (
    '"""Scratch module with a pragma for a rule the select excludes."""\n\n'
    '__all__ = ["double"]\n\n\n'
    "def double(x):\n"
    '    """Doubles."""\n'
    "    return 2 * x  # lint: disable=numeric-raw-exp\n"
)


class TestSuppressionSelectInteraction:
    """A stale pragma is only stale when its rule actually ran: excluding
    the rule via ``--select`` (glob or literal) must not flag the pragma."""

    def test_pragma_for_glob_excluded_rule_not_flagged(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_EXCLUDED_PRAGMA)
        proc = run_cli("--select", "api-*", "--strict", str(bad))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_same_pragma_flagged_when_its_rule_runs(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_EXCLUDED_PRAGMA)
        proc = run_cli("--select", "numeric-*", "--strict", str(bad))
        assert proc.returncode == 1
        assert "lint-unused-suppression" in proc.stdout
        proc = run_cli("--strict", str(bad))
        assert proc.returncode == 1
        assert "lint-unused-suppression" in proc.stdout

    def test_unknown_rule_pragma_always_flagged(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(
            SEEDED_EXCLUDED_PRAGMA.replace("numeric-raw-exp", "no-such-rule")
        )
        proc = run_cli("--select", "api-*", "--strict", str(bad))
        assert proc.returncode == 1
        assert "unknown rule 'no-such-rule'" in proc.stdout


class TestCliValidation:
    def test_effects_requires_whole_program(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli("--effects", str(bad))
        assert proc.returncode == 2
        assert "--effects requires --whole-program" in proc.stderr

    def test_ranges_requires_whole_program(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli("--ranges", str(bad))
        assert proc.returncode == 2
        assert "--ranges requires --whole-program" in proc.stderr

    def test_jobs_requires_whole_program(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli("--jobs", "2", str(bad))
        assert proc.returncode == 2
        assert "--jobs requires --whole-program" in proc.stderr

    def test_negative_jobs_rejected(self):
        proc = run_cli(
            "--whole-program", "--jobs", "-1", "--no-cache", str(SRC_TREE)
        )
        assert proc.returncode == 2

    def test_select_glob_expands_against_registered_ids(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        # numeric-* covers the seeded numeric-raw-exp violation...
        proc = run_cli("--select", "numeric-*", str(bad))
        assert proc.returncode == 1
        assert "numeric-raw-exp" in proc.stdout
        # ...while an api-only selection filters it out.
        proc = run_cli("--select", "api-*", str(bad))
        assert proc.returncode == 0

    def test_unmatched_glob_is_usage_error(self, tmp_path):
        bad = tmp_path / "scratch.py"
        bad.write_text(SEEDED_BAD)
        proc = run_cli("--select", "no-such-*", str(bad))
        assert proc.returncode == 2
        assert "unknown rule ids" in proc.stderr


class TestListRules:
    def test_list_rules_names_every_rule(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "numeric-unstable-sigmoid",
            "autograd-backward-contract",
            "dtype-drift",
            "api-missing-all",
            "wp-fork-unsafe-effect",
            "wp-unordered-merge",
            "wp-order-dependent-reduction",
            "wp-cache-writable-escape",
            "wp-int-overflow",
            "wp-lossy-cast",
            "wp-bits-spec-violation",
        ):
            assert rule_id in proc.stdout
