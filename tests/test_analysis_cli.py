"""End-to-end CLI behavior: flags, exit codes, report formats.

``main`` is driven in-process with the working directory pinned to
``tmp_path`` so the default consumer trees don't exist (and are skipped)
and cache files never land in the real repo.
"""

import json

import pytest

from repro.analysis.cli import (
    DEFAULT_CACHE_PATH,
    DEFAULT_CONSUMERS,
    build_parser,
    main,
)

CLEAN = {
    "repro/__init__.py": '"""Pkg."""\n__all__ = []\n',
    "repro/clean.py": (
        '"""Clean module."""\n\n'
        '__all__ = ["identity"]\n\n\n'
        "def identity(x):\n"
        '    """Identity."""\n'
        "    return x\n"
    ),
    "repro/user.py": (
        '"""Keeps the export alive."""\n'
        "from repro.clean import identity\n\n"
        '__all__ = ["go"]\n\n\n'
        "def go(x):\n"
        '    """Go."""\n'
        "    return identity(x)\n"
    ),
    "tests/test_user.py": (
        '"""Consumer."""\n'
        "from repro.user import go\n\n\n"
        "def test_go():\n"
        "    assert go(1) == 1\n"
    ),
}


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestParser:
    def test_defaults(self):
        options = build_parser().parse_args([])
        assert options.paths == ["src/repro"]
        assert options.format == "text"
        assert options.cache == DEFAULT_CACHE_PATH
        assert options.consumers == ",".join(DEFAULT_CONSUMERS)
        assert not options.whole_program and not options.strict

    def test_tests_tree_is_a_default_consumer(self):
        assert "tests" in DEFAULT_CONSUMERS


class TestExitCodes:
    def test_clean_tree_exits_zero(self, workdir, capsys):
        write_tree(workdir, CLEAN)
        assert main(["repro", "--whole-program", "--no-cache"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violations_exit_one(self, workdir, capsys):
        files = dict(CLEAN)
        files["repro/clean.py"] = files["repro/clean.py"].replace(
            "    return x\n",
            "    import numpy as np\n    return np.exp(x)\n",
        )
        write_tree(workdir, files)
        assert main(["repro", "--whole-program", "--no-cache"]) == 1
        assert "numeric-raw-exp" in capsys.readouterr().out

    def test_missing_path_exits_two(self, workdir, capsys):
        assert main(["no/such/tree"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_select_exits_two(self, workdir, capsys):
        write_tree(workdir, CLEAN)
        assert main(["repro", "--select", "not-a-rule"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_wp_rule_id_requires_whole_program_mode(self, workdir, capsys):
        write_tree(workdir, CLEAN)
        assert main(["repro", "--select", "wp-dead-export"]) == 2
        capsys.readouterr()
        assert (
            main(
                [
                    "repro",
                    "--whole-program",
                    "--no-cache",
                    "--select",
                    "wp-dead-export",
                ]
            )
            == 0
        )


class TestListRules:
    def test_lists_per_module_wp_and_synthetic_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "numeric-raw-exp" in out
        assert "wp-import-cycle" in out and "[whole-program]" in out
        assert "lint-unused-suppression" in out and "[synthetic]" in out


class TestStrictAndWarnings:
    FILES = dict(
        CLEAN,
        **{
            "repro/stale.py": (
                '"""Stale pragma."""\n'
                "from repro.clean import identity\n\n"
                '__all__ = ["wrap"]\n\n\n'
                "def wrap(x):\n"
                '    """Wrap."""\n'
                "    return identity(x)  # lint: disable=numeric-raw-exp\n"
            ),
            "tests/test_stale.py": (
                '"""Keeps wrap alive."""\n'
                "from repro.stale import wrap\n\n\n"
                "def test_wrap():\n"
                "    assert wrap(1) == 1\n"
            ),
        },
    )

    def test_stale_suppression_warns_but_passes(self, workdir, capsys):
        write_tree(workdir, self.FILES)
        assert main(["repro", "--whole-program", "--no-cache"]) == 0
        assert "lint-unused-suppression" in capsys.readouterr().out

    def test_strict_promotes_the_warning_to_failure(self, workdir, capsys):
        write_tree(workdir, self.FILES)
        assert (
            main(["repro", "--whole-program", "--no-cache", "--strict"]) == 1
        )


class TestReportFormats:
    def seeded(self, workdir):
        files = dict(CLEAN)
        files["repro/clean.py"] = files["repro/clean.py"].replace(
            "    return x\n",
            "    import numpy as np\n    return np.exp(x)\n",
        )
        return write_tree(workdir, files)

    def test_json_format_parses_with_counts(self, workdir, capsys):
        self.seeded(workdir)
        assert main(["repro", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] >= 1
        assert payload["diagnostics"][0]["rule"] == "numeric-raw-exp"

    def test_sarif_format_is_2_1_0_with_located_results(self, workdir, capsys):
        self.seeded(workdir)
        assert main(["repro", "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {r["id"] for r in driver["rules"]} == {"numeric-raw-exp"}
        (result,) = payload["runs"][0]["results"]
        assert result["ruleId"] == "numeric-raw-exp"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 9
        assert region["startColumn"] >= 1

    def test_sarif_rule_index_matches_rules_array(self, workdir, capsys):
        self.seeded(workdir)
        main(["repro", "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        driver = payload["runs"][0]["tool"]["driver"]
        for result in payload["runs"][0]["results"]:
            assert (
                driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]
            )


class TestStatsAndCache:
    def test_stats_reports_cache_hits_on_the_warm_run(self, workdir, capsys):
        write_tree(workdir, CLEAN)
        args = ["repro", "--whole-program", "--cache", "lint-cache.json"]
        assert main(args + ["--stats"]) == 0
        cold = capsys.readouterr().err
        # Three linted modules plus the consumer test file.
        assert "analyzed 4 files (0 from cache)" in cold
        assert (workdir / "lint-cache.json").exists()
        assert main(args + ["--stats"]) == 0
        warm = capsys.readouterr().err
        assert "analyzed 0 files (4 from cache)" in warm
