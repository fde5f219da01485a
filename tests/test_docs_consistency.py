"""Documentation consistency: files and config options the docs name must
exist."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.aptq import APTQConfig
from repro.quant.gptq import GPTQConfig
from repro.serve import ServeConfig

ROOT = Path(__file__).resolve().parents[1]

DOCS = [
    "README.md",
    "DESIGN.md",
    "docs/ALGORITHMS.md",
    "docs/ROBUSTNESS.md",
    "docs/PERFORMANCE.md",
    "docs/FORMATS.md",
    "docs/ANALYSIS.md",
    "docs/SERVING.md",
]

CONFIGS = {cls.__name__: cls for cls in (APTQConfig, GPTQConfig, ServeConfig)}


def extract_repo_paths(markdown: str) -> set[str]:
    """Pull repo-relative file paths out of backticked doc references."""
    candidates = re.findall(r"`([\w./-]+\.(?:py|md))`", markdown)
    links = re.findall(r"\]\(([\w./-]+\.md)\)", markdown)
    paths = set(candidates) | set(links)
    return {
        p for p in paths
        if "/" in p and not p.startswith("~") and "*" not in p
    }


def resolves(path: str) -> bool:
    """Docs may reference code repo-relative or package-relative."""
    prefixes = ("", "src/", "src/repro/")
    return any((ROOT / prefix / path).exists() for prefix in prefixes)


def extract_config_options(markdown: str) -> set[tuple[str, str]]:
    """``(class, option)`` pairs named as ``Config.option`` or in a call.

    A call contributes every keyword up to its first nested parenthesis:
    ``APTQConfig(ratio_4bit=0.75, group_size=32)`` names both options.
    """
    classes = "|".join(CONFIGS)
    pairs = set(re.findall(rf"\b({classes})\.(\w+)", markdown))
    for cls, arguments in re.findall(rf"\b({classes})\(([^()]*)", markdown):
        pairs |= {
            (cls, option)
            for option in re.findall(r"(\w+)\s*=(?!=)", arguments)
        }
    return pairs


@pytest.mark.parametrize("doc", DOCS)
def test_referenced_files_exist(doc):
    text = (ROOT / doc).read_text()
    missing = [p for p in extract_repo_paths(text) if not resolves(p)]
    assert not missing, f"{doc} references missing files: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_config_options_named_exist(doc):
    text = (ROOT / doc).read_text()
    unknown = sorted(
        f"{cls}.{option}"
        for cls, option in extract_config_options(text)
        if option not in {f.name for f in dataclasses.fields(CONFIGS[cls])}
    )
    assert not unknown, f"{doc} names options that do not exist: {unknown}"


def test_readme_mentions_all_examples():
    readme = (ROOT / "README.md").read_text()
    for script in (ROOT / "examples").glob("*.py"):
        assert script.name in readme, f"README misses examples/{script.name}"


def test_design_lists_every_bench():
    design = (ROOT / "DESIGN.md").read_text()
    for bench in (ROOT / "benchmarks").glob("bench_*.py"):
        assert bench.name in design, f"DESIGN.md misses {bench.name}"
