"""Documentation consistency: files referenced by the docs must exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize(
    "doc", ["README.md", "DESIGN.md", "docs/ALGORITHMS.md",
            "docs/ROBUSTNESS.md", "docs/PERFORMANCE.md", "docs/FORMATS.md",
            "docs/ANALYSIS.md", "docs/SERVING.md"]
)
def test_referenced_files_exist(doc):
    text = (ROOT / doc).read_text()
    missing = [p for p in extract_repo_paths(text) if not resolves(p)]
    assert not missing, f"{doc} references missing files: {missing}"


def test_readme_mentions_all_examples():
    readme = (ROOT / "README.md").read_text()
    for script in (ROOT / "examples").glob("*.py"):
        assert script.name in readme, f"README misses examples/{script.name}"


def test_design_lists_every_bench():
    design = (ROOT / "DESIGN.md").read_text()
    for bench in (ROOT / "benchmarks").glob("bench_*.py"):
        assert bench.name in design, f"DESIGN.md misses {bench.name}"
