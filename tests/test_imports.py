"""Tests, micro-benchmarks and perfbench import only what a clean CI runner
has: the standard library, fedcspack, their own module files and the
third-party packages that the workflow's install line pins.  A module that
is here only because some other package pulled it in fails on that runner."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = [ROOT / "tests", ROOT / "bench", ROOT / "perfbench"]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def pinned_packages() -> set[str]:
    """Import names of the `name==version` pins in the workflow's `pip
    install` lines (pytest-benchmark imports as pytest_benchmark)."""
    names = set()
    for line in WORKFLOW.read_text().splitlines():
        names.update(re.findall(r"([A-Za-z][\w.-]*)==\d", line))
    return {name.lower().replace("-", "_") for name in names}


def allowed_modules() -> set[str]:
    local = {path.stem for folder in SCANNED for path in folder.glob("*.py")}
    return set(sys.stdlib_module_names) | {"fedcspack"} | local | pinned_packages()


def imported(tree: ast.AST):
    """(line, top-level name) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize(
    "path",
    sorted(path for folder in SCANNED for path in folder.glob("*.py")),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_imports_are_installed_on_ci(path):
    allowed = allowed_modules()
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [(line, name) for line, name in imported(tree) if name not in allowed]
    assert not stray, f"{path.name}: imports not installed on CI (line, module): {stray}"
