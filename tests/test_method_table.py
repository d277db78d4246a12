"""The methods differ in one place: `config.METHODS`.  No module in the
package compares a value with a method name, or a `.method` with anything
but the table, so a new method is a row of the table, not a branch."""

import ast
from pathlib import Path

import pytest

from fedcspack.config import METHODS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedcspack"


def names_a_method(node: ast.AST) -> bool:
    """Whether a method name is a string constant in `node`, at any depth
    (a tuple of names on the right of `in` too)."""
    return any(isinstance(n, ast.Constant) and n.value in METHODS for n in ast.walk(node))


def table_lookup(node: ast.Compare) -> bool:
    """`x in METHODS` or `x not in METHODS`."""
    return all(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) and all(
        isinstance(c, ast.Name) and c.id == "METHODS" for c in node.comparators
    )


def method_branches(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            reads_method = any(
                isinstance(o, ast.Attribute) and o.attr == "method" for o in operands
            )
            if any(map(names_a_method, operands)) or (reads_method and not table_lookup(node)):
                lines.append(node.lineno)
        elif isinstance(node, ast.MatchValue) and names_a_method(node):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_method_branch_outside_the_table(path):
    lines = method_branches(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: method compared outside config.METHODS at lines {lines}"


@pytest.mark.parametrize(
    "source",
    [
        'if config.method == "fedprox": pass',
        'x = 1 if method in ("fedavg", "fedprox") else 0',
        "if config.method != FEDPROX: pass",
        'match config.method:\n    case "magnitude_topk": pass',
    ],
)
def test_check_sees_a_method_branch(source):
    assert len(method_branches(ast.parse(source))) == 1
