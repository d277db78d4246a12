"""Packages map to elements in one place: `PackageLayout`.  No module in the
package but `packing.py` reads a layout's `segments`, so the rule "each
segment is a run of equal-length packages" is written once (`blocks`, `add`,
`gather` and `element_mask`)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedcspack"
PRIVATE = {"segments"}


def layout_names(tree: ast.AST) -> set[str]:
    """Names bound to a layout: arguments and variables annotated
    `PackageLayout`, and variables assigned from `package_views(...)` or
    `PackageLayout(...)`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
            target = node.arg if isinstance(node, ast.arg) else getattr(node.target, "id", None)
            if isinstance(annotation, ast.Name) and annotation.id == "PackageLayout":
                names.add(target)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Name) and func.id in ("package_views", "PackageLayout"):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def layout_reads(tree: ast.AST) -> list[int]:
    """Lines that read `segments` of a layout."""
    names = layout_names(tree)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in PRIVATE
        and isinstance(node.value, ast.Name)
        and node.value.id in names
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "packing.py"),
    ids=lambda path: path.name,
)
def test_no_package_map_outside_the_layout(path):
    lines = layout_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: reads a layout's segments at lines {lines}"


@pytest.mark.parametrize(
    "source, reads",
    [
        ("def f(layout: PackageLayout, v):\n    rows, tail = layout.segments", 1),
        ("layout = package_views(10, 4)\nn = layout.num_packages - len(layout.segments)", 1),
        ("def f(layout: PackageLayout):\n    return layout.segments[0][2] * layout.pack", 1),
        ('parts = "a.b".split(".")\nchunks = np.split(x, 3)', 0),
        ("segments = route.segments\nfor s in segments: pass", 0),
    ],
)
def test_check_sees_a_layout_read(source, reads):
    assert len(layout_reads(ast.parse(source))) == reads
