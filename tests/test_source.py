"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import gdclab

PACKAGE = Path(gdclab.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so validation written as an
    # assert would silently vanish; the package raises its own errors
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_rangecoder_does_not_import_numpy():
    # the coder loops run on plain ints; numpy scalars in them cost several
    # times the arithmetic they carry
    tree = ast.parse((PACKAGE / "rangecoder.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not {m for m in imported if m.split(".")[0] == "numpy"}, imported
