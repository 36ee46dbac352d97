"""Source hygiene: every imported name in the package and the tests is used.

The scan reads each module's AST: a name bound by ``import`` or
``from ... import`` must appear somewhere else in the module as a bare
name or as the base of an attribute chain.  ``qschur/__init__.py`` is
skipped because its imports are the package's re-exports, and
``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def scanned_files():
    package = sorted((ROOT / "src" / "qschur").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    return [p for p in package if p.name != "__init__.py"] + tests


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(system.argv, d.x)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_no_unused_imports():
    files = scanned_files()
    assert any(p.parent.name == "qschur" for p in files)
    unused = [
        f"{p.relative_to(ROOT)}:{line}: {name}"
        for p in files
        for line, name in unused_imports(p.read_text())
    ]
    assert unused == []
