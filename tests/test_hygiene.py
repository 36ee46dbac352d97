"""Source hygiene: every imported name in the package and the tests is used,
and the package's memoized functions are exactly the ones named here.

The import scan reads each module's AST: a name bound by ``import`` or
``from ... import`` must appear somewhere else in the module as a bare
name or as the base of an attribute chain.  ``qschur/__init__.py`` is
skipped because its imports are the package's re-exports, and
``from __future__`` imports are directives, not names.

The cache scan lists every function decorated with ``functools.cache`` or
``functools.lru_cache`` (bare, attribute or called form), so a new
session-long cache has to be added to ``CACHES`` by name.  A memo also
has to be private: it answers for any key equal to one it holds, so
``True`` finds the entry of ``1`` and a list cannot be hashed at all.  A
public function checks its arguments and then reads its ``_name`` memo.
``PUBLIC_MEMOS`` names the one exception, ``enumerate_standard``, whose
only argument is a ``SkewShape`` that validates itself when built.

The four caches stay because a ``verify`` pass rereads them.  A degree-5
``verify all`` pass in a fresh process took 0.76 s at the median of 7
interleaved runs, and with one memo unwrapped in every module that binds
it: 0.91 s without ``_chain_store`` (the chain tables down to each inner
shape, behind every skew and quasi-Schur function), 0.87 s without
``enumerate_standard`` and 0.88 s without ``_skew_shape``.
``_rect_census`` saves little at degree 5 (0.78 s) but much at degree 7,
where three interleaved passes took 12.7-14.1 s with it and 15.2-18.0 s
without.  The runs are noisy, 2 cores shared.  ``_chain_store`` serves
the cold requests too: 400 cold ``skew --basis S`` requests of degree 8
(the benchmark's inputs at seed 17, skew function and peel into S, caches
cleared before each) took 236-276 us each with it and 275-309 us without,
since unwrapped each quasi-Schur row of the peel fills its own store.
The memos that only retired routes read (set compositions by size and by
shape, compositions by size, semistandard fillings by shape) are gone:
lifting M_(8) built and kept all 545,835 set compositions of 8 to return
one term.  So is the memo of skew functions, each now tallied afresh from
its stored table.  So is the memo of Schur functions in the m basis:
Sym changes basis in QSym, through the peel from L to S and the
refinements on descent masks, and without the memo a sequential degree-7
``verify all`` took 15.4 s in each of two runs, against 15.0 and 17.1 s
with it in interleaved runs.

The accumulation scan lists every function that adds into a dict by hand,
reading ``d.get(k, 0) + ...`` or ``d.get(k, 0) - ...``.  Sparse sums go through
``qsym._accumulate`` and ``qsym.linear``; the other names in
``ACCUMULATORS`` are the chain-table step, the sum of a chain table by
descent mask and the peel, hot loops kept as they are.

The private-helper scan fails on a module-level, undecorated ``_name``
function in the package that nothing else in the package references: a
bare name, an attribute or an imported name anywhere but in that
function's own body.  Decorated functions, such as ``verify``'s
``_check_*`` functions registered through ``_register``, count as used.

The mutant scan keeps ``scripts/mutants.py`` in step with the package:
each mutant's target text occurs exactly once in the module it changes,
so a refactor that moves a kernel has to update the mutant with it.

The cap scan keeps ``verify``'s degree caps where the checks are
registered: no function in ``verify.py`` but ``run_check`` may call
``min(...)`` on the degree, the argument named ``d`` (in the checks and
their helpers) or ``max_degree`` (in the runner).
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CACHES = {
    "applications._rect_census",
    "qsym._chain_store",
    "tableaux._skew_shape",
    "tableaux.enumerate_standard",
}

ACCUMULATORS = {
    "compositions._extend_chains",
    "compositions._mask_sums",
    "qsym._accumulate",
    "qsym._peel",
}


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


def cached_functions(source):
    def name_of(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute):
            return decorator.attr
        return getattr(decorator, "id", None)

    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(name_of(d) in ("cache", "lru_cache") for d in node.decorator_list)
    )


def test_scan_finds_every_cache_form():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@cache\ndef a(): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "@lru_cache(maxsize=None)\ndef c(): pass\n"
        "@functools.lru_cache\ndef d(): pass\n"
        "class K:\n    @staticmethod\n    @cache\n    def e(): pass\n"
        "@property\ndef f(): pass\n"
    )
    assert cached_functions(source) == ["a", "b", "c", "d", "e"]


def test_caches_are_the_named_ones():
    found = {
        f"{p.stem}.{name}"
        for p in (ROOT / "src" / "qschur").glob("*.py")
        for name in cached_functions(p.read_text())
    }
    assert found == CACHES


PUBLIC_MEMOS = {"tableaux.enumerate_standard"}


def public_memos(source):
    """Memoized functions of ``source`` whose names do not start with ``_``."""
    return [name for name in cached_functions(source) if not name.startswith("_")]


def test_scan_finds_every_public_memo():
    source = (
        "from functools import cache\n"
        "@cache\ndef a(n): pass\n"
        "@cache\ndef _b(n): pass\n"
        "def c(n): return _b(n)\n"
    )
    assert public_memos(source) == ["a"]


def test_memos_are_private():
    found = {
        f"{p.stem}.{name}"
        for p in (ROOT / "src" / "qschur").glob("*.py")
        for name in public_memos(p.read_text())
    }
    assert found == PUBLIC_MEMOS


def accumulating_functions(source):
    """Innermost enclosing function (``<module>`` at top level) of each
    ``x.get(k, 0) + ...`` or ``x.get(k, 0) - ...``."""

    def reads_zero_default(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == 0
        )

    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub))
            and reads_zero_default(node.left)
        ):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_scan_finds_every_hand_accumulation():
    source = (
        "def a(d, k):\n    d[k] = d.get(k, 0) + 1\n"
        "def b(d, k, c):\n    v = d.get(k, 0) - c\n"
        "def c(d, k):\n"
        "    def inner():\n        d[k] = d.get(k, 0) + 2\n"
        "    return d.get(k, 1) + d.get(k) + (d.get(k, 0) * 2)\n"
        "d = {}\nd[1] = d.get(1, 0) + 1\n"
    )
    assert accumulating_functions(source) == ["<module>", "a", "b", "inner"]


def test_hand_accumulations_are_the_named_ones():
    found = {
        f"{p.stem}.{name}"
        for p in (ROOT / "src" / "qschur").glob("*.py")
        for name in accumulating_functions(p.read_text())
    }
    assert found == ACCUMULATORS


DEGREE_NAMES = {"d", "max_degree"}


def degree_clamps(source):
    """Innermost enclosing function (``<module>`` at top level) of each
    ``min(...)`` call whose arguments mention ``d`` or ``max_degree``."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "min"
            and any(
                isinstance(sub, ast.Name) and sub.id in DEGREE_NAMES
                for arg in node.args
                for sub in ast.walk(arg)
            )
        ):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_scan_finds_every_degree_clamp():
    source = (
        "def a(d, rng):\n    bound = min(d, 6)\n"
        "def b(d, rng):\n    return range(min(d - 1, 4) + 1)\n"
        "def c(d, rng):\n    return min(4, len(rng)), min(x for x in (1, 2))\n"
        "def run_check(name, max_degree):\n    return min(max_degree, 3)\n"
        "k = min(max_degree, 2)\n"
    )
    assert degree_clamps(source) == ["<module>", "a", "b", "run_check"]


def test_only_run_check_clamps_the_degree():
    source = (ROOT / "src" / "qschur" / "verify.py").read_text()
    assert degree_clamps(source) == ["run_check"]


def private_functions(source):
    """Module-level, undecorated functions whose names start with ``_``."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.decorator_list
    ]


def referenced_names(source):
    """Bare names, attribute names and imported names of a module, leaving
    out what each module-level function says about itself in its body."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name is not None and name != owner:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in ast.parse(source).body:
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        visit(node, node.name if is_function else None)
    return found


def uncalled_private_functions(sources):
    """``module.name`` of every private function in ``sources`` (module
    name to source) that no module references."""
    used = set().union(*(referenced_names(source) for source in sources.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_functions(source)
        if name not in used
    )


def test_scan_finds_every_uncalled_private_function():
    sources = {
        "a": (
            "def _called(): pass\n"
            "def _dead(): pass\n"
            "def _only_itself(n): return _only_itself(n - 1)\n"
            "def _imported(): pass\n"
            "def _by_attribute(): pass\n"
            "@register\ndef _check_x(): pass\n"
            "class K:\n    def _method(self): pass\n"
            "def public():\n    def _nested(): pass\n    return _called()\n"
        ),
        "b": "from a import _imported\nimport a\nx = a._by_attribute\n",
    }
    assert uncalled_private_functions(sources) == ["a._dead", "a._only_itself"]


def test_every_private_function_is_called():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "qschur").glob("*.py")}
    assert any(private_functions(source) for source in sources.values())
    assert uncalled_private_functions(sources) == []


def test_every_mutant_targets_one_place():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    counts = {
        name: (ROOT / "src" / "qschur" / module).read_text().count(target)
        for name, module, target, _ in mutants.MUTANTS
    }
    assert counts == dict.fromkeys(counts, 1)
