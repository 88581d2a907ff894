"""Repository contracts over the CI roots and a designed-to-fail fixture.

Each root's modules are imported in a subprocess of their own
(``benchmarks/`` and ``perfbench/`` both have a top-level ``conftest``),
then every import statement of the source, deferred ones included, runs
once more: ``missing-module``, ``missing-name``.  A package's ``__all__``
names only bound names (``bad-export``) and lists each public name it
from-imports from its own modules (``unexported-name``).  An AST pass
keeps ``import-cycle`` (module-level imports, so a cycle that imports
cleanly counts too), ``mutable-default``, ``stray-print`` (outside the
CLI, ``__main__``, ``conftest``, tests and scripts), ``float-count``
(a float passed to a histogram call whose numbers are cardinalities)
and, in the ``repro`` package, ``recursive-closure``: a nested function
that calls itself or a sibling nested function holds its own closure
cell, so every call of the enclosing function leaves a reference cycle
that only the cyclic collector frees (``tests/test_cycle_free.py``).

``tests/fixtures/broken_pkg`` breaks each rule once; walking a root skips
``fixtures`` directories.  ``python tests/test_contracts.py ROOT`` prints
one root's import and export findings as JSON.
"""

import ast
import contextlib
import graphlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import traceback
from functools import cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "benchmarks", "perfbench", "examples")
FIXTURE = "tests/fixtures/broken_pkg"
COUNT_OPS = {
    "make_edge_histogram", "make_value_summary", "make_extended_summary",
    "build_value_histogram", "edge_histogram_bytes", "value_histogram_bytes",
}
PRINT_EXEMPT = {"cli", "__main__", "conftest"}
MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
           ast.DictComp)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def sources(root):
    """``(path, dotted name, import base)`` of every module under ``root``;
    the name follows the file's chain of ``__init__.py`` directories."""
    found = []
    for directory, subdirs, files in os.walk(REPO / root):
        subdirs[:] = sorted(d for d in subdirs if d not in {
            "__pycache__", "fixtures"} and not d.endswith(".egg-info"))
        for filename in sorted(f for f in files if f.endswith(".py")):
            path = base = Path(directory, filename)
            parts = [] if path.stem == "__init__" else [path.stem]
            while (base.parent / "__init__.py").is_file():
                base = base.parent
                parts.insert(0, base.name)
            found.append((path, ".".join(parts), base.parent))
    return found


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def finding(rule, path, line, message):
    return (rule, str(Path(path).relative_to(REPO)), line, message)


def package_of(path, name):
    """The package a module's relative imports start from."""
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def resolve(node, package):
    """The absolute module a from-import names; None when a relative
    import reaches beyond its top-level package."""
    try:
        return importlib.util.resolve_name(
            "." * node.level + (node.module or ""), package)
    except ImportError:
        return None


def import_findings(root):
    """Import every module of ``root``, run each import statement of its
    source once more, and check the package exports.  Needs a fresh
    interpreter: see :func:`imported`."""
    modules = sources(root)
    sys.path[:1] = sorted({str(base) for *_, base in modules})
    sys.path.append(str(REPO / "src"))
    internal = {name.partition(".")[0]
                for _, name, _ in modules + sources("src")}
    found = {}

    def report(rule, path, line, message):
        found.setdefault(finding(rule, path, line, "")[:3], str(message))

    def failed(error, path, line):
        """Report ``error`` at its innermost frame under ``root``."""
        frames = [(frame.filename, frame.lineno) for frame
                  in traceback.extract_tb(error.__traceback__)
                  if frame.filename.startswith(str(REPO / root))]
        report("missing-module" if isinstance(error, ModuleNotFoundError)
               else "missing-name" if isinstance(error, ImportError)
               else "import-error", *(frames or [(path, line)])[-1],
               f"{type(error).__name__}: {error}")

    for path, name, _ in modules:
        try:
            if path.stem != "__main__":
                importlib.import_module(name)
        except Exception as error:
            failed(error, path, 1)
    for path, name, _ in modules:
        tree = parse(path)
        package = package_of(path, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                named = [] if node.level else [node.module]
            else:
                continue
            if any(n.partition(".")[0] not in internal for n in named):
                continue
            try:  # a deferred import runs here for the first time
                exec(compile(ast.Module([node], []), str(path), "exec"),
                     {"__name__": name, "__package__": package})
            except Exception as error:
                # raised by another module's code: reported at its source
                if traceback.extract_tb(error.__traceback__)[-1].filename \
                        == str(path):
                    failed(error, path, node.lineno)
        if path.name != "__init__.py" or name not in sys.modules:
            continue
        exported = getattr(sys.modules[name], "__all__", [])
        for statement in tree.body:
            if any(getattr(target, "id", None) == "__all__"
                   for target in getattr(statement, "targets", [])):
                try:
                    exec(f"from {name} import *", {})
                except AttributeError as error:
                    report("bad-export", path, statement.lineno, error)
            base = isinstance(statement, ast.ImportFrom) \
                and resolve(statement, package)
            if base and (base == name or base.startswith(name + ".")):
                for alias in statement.names:
                    bound = alias.asname or alias.name
                    if bound[0] not in "_*" and bound not in exported:
                        report("unexported-name", path, statement.lineno,
                               f"{bound!r} is re-exported but not in "
                               "__all__")
    return [[*key, message] for key, message in sorted(found.items())]


@cache
def imported(root):
    """:func:`import_findings` of ``root``, run in a subprocess."""
    result = subprocess.run([sys.executable, __file__, root], cwd=REPO,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return {tuple(entry) for entry in json.loads(result.stdout)}


def nested_functions(function):
    """The functions defined in ``function``'s own body (not in a nested
    function's or class's)."""
    found, stack = [], list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def recursive_closures(tree):
    """``(line, message)`` of each nested function that refers to itself
    or to a sibling nested function."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = nested_functions(function)
        names = {inner.name for inner in nested}
        for inner in nested:
            called = sorted({
                node.id for node in ast.walk(inner)
                if isinstance(node, ast.Name) and node.id in names
                and isinstance(node.ctx, ast.Load)
            })
            if called:
                found.append((inner.lineno, (
                    f"nested {inner.name}() in {function.name}() refers to "
                    + ", ".join(f"{name}()" for name in called)
                    + ": a reference cycle per call")))
    return found


def ast_findings(root):
    """The lint rules, and the first module-level import cycle."""
    modules = {name: path for path, name, _ in sources(root)}
    found, edges = set(), []
    for name, path in modules.items():
        tree = parse(path)
        basename = name.rpartition(".")[2]
        may_print = ("." not in name and path.name != "__init__.py"  # script
                     or name.partition(".")[0] == "tests"
                     or basename.startswith("test_")
                     or basename in PRINT_EXEMPT)
        if name.partition(".")[0] == "repro":
            for line, message in recursive_closures(tree):
                found.add(finding("recursive-closure", path, line, message))
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                for default in node.args.defaults + node.args.kw_defaults:
                    func = getattr(default, "func", None)
                    if isinstance(default, MUTABLE) or getattr(
                            func, "id", None) in {"list", "dict", "set"}:
                        found.add(finding(
                            "mutable-default", path, default.lineno,
                            "a mutable default is shared by calls"))
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "attr",
                                 getattr(node.func, "id", ""))
                if callee == "print" and isinstance(node.func, ast.Name) \
                        and not may_print:
                    found.add(finding("stray-print", path, node.lineno,
                                      "print() in library code"))
                elif callee in COUNT_OPS:
                    for arg in node.args + [k.value for k in node.keywords]:
                        if isinstance(arg, ast.Constant) \
                                and isinstance(arg.value, float):
                            found.add(finding("float-count", path, arg.lineno,
                                              f"float passed to {callee}()"))
        stack = list(tree.body)  # module level: function bodies are skipped
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = resolve(node, package_of(path, name))
                targets = [f"{base}.{alias.name}" if f"{base}.{alias.name}"
                           in modules else base for alias in node.names]
            else:
                if not isinstance(node, FUNCTIONS):
                    stack.extend(ast.iter_child_nodes(node))
                continue
            edges += [(name, target, node.lineno) for target
                      in set(targets) & set(modules) - {name}]
    graph = {name: {t for s, t, _ in edges if s == name} for name in modules}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as error:
        anchor, *others = sorted(set(error.args[1]))
        line = min(l for s, t, l in edges if s == anchor and t in others)
        found.add(finding("import-cycle", modules[anchor], line,
                          "import cycle: " + " <-> ".join([anchor, *others])))
    return found


def findings(root):
    return sorted(imported(root) | ast_findings(root))


@pytest.mark.parametrize("root", ROOTS)
def test_repository_sources_are_clean(root):
    assert findings(root) == []


EXPECTED_FIXTURE_FINDINGS = {
    ("unexported-name", "__init__.py", 3),
    ("bad-export", "__init__.py", 5),
    ("import-cycle", "a.py", 3),
    ("mutable-default", "a.py", 6),
    ("stray-print", "a.py", 12),
    ("float-count", "a.py", 17),
    ("missing-name", "a.py", 21),
    ("missing-module", "c.py", 3),
}


def test_fixture_findings_pin_rule_file_and_line():
    observed = {(rule, Path(path).name, line)
                for rule, path, line, _ in findings(FIXTURE)}
    assert observed == EXPECTED_FIXTURE_FINDINGS


def test_fixture_messages_name_the_offender():
    by_rule = {rule: message for rule, _, _, message in findings(FIXTURE)}
    assert "broken_pkg.missing" in by_rule["missing-module"]
    assert "'gamma'" in by_rule["missing-name"]
    assert "'phantom'" in by_rule["bad-export"]
    assert "'accumulate'" in by_rule["unexported-name"]
    assert "broken_pkg.a <-> broken_pkg.b" in by_rule["import-cycle"]


def test_recursive_closures_are_found():
    source = """
def walk(root):
    def visit(node):
        for child in node.children:
            visit(child)
    def even(n):
        return n == 0 or odd(n - 1)
    def odd(n):
        return n != 0 and even(n - 1)
    def leaf(node):
        return [len(c.children) for c in node.children]
    visit(root)

def lazy(items):
    def key(item):
        return sorted(item, key=lambda part: key(part))
    class Local:
        def method(self):
            return self.method
    return key
"""
    lines = sorted(line for line, _ in recursive_closures(ast.parse(source)))
    assert lines == [3, 6, 8, 15]
    assert "visit() in walk() refers to visit()" in dict(
        recursive_closures(ast.parse(source)))[3]


def test_fixture_directory_is_skipped_under_the_tests_root():
    assert not any("broken_pkg" in str(path)
                   for path, _, _ in sources("tests"))


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):  # a module may print
        result = import_findings(sys.argv[1])
    json.dump(result, sys.stdout)
