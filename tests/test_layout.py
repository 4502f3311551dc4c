"""The package holds no code that only tests reach.

Every top-level function, class and constant of ``src/dnakernel``, public
or private (dunders aside), needs a reference from the package, the scripts
or the benchmark; one that only tests reference belongs in the tests, or
nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dnakernel"
CALLER_DIRS = ("src", "scripts", "benchmarks")


def top_level_definitions(tree: ast.Module) -> set:
    """Names of the module's top-level functions, classes and constants, but
    not its dunders (``__all__``, ``__version__``)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def references(tree: ast.Module, modules: set) -> set:
    """Names a file reads: loaded names, imported names, attributes of a
    package module (``kernel.kernel_eval``), and strings equal to a name
    (the benchmark patches functions by name)."""
    owners = set(modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.asname and node.name.rsplit(".", 1)[-1] in modules:
            owners.add(node.asname)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            if getattr(node.value, "id", getattr(node.value, "attr", None)) in owners:
                refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller_outside_tests():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in top_level_definitions(ast.parse(path.read_text(), str(path))):
            defined[name] = path.name
    callers = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                callers |= references(ast.parse(path.read_text(), str(path)), modules)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in callers)
    assert not unused, f"names no code outside tests references: {unused}"


def test_a_tests_only_helper_is_caught():
    # the scan itself: a name that is only defined, documented, or an
    # attribute of something other than a package module is not referenced
    module = ast.parse("__all__ = []\n\ndef helper():\n    return 1\n\ndef _private():\n"
                       "    return 2\n\nLIMIT = 3\nBOUND = LIMIT + 1\n")
    caller = ast.parse("from pkg import BOUND\nimport pkg.mod as m\n"
                       "print('helper is documented here', 'ATGC'.helper, m.run)\n")
    assert top_level_definitions(module) == {"helper", "_private", "LIMIT", "BOUND"}
    refs = references(module, {"mod"}) | references(caller, {"mod"})
    assert {"LIMIT", "BOUND", "run"} <= refs
    assert not {"helper", "_private"} & refs
