"""The package holds no code that only tests reach.

Every top-level function, class and constant of ``src/dnakernel``, public
or private (dunders aside), needs a reference from the package, the scripts
or the benchmark; one that only tests reference belongs in the tests, or
nowhere. So does every method of a top-level class (dunders aside), through
an attribute of any object (``.name``) or a string equal to its name.
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


def method_definitions(tree: ast.Module) -> set:
    """Names of the methods (properties too) of the module's top-level
    classes, but not their dunders."""
    return {node.name for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def attribute_references(tree: ast.Module) -> set:
    """Attribute names a file reads on any object, and its strings."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)}


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


def caller_trees() -> list:
    """The parsed files of the package, the scripts and the benchmark, tests aside."""
    return [ast.parse(path.read_text(), str(path))
            for directory in CALLER_DIRS for path in sorted((ROOT / directory).rglob("*.py"))
            if "tests" not in path.relative_to(ROOT).parts]


def unreferenced(definitions, refs) -> list:
    """``module:name`` of each name the package's modules define by
    ``definitions`` that is not among ``refs``."""
    return sorted(f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
                  for name in definitions(ast.parse(path.read_text(), str(path)))
                  if name not in refs)


def test_every_public_name_has_a_caller_outside_tests():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    callers = set().union(*(references(tree, modules) for tree in caller_trees()))
    unused = unreferenced(top_level_definitions, callers)
    assert not unused, f"names no code outside tests references: {unused}"


def test_every_method_has_a_caller_outside_tests():
    callers = set().union(*map(attribute_references, caller_trees()))
    unused = unreferenced(method_definitions, callers)
    assert not unused, f"methods no code outside tests references: {unused}"


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
    # methods: any attribute or string reaches one, a mere definition does not
    module = ast.parse("class Set:\n    def __len__(self):\n        return 0\n\n"
                       "    @classmethod\n    def of(cls, items):\n        return cls()\n\n"
                       "    @property\n    def size(self):\n        return len(self)\n\n"
                       "    def strings(self):\n        return self.size\n")
    assert method_definitions(module) == {"of", "size", "strings"}
    refs = attribute_references(module) | attribute_references(ast.parse("getattr(x, 'strings')"))
    assert {"size", "strings"} <= refs and "of" not in refs
