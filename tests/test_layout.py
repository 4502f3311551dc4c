"""The package holds no code that only tests reach.

Every top-level function, class and constant of ``src/dnakernel``, public
or private (dunders aside), needs a reference from the package, the scripts
or the benchmark; one that only tests reference belongs in the tests, or
nowhere. So does every method of a top-level class (dunders aside), through
an attribute of any object (``.name``) or a string equal to its name. And
every parameter default of the package needs a call outside tests that sets
that parameter; a default only tests change is a branch only tests take.
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


def defaulted_parameters(tree: ast.Module) -> set:
    """(callee, parameter, position) of each parameter with a default of the
    module's functions and methods. The callee is the name a call uses (the
    class, for ``__init__``); position is the parameter's index among those
    a call passes by position (``self`` and ``cls`` aside), or None for a
    keyword-only one."""
    owners = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body if getattr(node, "name", None) == "__init__"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, callee = node.args, owners.get(id(node), node.name)
            positional = [p.arg for p in args.posonlyargs + args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            found |= {(callee, name, at) for at, name in enumerate(positional) if at >= first}
            found |= {(callee, p.arg, None)
                      for p, default in zip(args.kwonlyargs, args.kw_defaults) if default}
    return found


def sets(call: ast.Call, parameter: str, position) -> bool:
    """Whether ``call`` may set the parameter: by name, through ``**``, by
    position, or through a ``*`` argument."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(modules: dict, callers: list) -> list:
    """``module:callee(parameter)`` of each defaulted parameter of the
    ``modules`` (file name: tree) that no call among the ``callers`` trees,
    matched by the callee's name, sets."""
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return sorted(f"{module}:{callee}({parameter})" for module, tree in modules.items()
                  for callee, parameter, position in defaulted_parameters(tree)
                  if not any(sets(call, parameter, position) for call in calls.get(callee, [])))


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


def test_every_parameter_default_is_set_outside_tests():
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    unset = unset_defaults(modules, caller_trees())
    assert not unset, f"parameter defaults only tests change: {unset}"


def test_a_default_only_tests_set_is_caught():
    # the scan itself: a call sets a default by name, by position (a
    # method's self aside, a class call reaching __init__), or through * or
    # **; a call that passes fewer arguments, or another name's, does not
    module = ast.parse("def load(path, stride=100, *, strict=False):\n    pass\n\n"
                       "class Run:\n    def __init__(self, seed, index=0):\n        pass\n\n"
                       "    def step(self, rate=0.1, decay=0.0):\n        pass\n\n"
                       "def spread(a=1, b=2):\n    pass\n\n"
                       "def pack(a=1, *, b=2):\n    pass\n")
    caller = ast.parse("load(p, strict=True)\nload(path=p)\nRun(1, 2)\nr.step(decay=0.5)\n"
                       "spread(*args)\npack(**kw)\nstride(3)\n")
    assert unset_defaults({"m.py": module}, [caller]) == ["m.py:load(stride)", "m.py:step(rate)"]
    assert unset_defaults({"m.py": module}, []) == sorted(
        f"m.py:{f}" for f in ("load(stride)", "load(strict)", "Run(index)", "step(rate)",
                              "step(decay)", "spread(a)", "spread(b)", "pack(a)", "pack(b)"))
