"""Every module-level name in ``src/lamu`` is either used in ``src/``
outside its own definition or exported in ``lamu.__all__``, and every
method is read as an attribute in ``src/`` or ``bench/`` outside its own
body: a helper that only the tests use belongs in ``tests/``.  Every name
a module imports is read in that module, and a module imports its
siblings at module level and only through their public names."""

import ast
import os
from collections import Counter

import lamu

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lamu")
BENCH = os.path.join(ROOT, "bench")


def _modules(directory=SRC):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                yield name[:-3], ast.parse(handle.read())


def _definitions(tree):
    """(name, node) for each module-level def, class and constant; the
    node of a constant is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and not leaf.id.startswith("__"):
                        yield leaf.id, node


def _references(tree):
    """How often each name is read in tree, as a plain name or as an
    attribute (``unify.mgu``)."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def unused_names(modules):
    """module.name for each definition read nowhere but in its own body
    and not exported.  Names are matched by spelling, so a local or an
    attribute of the same name counts as a use."""
    everywhere = sum((_references(tree) for _, tree in modules), Counter())
    exported = set(lamu.__all__)
    return [f"{module}.{name}"
            for module, tree in modules
            for name, node in _definitions(tree)
            if name not in exported
            and everywhere[name] == _references(node)[name]]


def test_src_holds_only_used_or_public_names():
    assert unused_names(list(_modules())) == []


def test_the_check_sees_a_dead_helper():
    tree = ast.parse("def dead():\n    return dead()\n\nX = 1\nY = X\n")
    assert unused_names([("m", tree)]) == ["m.dead", "m.Y"]


def _methods(tree):
    """(Class.name, node) for each function defined in a class body,
    dunders excepted."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    yield f"{cls.name}.{node.name}", node


def _attribute_reads(tree):
    """How often each name is read as an attribute (``x.name``) in tree."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def unused_methods(modules, readers):
    """module.Class.name for each method of modules that no attribute
    read in modules or readers names outside the method's own body.
    Names are matched by spelling, so any attribute of the same name
    counts as a use."""
    everywhere = sum((_attribute_reads(tree) for _, tree in modules + readers),
                     Counter())
    return [f"{module}.{qualname}"
            for module, tree in modules
            for qualname, node in _methods(tree)
            if everywhere[node.name] == _attribute_reads(node)[node.name]]


def test_src_holds_only_read_methods():
    assert unused_methods(list(_modules()), list(_modules(BENCH))) == []


def test_the_check_sees_a_dead_method():
    tree = ast.parse(
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return self.used()\n"
        "    def used(self):\n"
        "        return True\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "    def benched(self):\n"
        "        return 1\n"
        "    def stored(self):\n"
        "        return 2\n"
        "A.stored = None\n")
    bench = ast.parse("A().benched()\n")
    assert unused_methods([("m", tree)], []) == [
        "m.A.dead", "m.A.benched", "m.A.stored"]
    assert unused_methods([("m", tree)], [("b", bench)]) == [
        "m.A.dead", "m.A.stored"]


def _imports(tree):
    """(import node, alias, name it binds) for every imported name in
    tree, at any depth, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node, alias, alias.asname or alias.name.split(".")[0]


def _exported(tree):
    """The strings listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def import_faults(modules):
    """One line per import that binds a name the module never reads
    (nor exports), or that reaches a sibling module from inside a
    function or for a ``_``-prefixed name."""
    faults = []
    for module, tree in modules:
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= _exported(tree)
        for node, alias, name in _imports(tree):
            if name not in read:
                faults.append(f"{module}: {name} is imported but not read")
            if isinstance(node, ast.ImportFrom) and node.level:
                sibling = "." * node.level + (node.module or "")
                if node not in tree.body:
                    faults.append(f"{module}: {alias.name} from {sibling} "
                                  f"is imported inside a function")
                if alias.name.startswith("_"):
                    faults.append(f"{module}: {alias.name} is private to "
                                  f"{sibling}")
    return faults


def test_src_imports_are_read_public_and_at_module_level():
    assert import_faults(list(_modules())) == []


def test_the_check_sees_bad_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from .a import b, _c\n"
        "from . import d\n"
        "__all__ = ['b']\n"
        "def f():\n"
        "    from .e import g\n"
        "    return _c, d, g\n")
    assert import_faults([("m", tree)]) == [
        "m: os is imported but not read",
        "m: _c is private to .a",
        "m: g from .e is imported inside a function",
    ]
