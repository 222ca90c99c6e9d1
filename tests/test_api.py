"""Every module-level name in ``src/lamu`` is either used in ``src/``
outside its own definition or exported in ``lamu.__all__``: a helper that
only the tests use belongs in ``tests/``."""

import ast
import os
from collections import Counter

import lamu

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "lamu")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
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
