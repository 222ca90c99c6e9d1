"""Every callable the benchmark's tracer wraps is bound in its module,
and the evaluation traces it reads still carry their deltas.  Every
module-level name in ``src/lamu`` is either used in ``src/``
outside its own definition or exported in ``lamu.__all__``, and every
method is read as an attribute in ``src/`` or ``bench/`` outside its own
body: a helper that only the tests use belongs in ``tests/``.  Every
defaulted parameter is passed by some call in ``src/``, ``bench/`` or
``tests/``, and left out by another: a parameter that no caller passes
is a knob to remove, and a default that no caller takes is dead.
Every name a module imports is read in that module, and a module
imports its siblings at module level and only through their public
names.  No function but a dunder only gives a job done elsewhere a
second name: its body, after its docstring, is neither a call passing
its parameters in order nor its one parameter's attribute.  The redex
search names neither the unifier nor the session's
unification memo: ``step_at`` decides unif or fail.  No function keeps
state in a module between calls: nothing
declares a ``global``, writes into a module-level name's attributes or
items, or calls a mutating method on one.  Terms, programs and the
records (types, semantic values, goals, verdicts, results) are plain
slotted classes.  The nodes and the records that were frozen
dataclasses are immutable by contract, checked by an AST scan of
``src/``, ``bench/`` and ``tests/``: nothing assigns or deletes one of
their fields outside its class's ``__init__``, nor sets one through
``setattr`` or a descriptor; verdicts and reports stay writable.  The
records that were frozen, but for five hot ones, and a problem are
``Value``s, hashed by its one ``__hash__``; in ``src/`` only the base
classes, ``Substitution`` and the hot five write out ``==`` or hash.
Nothing in ``src/`` imports ``dataclasses``, and a fresh import of the
CLI loads neither it nor ``inspect``.  Redexes are slotted tuples, and
the reprs of nodes, records and redexes are pinned, and so are the
error paths that no other test reaches."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import lamu
from helpers import Stepped, denote_oracle
from lamu.concrete import SourceFile, Token, hm_translate, parse_program
from lamu.denot import (
    Atom, InclusionReport, Model, SoundnessVerdict, Table, denote,
)
from lamu.equiv import STUCK_CONS, STUCK_VAR, StuckKind
from lamu.generator import GeneratorConfig
from lamu.parallel import ParNormalResult
from lamu.reduction import (
    BETA, EvalResult, Exploration, Redex, evaluate, step,
)
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, LamuError, Program, Record,
    Substitution, Term, Unif, Value, Var, singleton, term_key,
)
from lamu.typecheck import (
    Arrow, Base, Meta, StepReport, Typing, Verdict, default_signature,
)
from lamu.unify import OCCURS_CHECK, Failed, Goal, Problem, Solved

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lamu")
BENCH = os.path.join(ROOT, "bench")


def _bench_tracing():
    """bench/tracing.py, loaded by its path."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_is_bound():
    # the tracer replaces each (module, attribute) in every lamu module
    # that binds it; a renamed or moved function would go untraced
    traced = _bench_tracing().TRACED
    assert len(traced) == 20
    for module, attribute in traced.values():
        owner = importlib.import_module(f"lamu.{module}")
        assert callable(getattr(owner, attribute, None)), \
            f"lamu.{module}.{attribute}"


def test_evaluation_traces_carry_their_deltas():
    # the tracer reads len(ts.after) of every step of an EvalResult
    p = parse_program(r"(\x. x | S x) C ; D")
    result = evaluate(p, fuel=10)
    assert result.normal
    assert [(ts.rule, len(ts.after)) for ts in result.trace] == [
        ("alloc", 1), ("beta", 2), ("guard", 1), ("guard", 1)]
    assert all(type(ts.after) is tuple for ts in result.trace)


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


# methods that change the object they are called on
MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "sort", "reverse", "update", "setdefault", "add", "discard",
    "difference_update", "intersection_update",
    "symmetric_difference_update", "__setitem__", "__delitem__"})
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _root(node):
    """The name at the bottom of a chain of attributes and subscripts
    (``m`` in ``m.a[k].b``), else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _binds(function):
    """The names a function binds itself: its parameters and every name
    it stores, imports or defines, nested functions' own excepted."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None}
    body = function.body
    stack = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def state_faults(modules):
    """module:line and source text of each place where a function could
    keep state from one call to the next: a ``global`` statement; a
    store into, or a del of, an attribute or a subscript of a
    module-level name; a call of a mutating method on one.  A name the
    function or an enclosing one binds itself is not module-level."""
    faults = []
    for module, tree in modules:
        shared = {name for name, _ in _definitions(tree)}
        shared |= {name for node, _, name in _imports(tree)
                   if node in tree.body}

        def visit(node, local):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, FUNCTIONS):
                    visit(child, _binds(child) | (local or set()))
                    continue
                if isinstance(child, ast.Global):
                    fault = True
                elif local is None:
                    fault = False
                elif isinstance(child, (ast.Attribute, ast.Subscript)):
                    fault = (isinstance(child.ctx, (ast.Store, ast.Del))
                             and _root(child.value) in shared - local)
                elif (isinstance(child, ast.Call)
                      and isinstance(child.func, ast.Attribute)):
                    fault = (child.func.attr in MUTATORS
                             and _root(child.func.value) in shared - local)
                else:
                    fault = False
                if fault:
                    faults.append(f"{module}:{child.lineno}: "
                                  f"{ast.unparse(child)}")
                visit(child, local)

        visit(tree, None)
    return faults


def test_src_keeps_no_state_between_calls():
    # a memo lives on the per-run Session, never in a module, so no
    # result carries over from one run to the next
    assert state_faults(list(_modules())) == []


def test_the_check_sees_module_state():
    tree = ast.parse(
        "import sys\n"
        "CACHE = {}\n"
        "SEEN = []\n"
        "CACHE['boot'] = 1\n"
        "class Box:\n"
        "    size = 0\n"
        "def f(key, SEEN=None):\n"
        "    global COUNT\n"
        "    CACHE[key] = 1\n"
        "    del CACHE[key]\n"
        "    Box.size = 2\n"
        "    CACHE.setdefault(key, []).append(1)\n"
        "    sys.path.insert(0, key)\n"
        "    SEEN.append(key)\n"
        "    local = {}\n"
        "    local[key] = CACHE.get(key)\n"
        "    def inner():\n"
        "        CACHE.clear()\n"
        "        local.update(CACHE)\n"
        "    return lambda: CACHE.pop(key)\n"
        "def g(CACHE):\n"
        "    CACHE[0] = 1\n")
    assert state_faults([("m", tree)]) == [
        "m:8: global COUNT", "m:9: CACHE[key]", "m:10: CACHE[key]",
        "m:11: Box.size", "m:12: CACHE.setdefault(key, [])",
        "m:13: sys.path.insert(0, key)",
        "m:18: CACHE.clear()", "m:20: CACHE.pop(key)"]


def _signatures(tree):
    """(what the function is, the name a call uses, the parameters a
    call fills by position, the defaulted ones) for each function and
    method in tree.  A call to a method fills no self or cls, and a call
    to ``__init__`` names its class."""
    owners = {node: cls for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, default in
                      zip(args.kwonlyargs, args.kw_defaults) if default]
        cls = owners.get(node)
        if cls is None:
            yield node.name, node.name, positional, defaulted
            continue
        if "staticmethod" not in _decorators(node):
            positional = positional[1:]
        called = cls.name if node.name == "__init__" else node.name
        yield f"{cls.name}.{node.name}", called, positional, defaulted


def _decorators(node):
    return {d.id for d in node.decorator_list if isinstance(d, ast.Name)}


def _calls(tree):
    """(the name a call uses, the call) for each call in tree, by plain
    name or as an attribute; ``cls(...)`` in a classmethod names its
    class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and "classmethod" in _decorators(node)):
                    for call in ast.walk(node):
                        if (isinstance(call, ast.Call)
                                and isinstance(call.func, ast.Name)
                                and call.func.id == "cls"):
                            yield cls.name, call
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            if isinstance(call.func, ast.Name):
                yield call.func.id, call
            elif isinstance(call.func, ast.Attribute):
                yield call.func.attr, call


def _passes_all(call):
    """Whether the call has ``*args`` or ``**kwargs``, and so may pass
    every parameter."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords))


def unpassed_parameters(modules, readers):
    """module.function(parameter=) for each defaulted parameter of a
    function or method in modules that no call in modules or readers
    passes, by position or by keyword.  Calls are matched by name, and
    one with ``*args`` or ``**kwargs`` passes every parameter."""
    positions, keywords = Counter(), {}
    for _, tree in modules + readers:
        for name, call in _calls(tree):
            positions[name] = max(positions[name], float("inf")
                                  if _passes_all(call) else len(call.args))
            keywords.setdefault(name, set()).update(
                k.arg for k in call.keywords)
    return [f"{module}.{what}({parameter}=)"
            for module, tree in modules
            for what, called, positional, defaulted in _signatures(tree)
            for parameter in defaulted
            if parameter not in keywords.get(called, ())
            and not (parameter in positional
                     and positional.index(parameter) < positions[called])]


def test_src_passes_every_defaulted_parameter():
    readers = list(_modules(BENCH)) + list(_modules(os.path.join(ROOT, "tests")))
    assert unpassed_parameters(list(_modules()), readers) == []


def untaken_defaults(modules, readers):
    """module.function(parameter=) for each defaulted parameter of a
    function or method in modules that every call in modules or readers
    passes, by position or by keyword: a default that no call takes.
    Calls are matched by name, and one with ``*args`` or ``**kwargs``
    passes every parameter.  A function that no call names is left to
    unpassed_parameters."""
    calls = {}
    for _, tree in modules + readers:
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)

    def passes(call, parameter, positional):
        return (_passes_all(call)
                or any(k.arg == parameter for k in call.keywords)
                or (parameter in positional
                    and positional.index(parameter) < len(call.args)))

    return [f"{module}.{what}({parameter}=)"
            for module, tree in modules
            for what, called, positional, defaulted in _signatures(tree)
            if called in calls
            for parameter in defaulted
            if all(passes(call, parameter, positional)
                   for call in calls[called])]


def test_some_call_takes_every_default():
    readers = list(_modules(BENCH)) + list(_modules(os.path.join(ROOT, "tests")))
    assert untaken_defaults(list(_modules()), readers) == []


def test_the_check_sees_a_parameter_no_call_passes():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return f(0, 1, d=4)\n"
        "def g(x=0, y=1):\n"
        "    return x\n"
        "g(*())\n"
        "def h(x=0):\n"
        "    return h(**{})\n"
        "class S:\n"
        "    def __init__(self, avoid=(), first=1, last=2):\n"
        "        self.m()\n"
        "    @classmethod\n"
        "    def make(cls, p=None):\n"
        "        return cls(avoid=p)\n"
        "    @staticmethod\n"
        "    def s(k=0, j=0):\n"
        "        return S.s(1)\n"
        "    def m(self, k=0, j=0):\n"
        "        return self.m(1)\n")
    bench = ast.parse("S.make(p=1)\nS(first=0)\n")
    assert unpassed_parameters([("m", tree)], []) == [
        "m.f(c=)", "m.S.__init__(first=)", "m.S.__init__(last=)",
        "m.S.make(p=)", "m.S.s(j=)", "m.S.m(j=)"]
    assert unpassed_parameters([("m", tree)], [("b", bench)]) == [
        "m.f(c=)", "m.S.__init__(last=)", "m.S.s(j=)", "m.S.m(j=)"]


def test_the_check_sees_a_default_no_call_takes():
    tree = ast.parse(
        "def f(a, b=1, *, c=2):\n"
        "    return f(0, 1, c=3)\n"
        "def g(x=0):\n"
        "    return g(x=1)\n"
        "def h(x=0):\n"
        "    return h(*())\n"
        "def uncalled(x=0):\n"
        "    return x\n"
        "class S:\n"
        "    def __init__(self, avoid=(), first=1):\n"
        "        self.m(1)\n"
        "    def m(self, k=0):\n"
        "        return k\n"
        "S((), 2)\n")
    bench = ast.parse("f(0)\nS(avoid=())\n")
    assert untaken_defaults([("m", tree)], []) == [
        "m.f(b=)", "m.f(c=)", "m.g(x=)", "m.h(x=)",
        "m.S.__init__(avoid=)", "m.S.__init__(first=)", "m.S.m(k=)"]
    assert untaken_defaults([("m", tree)], [("b", bench)]) == [
        "m.g(x=)", "m.h(x=)", "m.S.__init__(avoid=)", "m.S.m(k=)"]


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


def _functions(node, prefix=""):
    """(qualified name, node) for each function defined in node's
    subtree, methods and nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def aliases(modules):
    """module.name for each function but a dunder that only gives a job
    done elsewhere a second name: its body, after its docstring, is
    ``return g(<its parameters, in order>)`` or ``return <its one
    parameter>.<attribute>``."""
    found = []
    for module, tree in modules:
        for name, node in _functions(tree):
            body = node.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            if (node.name.startswith("__") or len(body) != 1
                    or not isinstance(body[0], ast.Return)):
                continue
            value = body[0].value
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            if isinstance(value, ast.Call):
                alias = not value.keywords and params == [
                    getattr(a, "id", None) for a in value.args]
            else:
                alias = (isinstance(value, ast.Attribute)
                         and isinstance(value.value, ast.Name)
                         and [value.value.id] == params)
            if alias:
                found.append(f"{module}.{name}")
    return found


def test_src_gives_no_job_a_second_name():
    assert aliases(list(_modules())) == []


def test_the_check_sees_a_second_name():
    tree = ast.parse(
        "def call(a, b):\n"
        "    \"Docstring.\"\n"
        "    return g(a, b)\n"
        "def read(t):\n"
        "    return t.value\n"
        "class S:\n"
        "    @staticmethod\n"
        "    def make(p):\n"
        "        return check(p)\n"
        "    def __repr__(self):\n"
        "        return show(self)\n"
        "    def inner(self):\n"
        "        def nested(x):\n"
        "            return x.y\n"
        "        return nested\n"
        "def swapped(a, b):\n"
        "    return g(b, a)\n"
        "def keyword(a):\n"
        "    return g(a, k=1)\n"
        "def two(a, b):\n"
        "    return a.value\n"
        "def deeper(t):\n"
        "    return t.fn.value\n"
        "def more(t):\n"
        "    x = t.value\n"
        "    return t.value\n"
        "def starred(*xs):\n"
        "    return g(*xs)\n")
    assert aliases([("m", tree)]) == [
        "m.call", "m.read", "m.S.make", "m.S.inner.nested"]


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


SEARCH = {"_collect", "_last_redex", "find_redex", "enumerate_redexes"}
UNIFYING = {"unify", "unifications"}


def search_faults(tree):
    """function: name for each time a redex search function names the
    unifier or the session's unification memo, in its parameters or its
    body: the search only finds redexes, and step_at decides by
    unification whether unif or fail contracts a ``=:=``."""
    faults = []
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef) and function.name in SEARCH:
            for node in ast.walk(function):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, (ast.arg, ast.keyword)):
                    name = node.arg
                else:
                    continue
                if name in UNIFYING:
                    faults.append(f"{function.name}: {name}")
    return faults


def test_the_redex_search_does_not_unify():
    assert search_faults(dict(_modules())["reduction"]) == []


def test_the_check_sees_a_search_that_unifies():
    tree = ast.parse(
        "def _collect(t, out):\n"
        "    out.append(unify.mgu_goal(t.left, t.right))\n"
        "def find_redex(p, unifications=None):\n"
        "    return p\n"
        "def enumerate_redexes(p, session):\n"
        "    return _collect(p, session.unifications)\n"
        "def step_at(t, session):\n"
        "    return unify.mgu_goal(t, session.unifications)\n")
    assert search_faults(tree) == [
        "_collect: unify", "find_redex: unifications",
        "enumerate_redexes: unifications",
    ]


def dataclass_imports(modules):
    """module:line of each import of dataclasses, at any depth."""
    return [f"{module}:{node.lineno}" for module, tree in modules
            for node, alias, _ in _imports(tree)
            if (node.module if isinstance(node, ast.ImportFrom)
                else alias.name) == "dataclasses"]


def test_src_generates_no_code_on_import():
    # records are plain classes: nothing in src/ imports dataclasses, and
    # a fresh import of the CLI loads neither it nor inspect, which it
    # imports; site is off so that nothing else preloads them
    assert dataclass_imports(list(_modules())) == []
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lamu.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code,
                          os.path.join(ROOT, "src")],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_the_check_sees_a_dataclass_import():
    tree = ast.parse("import dataclasses\n"
                     "from dataclasses import field\n"
                     "def f():\n"
                     "    from dataclasses import dataclass\n"
                     "    return dataclass, field, dataclasses\n")
    assert dataclass_imports([("m", tree)]) == ["m:1", "m:2", "m:4"]


def test_readme_library_example_prints_its_comments(capsys):
    # README's python block runs as written, and each print prints the
    # text of the comment that ends its line
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    expected = [line.split("# ", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected


# Every record class, and the ones that were frozen dataclasses
RECORDS = [Token, SourceFile, Atom, Table, InclusionReport, SoundnessVerdict,
           StuckKind, GeneratorConfig, Solved, ParNormalResult, EvalResult,
           Exploration, Base, Arrow, Meta, Typing, StepReport, Verdict, Goal,
           Stepped, Failed]
FROZEN_RECORDS = [Atom, Table, StuckKind, Solved, Base, Arrow, Meta, Goal,
                  Stepped, Failed]
# Every node class with its fields, and every immutable class: the nodes,
# the records that were frozen dataclasses, and a unification problem.
# Their field names are the names the immutability guard watches.
NODES = {cls.__name__: cls.__slots__ for cls in
         (Var, Cons, Abs, AbsLoc, App, Fresh, Guard, Unif, Program)}
FROZEN = {**NODES, **{cls.__name__: cls.__slots__
                      for cls in (Problem, *FROZEN_RECORDS)}}
WATCHED = {f for fields in FROZEN.values() for f in fields}
# every class whose constructor writes its fields: the immutable ones and
# the records that a harness or the CLI fills in later
CONSTRUCTORS = {**FROZEN, **{cls.__name__: cls.__slots__
                             for cls in RECORDS}}
# objects (by module and source text) known to be of no immutable class:
# the tracer rebinds module attributes, and a write to a Redex tuple must
# raise
NOT_FROZEN = {("tracing", "mod"), ("test_api", "redex")}


def _constructor_stores(tree, classes):
    """The attribute nodes of ``self.<field> = ...`` in the ``__init__``
    of a class in classes, for each field of that class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name in classes:
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    for store in ast.walk(node):
                        if (isinstance(store, ast.Attribute)
                                and isinstance(store.value, ast.Name)
                                and store.value.id == "self"
                                and store.attr in classes[cls.name]):
                            yield store


# the fields that a node constructor in src/ writes
CONSTRUCTED = {store.attr for _, tree in _modules()
               for store in _constructor_stores(tree, NODES)}


def mutation_faults(modules):
    """module:line and source text of each write to a field of an
    immutable node or record outside its constructor, on anything not in
    NOT_FROZEN: a store or a del of an attribute named like a watched
    field, other than ``self.<field>`` in the ``__init__`` of a class in
    CONSTRUCTORS; a ``setattr`` or ``delattr`` of a watched field by its
    name, or of a computed name; any ``__setattr__``, ``__delattr__``,
    ``__set__`` or ``__delete__`` call."""
    faults = []
    for module, tree in modules:
        allowed = set(map(id, _constructor_stores(tree, CONSTRUCTORS)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                fault = (isinstance(node.ctx, (ast.Store, ast.Del))
                         and node.attr in WATCHED
                         and id(node) not in allowed
                         and (module, ast.unparse(node.value))
                         not in NOT_FROZEN)
            elif isinstance(node, ast.Call):
                fault = _mutating_call(module, node)
            else:
                fault = False
            if fault:
                faults.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    return faults


def _mutating_call(module, call):
    func, args = call.func, call.args
    if isinstance(func, ast.Attribute):
        return func.attr in ("__setattr__", "__delattr__", "__set__",
                             "__delete__")
    if not (isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
            and len(args) > 1):
        return False
    if (module, ast.unparse(args[0])) in NOT_FROZEN:
        return False
    return not isinstance(args[1], ast.Constant) or args[1].value in WATCHED


X, C = Var("x"), Cons("C")
ID = AbsLoc(1, "x", singleton(X))
# one node of every kind with its repr; App's value flag is not shown
GOLDEN = [
    (X, "Var(name='x')"),
    (C, "Cons(name='C')"),
    (Abs("x", singleton(X)),
     "Abs(var='x', body=Program(threads=(Var(name='x'),)), ann=None)"),
    (ID, "AbsLoc(loc=1, var='x', body=Program(threads=(Var(name='x'),)), "
         "ann=None)"),
    (App(C, X), "App(fn=Cons(name='C'), arg=Var(name='x'))"),
    (Fresh("x", X), "Fresh(var='x', body=Var(name='x'), ann=None)"),
    (Guard(C, X), "Guard(left=Cons(name='C'), right=Var(name='x'))"),
    (Unif(X, C), "Unif(left=Var(name='x'), right=Cons(name='C'))"),
    (Program((X, C)), "Program(threads=(Var(name='x'), Cons(name='C')))"),
    # a program stores any iterable of threads as a tuple
    (Program([X, C]), "Program(threads=(Var(name='x'), Cons(name='C')))"),
    (Program(t for t in (X, C)),
     "Program(threads=(Var(name='x'), Cons(name='C')))"),
]


def test_every_term_kind_is_covered():
    kinds = {type(node) for node, _ in GOLDEN}
    assert {cls for cls in vars(lamu.syntax).values()
            if isinstance(cls, type) and issubclass(cls, Term)
            and cls is not Term} <= kinds


@pytest.mark.parametrize("node, text", GOLDEN)
def test_terms_are_slotted_frozen_and_print_as_pinned(node, text):
    # immutable by contract: each field is written by a node
    # constructor, the one place where the immutability guard allows a
    # write
    assert repr(node) == text
    assert not hasattr(node, "__dict__")
    assert set(type(node).__slots__) <= CONSTRUCTED


I, ATOM = Base("i"), Atom("i", ("atom", 0))
GOAL = Goal(X, C)
# one record of every kind with its repr, recorded from the dataclasses
# the records were; a field left out prints its default.  The order is
# RECORDS's, and an entry keeps its index, which names its case
GOLDEN_RECORDS = [
    (Token("lower", "x", 1, 1),
     "Token(kind='lower', text='x', line=1, col=1)"),
    (SourceFile(), "SourceFile(signature={}, base_sizes={}, definitions={}, "
                   "program=Program(threads=()))"),
    (Atom("s1", ("cons", "S", (ATOM,))), "S(i#0)"),
    (Table(((ATOM, frozenset((ATOM,))),)), "Table[i#0->{i#0}]"),
    (InclusionReport(BETA, True, True),
     "InclusionReport(rule='beta', ok=True, equal=True, detail='')"),
    (SoundnessVerdict(True, []),
     "SoundnessVerdict(ok=True, steps=[], final_denotation=None)"),
    (StuckKind(STUCK_CONS, (StuckKind(STUCK_VAR),)),
     "StuckKind(kind='stuck-cons', sub=(StuckKind(kind='stuck-var', "
     "sub=()),))"),
    (GeneratorConfig(),
     "GeneratorConfig(seed=0, max_depth=4, variables=('x', 'y', 'z'), "
     "signature={'C': i, 'D': i, 'S': i -> i, 'P': i -> i -> i}, "
     "allow_absloc=True, well_typed=False)"),
    (Solved(Substitution({"x": C})),
     "Solved(substitution=Substitution({x -> Cons(name='C')}))"),
    (ParNormalResult(singleton(C), 0, True),
     "ParNormalResult(program=Program(threads=(Cons(name='C'),)), steps=0, "
     "normal=True)"),
    (EvalResult(singleton(C), [], True),
     "EvalResult(program=Program(threads=(Cons(name='C'),)), trace=[], "
     "normal=True)"),
    (Exploration(set(), 1, True),
     "Exploration(normal_forms=set(), states=1, complete=True)"),
    (I, "i"),
    (Arrow(Arrow(I, I), Meta(3)), "(i -> i) -> ?3"),
    (Meta(3), "?3"),
    (Typing(I, C, {"x": I}),
     "Typing(type=i, node=Cons(name='C'), gamma={'x': i})"),
    (StepReport(BETA, True), "StepReport(rule='beta', ok=True, error=None)"),
    (Verdict(True), "Verdict(ok=True, steps=[])"),
    (GOAL, "Goal(lhs=Var(name='x'), rhs=Cons(name='C'))"),
    (Stepped(Problem([GOAL]), "u-orient"),
     "Stepped(problem=Problem([Goal(lhs=Var(name='x'), rhs=Cons(name='C'))]), "
     "rule='u-orient')"),
    (Failed(OCCURS_CHECK, GOAL),
     "Failed(reason='occurs check', goal=Goal(lhs=Var(name='x'), "
     "rhs=Cons(name='C')))"),
]


def test_every_record_kind_is_covered():
    kinds = [type(record) for record, _ in GOLDEN_RECORDS]
    assert kinds == RECORDS


@pytest.mark.parametrize("record, text", GOLDEN_RECORDS)
def test_records_are_slotted_and_print_as_pinned(record, text):
    assert repr(record) == text
    assert not hasattr(record, "__dict__")


def test_app_value_is_a_field_that_eq_hash_and_repr_ignore():
    value, other = App(C, ID), App(X, C)
    assert value.value and not other.value
    assert "value" not in repr(value)
    # == compares every field but value and ann; the hash is the hash of
    # the key, which reads neither
    assert [(f, f in App._compared) for f in App.__slots__] == [
        ("fn", True), ("arg", True), ("value", False)]
    assert hash(value) == hash(term_key(value))
    typed, untyped = Abs("x", singleton(X), Base("i")), Abs("x", singleton(X))
    assert typed == untyped and hash(typed) == hash(untyped)
    assert repr(typed) != repr(untyped)
    # nothing stops an assignment at run time; the guard finds it
    assert mutation_faults([("m", ast.parse("value.value = False\n"))]) == [
        "m:1: value.value"]


def test_nothing_writes_a_node_field_outside_its_constructor():
    modules = [module for directory in (SRC, BENCH, os.path.join(ROOT, "tests"))
               for module in _modules(directory)]
    assert mutation_faults(modules) == []


def test_the_guard_sees_every_kind_of_write():
    tree = ast.parse(
        "class App:\n"
        "    def __init__(self, fn, arg):\n"
        "        self.fn = fn\n"
        "        self.arg = arg\n"
        "    def swap(self):\n"
        "        self.fn = self.arg\n"
        "class Box:\n"
        "    def __init__(self, left):\n"
        "        self.left = left\n"
        "def f(t, k, mod):\n"
        "    t.arg = t.fn\n"
        "    t.value += 1\n"
        "    del t.body\n"
        "    t.name, t.other = t.threads, 1\n"
        "    setattr(t, 'threads', ())\n"
        "    setattr(t, 'other', ())\n"
        "    setattr(t, k, 1)\n"
        "    setattr(mod, k, 1)\n"
        "    delattr(t, 'ann')\n"
        "    object.__setattr__(t, 'fn', 1)\n"
        "    App.fn.__set__(t, 1)\n"
        "def g(atom, table, base, arrow, meta, goal, stepped, failed, solved,\n"
        "      kind, problem, verdict, report):\n"
        "    atom.tag = 0\n"
        "    table.entries = ()\n"
        "    base.name = 'j'\n"
        "    arrow.right = base\n"
        "    meta.id += 1\n"
        "    goal.lhs = goal.rhs\n"
        "    stepped.rule = 'u-delete'\n"
        "    failed.reason = ''\n"
        "    solved.substitution = None\n"
        "    kind.sub = ()\n"
        "    problem.goals = ()\n"
        "    verdict.ok = False\n"
        "    report.detail = 'x'\n")
    planted = [
        "6: self.fn", "9: self.left", "11: t.arg", "12: t.value",
        "13: t.body", "14: t.name", "15: setattr(t, 'threads', ())",
        "17: setattr(t, k, 1)", "19: delattr(t, 'ann')",
        "20: object.__setattr__(t, 'fn', 1)", "21: App.fn.__set__(t, 1)",
        # one write to each record that was frozen, and to a problem; the
        # fields of a verdict and a report stay writable
        "24: atom.tag", "25: table.entries", "26: base.name",
        "27: arrow.right", "28: meta.id", "29: goal.lhs", "30: stepped.rule",
        "31: failed.reason", "32: solved.substitution", "33: kind.sub",
        "34: problem.goals"]
    # the tracer's setattr on a module is known not to touch a node
    assert sorted(mutation_faults([("tracing", tree)])) == sorted(
        f"tracing:{fault}" for fault in planted)
    assert sorted(mutation_faults([("m", tree)])) == sorted(
        f"m:{fault}" for fault in planted + ["18: setattr(mod, k, 1)"])


# the classes of src/ that may write out == or hash: the ones of nodes,
# of records and of values, a substitution's (its field is a dict), and
# the five hot values, which typed compares and hashes up to 6 * 10 ** 5
# times a pass, where a generic field-tuple == measured 1.7-1.8x slower
OWN_EQ_HASH = {"_Node", "Record", "Value", "Substitution", "Atom", "Table",
               "Base", "Arrow", "Meta"}
HOT_VALUES = {Atom, Table, Base, Arrow, Meta}


def eq_hash_faults(modules):
    """module:line Class.name for each ``__eq__`` or ``__hash__`` that a
    class outside OWN_EQ_HASH defines or assigns in its body."""
    faults = []
    for module, tree in modules:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name not in OWN_EQ_HASH:
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        names = [node.name]
                    elif isinstance(node, ast.Assign):
                        names = [t.id for t in node.targets
                                 if isinstance(t, ast.Name)]
                    else:
                        names = []
                    faults += [f"{module}:{node.lineno} {cls.name}.{name}"
                               for name in names
                               if name in ("__eq__", "__hash__")]
    return faults


def test_src_writes_out_eq_and_hash_only_where_a_pass_needs_them():
    assert eq_hash_faults(list(_modules())) == []


def test_the_check_sees_a_written_out_hash():
    tree = ast.parse(
        "class Goal(Value):\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def __hash__(self):\n"
        "        return 0\n"
        "class Plain(Record):\n"
        "    __hash__ = None\n"
        "    def _fields(self):\n"
        "        return ()\n"
        "class Atom:\n"
        "    def __hash__(self):\n"
        "        return 1\n")
    assert eq_hash_faults([("m", tree)]) == [
        "m:2 Goal.__eq__", "m:4 Goal.__hash__", "m:7 Plain.__hash__"]


def test_the_values_are_the_records_that_were_frozen():
    # every Value subclass hashes its field tuple through Value's one
    # __hash__; the records that were frozen dataclasses are values but
    # for the five hot ones, and a unification problem is one too
    values, stack = set(), [Value]
    while stack:
        for sub in stack.pop().__subclasses__():
            values.add(sub)
            stack.append(sub)
    assert values == set(FROZEN_RECORDS) - HOT_VALUES | {Problem}
    assert all(cls.__hash__ is Value.__hash__ and cls.__eq__ is Record.__eq__
               for cls in values)
    assert not any(issubclass(cls, Record) for cls in HOT_VALUES)
    goals = [Goal(X, C), Goal(C, X)]
    assert Problem(goals) == Problem(list(goals))
    assert hash(Problem(goals)) == hash(Problem(list(goals)))


def test_redex_is_a_slotted_tuple():
    redex = Redex(0, None, App(ID, C), BETA)
    assert isinstance(redex, tuple) and not hasattr(redex, "__dict__")
    assert repr(redex) == (
        "Redex(thread=0, path=None, focus=App(fn=AbsLoc(loc=1, var='x', "
        "body=Program(threads=(Var(name='x'),)), ann=None), "
        "arg=Cons(name='C')), rule='beta')")
    with pytest.raises(AttributeError):
        redex.rule = "alloc"


# the error paths that no other test reaches: each call, and the class
# and text of what it raises, or what it returns

def _model():
    return Model({"i": 1}, default_signature({"C": Base("i")}))


# each denoted under no environment, by denote and by denote_oracle
DENOTE_ERRORS = [
    ("denote-an-undeclared-constructor", Cons("Q"),
     "DenotError: constructor Q has no declared type"),
    ("denote-an-unbound-variable", Var("x"),
     "DenotError: variable x missing from environment"),
    ("denote-an-unannotated-abs", Abs("x", singleton(Var("x"))),
     "DenotError: abstraction lacks a binder type annotation"),
    ("denote-an-unannotated-fresh", Fresh("x", Var("x")),
     "DenotError: fresh binder lacks a type annotation"),
    ("denote-an-application-of-a-non-function", App(Cons("C"), Cons("C")),
     "DenotError: application of a non-function denotation"),
    ("denote-a-non-term", Base("i"), "DenotError: cannot denote i"),
]


@pytest.mark.parametrize("call, outcome", [
    pytest.param(lambda: Table(((Atom("i", ("atom", 0)), frozenset()),))(
        Atom("i", ("atom", 1))),
        "DenotError: argument i#1 outside table domain",
        id="table-argument-outside-its-domain"),
    pytest.param(lambda: Model({"i": -1}, default_signature()),
                 "DenotError: negative size for base type i",
                 id="model-negative-size"),
    pytest.param(lambda: Model({}, default_signature(
        {"F": Arrow(Base("i"), Meta(0))})),
        "DenotError: constructor result type ?0 is not a base type",
        id="model-result-not-a-base"),
    pytest.param(lambda: _model().enum_type(Meta(0)),
                 "DenotError: cannot enumerate an unsolved metavariable",
                 id="enum-type-of-a-meta"),
    pytest.param(lambda: _model().enum_type(Base("q")),
                 "DenotError: base type q has no interpretation",
                 id="enum-type-of-an-undeclared-base"),
    *(pytest.param(lambda x=x: denote(x, {}, _model()), outcome, id=name)
      for name, x, outcome in DENOTE_ERRORS),
    pytest.param(lambda: hm_translate(Abs("x", Program((Var("x"), Var("x"))))),
                 "LamuError: hm_translate input must be a pure lambda term",
                 id="hm-translate-a-two-thread-body"),
    pytest.param(lambda: step(parse_program("C")), None,
                 id="step-a-normal-program"),
])
def test_unreached_error_paths_say_what_is_pinned(call, outcome):
    try:
        result = call()
    except LamuError as exc:
        result = f"{type(exc).__name__}: {exc}"
    assert result == outcome


@pytest.mark.parametrize("x, outcome", [
    pytest.param(x, outcome, id=name) for name, x, outcome in DENOTE_ERRORS])
def test_denote_raises_as_its_oracle(x, outcome):
    for walk in (denote, denote_oracle):
        with pytest.raises(LamuError) as info:
            walk(x, {}, _model())
        assert f"{type(info.value).__name__}: {info.value}" == outcome
