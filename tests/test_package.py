import ast
from pathlib import Path

import freqcache

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from freqcache import *", namespace)  # raises on a missing name
    assert set(freqcache.__all__) <= namespace.keys()


def _trees(*patterns):
    for pattern in patterns:
        for path in sorted(ROOT.glob(pattern)):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_class_field_has_a_reader():
    """Each annotated class field under ``src/freqcache`` is read as an
    attribute in the package, ``perfbench/`` or ``tools/``; tests do not
    count.

    Fields match by name alone, so a field that shares its name with a read
    field of another class, as ``StepReport.step`` did with
    ``CacheDecision.step``, still passes.
    """
    fields = {}
    for path, tree in _trees("src/freqcache/*.py"):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        fields[f"{path.stem}.{cls.name}.{stmt.target.id}"] = (
                            stmt.target.id)
    read = {node.attr
            for _, tree in _trees("src/freqcache/*.py", "perfbench/*.py",
                                  "tools/*.py")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert fields
    assert sorted(key for key, name in fields.items() if name not in read) == []


def _optional_parameters(tree):
    """Per public function, public method and ``__init__`` of a public
    class in ``tree``: ``(qualified name, callee name, offset, position,
    parameter)`` for each parameter with a default. ``position`` is the
    parameter's index among the positional ones, or None for a
    keyword-only one; ``offset`` counts the ``self`` or ``cls`` a call
    does not pass, and a class call is the callee of ``__init__``."""
    defs = [(node.name, node.name, 0, node) for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and (
                        node.name == "__init__"
                        or not node.name.startswith("_")):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    callee = cls.name if node.name == "__init__" else node.name
                    defs.append((f"{cls.name}.{node.name}", callee,
                                 0 if static else 1, node))
    for qualname, callee, offset, node in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield qualname, callee, offset, i, positional[i].arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, callee, offset, None, arg.arg


def _passes(call, offset, position, name):
    """Whether ``call`` passes the parameter, by position or by keyword; a
    ``*`` or ``**`` argument counts as passing every parameter it could."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and any(
        isinstance(arg, ast.Starred) or k == position - offset
        for k, arg in enumerate(call.args))


def unread_optional_parameters(definitions, callers):
    """The optional parameters of public functions and methods in the trees
    ``definitions`` that no call in the trees ``callers`` passes. Callees
    match by name alone, as fields do in the test above."""
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):  # f(...) or obj.f(...)
                callee = getattr(node.func, "id", getattr(node.func, "attr",
                                                          None))
                calls.setdefault(callee, []).append(node)
    return sorted(
        f"{qualname}({name})"
        for tree in definitions
        for qualname, callee, offset, position, name in _optional_parameters(
            tree)
        if not any(_passes(call, offset, position, name)
                   for call in calls.get(callee, ())))


def test_every_optional_parameter_has_a_caller():
    """Each optional parameter of a public function or method under
    ``src/freqcache`` is passed, by keyword or by position, by some call in
    the package, ``perfbench/`` or ``tools/``; tests do not count."""
    definitions = [tree for _, tree in _trees("src/freqcache/*.py")]
    callers = [tree for _, tree in _trees("src/freqcache/*.py",
                                          "perfbench/*.py", "tools/*.py")]
    assert unread_optional_parameters(definitions, [])  # the scan finds some
    assert unread_optional_parameters(definitions, callers) == []


def test_an_optional_parameter_no_call_passes_is_found():
    definitions = [ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def _private(x=0): pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0): pass\n"
        "    def m(self, u=0, v=0): pass\n"
        "    @staticmethod\n"
        "    def s(w=0): pass\n"
        "    @classmethod\n"
        "    def c(cls, z=0): pass\n")]
    callers = [ast.parse("f(1, 2, e=5)\nK(1)\nobj.m(v=1)\nK.s(1)\nK.c()\n")]
    assert unread_optional_parameters(definitions, callers) == [
        "K.__init__(y)", "K.c(z)", "K.m(u)", "f(c)", "f(d)"]
    starred = [ast.parse("f(*a)\nf(**kw)\nK(*a)\nx.m(**kw)\nK.s(*a)\nK.c(*a)\n")]
    assert unread_optional_parameters(definitions, starred) == []
