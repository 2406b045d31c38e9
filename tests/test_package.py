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
