"""No module or class body in the package or its tests binds a name twice.

A second ``class TestX`` or ``def test_x`` in one body replaces the first,
so pytest never collects the first one's tests and nothing says so.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("tests/*.py"),
                  *ROOT.glob("src/spdc_studio/*.py")])


def _bound_names(body: list[ast.stmt]) -> list[str]:
    """The names that the statements of one body define: functions,
    classes and plain-name assignment targets."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def shadowed_names(source: str) -> list[str]:
    """``scope.name`` for each name that a module or class body of
    ``source`` defines more than once."""
    tree = ast.parse(source)
    scopes = [("<module>", tree)] + [(node.name, node)
                                     for node in ast.walk(tree)
                                     if isinstance(node, ast.ClassDef)]
    return [f"{scope}.{name}" for scope, node in scopes
            for name, n in Counter(_bound_names(node.body)).items() if n > 1]


def test_detector_sees_a_shadowed_class_and_method():
    source = ("class TestA:\n    def test_x(self): pass\n"
              "    def test_x(self): pass\n"
              "class TestA:\n    pass\n"
              "if True:\n    def f(): pass\nelse:\n    def f(): pass\n")
    assert shadowed_names(source) == ["<module>.TestA", "TestA.test_x"]


def test_sources_are_found():
    assert ROOT / "tests" / "test_tomography.py" in SOURCES
    assert ROOT / "src" / "spdc_studio" / "tomography.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_name_is_defined_twice_in_one_body(path):
    assert shadowed_names(path.read_text(encoding="utf-8")) == []
