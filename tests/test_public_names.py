"""Every name in a package module's ``__all__`` has a caller.

A public name counts as called when a package module, a script, a
benchmark module or the acceptance tests refer to it: as a name they
read, as an attribute or in an import. The definition and the
``__all__`` string do not count, nor do the unit tests: a name that only
they reach is a second path kept for them alone. Only ``__all__`` is
checked, not methods or properties, so a reference implementation that
the unit tests compare against, such as ``JsaGrid.normalized_copy``,
needs no exemption.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/spdc_studio/*.py"))
CALLERS = sorted([*PACKAGE, *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("perfbench/*.py"),
                  ROOT / "tests" / "test_acceptance.py"])


def public_names(source: str) -> list[str]:
    """The strings of the ``__all__`` that ``source`` assigns, if any."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def referenced_names(source: str) -> set[str]:
    """The names that ``source`` reads, looks up as attributes or
    imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def uncalled_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` for each name in the ``__all__`` of a source of
    ``modules`` that no source of ``callers`` refers to."""
    called = set().union(*map(referenced_names, callers))
    return [f"{module}.{name}" for module, source in modules.items()
            for name in public_names(source) if name not in called]


def test_detector_sees_an_uncalled_name():
    module = ('__all__ = ["read", "Imported", "looked_up", "unused"]\n'
              "def read(): pass\nclass Imported: pass\n"
              "def looked_up(): pass\ndef unused(): pass\n"
              "unused = read()\n")
    caller = "from m import Imported\nimport m\nm.looked_up()\n"
    assert uncalled_names({"m": module}, [module, caller]) == ["m.unused"]


def test_sources_are_found():
    assert ROOT / "src" / "spdc_studio" / "tomography.py" in PACKAGE
    assert ROOT / "perfbench" / "workloads.py" in CALLERS
    assert ROOT / "scripts" / "run_full_pipeline.py" in CALLERS
    assert (ROOT / "tests" / "test_acceptance.py").is_file()


def test_every_public_name_has_a_caller():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert uncalled_names(modules, callers) == []
