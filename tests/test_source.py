"""Checks on the package's source: no top-level function or class of
``src/drn`` is dead there, so no library code is used only by the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drn"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(src: Path) -> set[tuple[str, str]]:
    """The (module, name) of each top-level function and class of the
    modules in ``src`` that no code there references outside its own
    definition.  A reference is a bare name in its own module, a name
    imported from its module, or ``module.name``."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    defined, used = set(), set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            own = (mod, stmt.name) if isinstance(stmt, DEFINITIONS) else None
            if own:
                defined.add(own)
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add((mod, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    refs.add((node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module:
                    source = node.module.removeprefix("drn.")
                    refs.update((source, alias.name) for alias in node.names)
            used |= refs - {own}
    return defined - used


def test_every_definition_is_used_by_the_package():
    assert unreferenced(SRC) == set()
