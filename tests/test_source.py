"""Checks on the package's source: no top-level function or class of
``src/drn``, no public method of its classes, no name imported into its
modules and no parameter of its functions is dead there, so no library code
is used only by the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drn"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(src: Path) -> dict[str, ast.Module]:
    """The syntax tree of each module in ``src``, by module name."""
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def unreferenced(src: Path) -> set[tuple[str, str]]:
    """The (module, name) of each top-level function and class of the
    modules in ``src`` that no code there references outside its own
    definition.  A reference is a bare name in its own module, a name
    imported from its module (``unused_imports`` checks that the importer
    uses it), or ``module.name``."""
    trees = parse(src)
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


def unused_methods(src: Path) -> set[tuple[str, str, str]]:
    """The (module, class, method) of each public method (no leading
    underscore) of the top-level classes of ``src`` whose name appears
    nowhere there as an attribute (``x.name``)."""
    trees = parse(src)
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    return {(mod, cls.name, fn.name)
            for mod, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("_") and fn.name not in attributes}


def unused_imports(src: Path) -> set[tuple[str, str]]:
    """The (module, name) of each name imported into a module of ``src``
    (``from __future__`` aside) that the module neither uses as a bare name
    (``name`` or ``name.attr``) nor lists in its ``__all__``."""
    found = set()
    for mod, tree in parse(src).items():
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
                used.update(ast.literal_eval(node.value))
        found |= {(mod, name) for name in imported - used}
    return found


def unread_parameters(src: Path) -> set[tuple[str, str, str]]:
    """The (module, function, parameter) of each parameter of a function or
    method of ``src``, nested ones included, that its body never reads as a
    bare name (a nested function's read counts for its enclosing one)."""
    found = set()
    for mod, tree in parse(src).items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found |= {(mod, fn.name, name) for name in params if name not in read}
    return found


def test_every_definition_is_used_by_the_package():
    assert unreferenced(SRC) == set()


def test_every_public_method_is_used_by_the_package():
    assert unused_methods(SRC) == set()


def test_every_import_is_used_by_its_module():
    assert unused_imports(SRC) == set()


def test_every_parameter_is_read_by_its_function():
    assert unread_parameters(SRC) == set()
