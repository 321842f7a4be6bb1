import ast
from pathlib import Path

import pytest

import nilqp

MODULES = sorted(Path(nilqp.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at module level but never reads and does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_the_check_sees_an_unused_import():
    source = "from math import gcd, lcm\nimport re\n__all__ = ['lcm']\nprint(gcd)\n"
    assert _unused_imports(source) == ["re (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _has_all(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for node in tree.body
    )


def _checked(node, has_all: bool) -> bool:
    """Whether a module-level definition must be referenced.

    Private functions and classes must be, and so must the public functions
    of a module without ``__all__`` (``has_all`` false): such a module
    serves the package only.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("__"):
        return False
    return node.name.startswith("_") or (not has_all and isinstance(node, functions))


def _unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level definitions (`_checked`) that no module names.

    ``sources`` maps a module's name to its text.  A definition counts as
    referenced when its name is read as a name or an attribute anywhere
    outside its own body, or imported by name.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if _checked(node, _has_all(tree))
    }
    inside = {
        id(child): key for key, node in defined.items() for child in ast.walk(node)
    }
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            owner = inside.get(id(node))
            if owner is None or owner[1] != name:
                referenced.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in referenced)


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {
        "a": "def _used():\n    pass\n\ndef _rec(n):\n    return _rec(n - 1)\n\n"
        "class _Gone:\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b": "from a import _used\n",
    }
    assert _unreferenced_definitions(sources) == ["a._Gone", "a._rec"]


def test_the_check_sees_an_unreferenced_public_function_only_without_all():
    # A module without ``__all__`` (like ``kernel``) exports nothing, so a
    # public function there that no module calls is dead code.
    sources = {
        "a": "def used():\n    pass\n\ndef gone():\n    pass\n\nclass Kept:\n    pass\n",
        "b": "__all__ = ['api']\nfrom a import used\n\ndef api():\n    return used()\n",
    }
    assert _unreferenced_definitions(sources) == ["a.gone"]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _unreferenced_definitions(sources) == []
