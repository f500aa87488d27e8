"""Guard against code that nothing calls.

Every module-level function and method in ``src/schubert_atlas`` must be
referenced somewhere in the package other than its own definition, be
exported through ``__all__``, or sit on the allowlist below with a reason.
"""

import ast
from pathlib import Path

import schubert_atlas

SRC = Path(schubert_atlas.__file__).parent

ALLOWED = {
    "coset_factorize": "tests check the W^P x W_P factorization with it",
    "longest_element": "tests build w0 with it",
    "fundamental_weight": "tests pair weights with coroots through it",
    "weight_coroot_pairing": "tests pair weights with coroots through it",
    "coroot_for": "tests read an adapted-basis entry by key with it",
    "cover_coroots_direct": "the brute-force cover oracle the tests check against",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(name, line) of the module-level functions and the methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno


def _references(tree):
    """Names used as variables or attributes, and names imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_function_is_referenced():
    trees = _trees()
    init = trees["__init__.py"]
    imported = {
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set(schubert_atlas.__all__)
    for filename, tree in trees.items():
        refs = set(_references(tree))
        if filename == "__init__.py":
            refs -= imported  # re-exports count only through __all__
        used |= refs
    dead = [
        f"{filename}:{line} {name}"
        for filename, tree in trees.items()
        for name, line in _definitions(tree)
        if name not in used and name not in ALLOWED
    ]
    assert not dead, dead


def test_allowlist_names_existing_functions():
    defined = {name for tree in _trees().values() for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined
