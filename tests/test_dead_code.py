"""Guard against code that nothing calls, against imports that nothing
uses, and against renaming a function the benchmark tracer wraps by name.

Every module-level function and method in ``src/schubert_atlas`` must be
referenced somewhere in the package other than its own definition, or sit on
the allowlist below with a reason.  An export is not a use: neither a listing
in ``__all__`` nor a re-export in ``__init__`` keeps a function alive, so a
function only the tests call belongs in ``tests/helpers.py``.

A module-level function ``f`` of ``mod`` counts as referenced only through a
bare ``f`` inside ``mod``, a ``from .mod import f`` in a module other than
``__init__``, or an attribute ``mod.f``.  An attribute of the same name on
some other object does not count for it: ``RootDatum.rank`` says nothing
about a function ``rank``.  Methods count through any attribute of their
name.

Every attribute that ``RootDatum`` sets, as a field or in ``__post_init__``,
must likewise be read somewhere in the package, through an attribute of its
name, or sit on its own allowlist with a reason.
"""

import ast
import importlib
import types
from pathlib import Path

import schubert_atlas

SRC = Path(schubert_atlas.__file__).parent
TESTS = Path(__file__).parent

# {name: reason} of functions kept although nothing in the package calls them
ALLOWED = {}

# {name: reason} of RootDatum attributes kept although nothing in the package reads them
ALLOWED_ATTRIBUTES = {}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _functions(tree):
    """(name, line) of the module-level functions."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.lineno


def _methods(tree):
    """(name, line) of the methods, dunders left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno


def _module_references(trees):
    """{(module, name)} of the module-level names referenced as the module
    docstring describes, and the set of every attribute name."""
    used = set()
    attrs = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in trees:
                    used.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and module != "__init__":
                source = (node.module or "").rpartition(".")[2]
                used.update((source, alias.name) for alias in node.names)
    return used, attrs


def test_every_function_is_referenced():
    trees = _trees()
    used, attrs = _module_references(trees)
    dead = [
        f"{module}.py:{line} {name}"
        for module, tree in trees.items()
        for name, line in _functions(tree)
        if (module, name) not in used and name not in ALLOWED
    ]
    dead += [
        f"{module}.py:{line} {name}"
        for module, tree in trees.items()
        for name, line in _methods(tree)
        if name not in attrs and name not in ALLOWED
    ]
    assert not dead, dead


def test_allowlist_names_existing_functions():
    defined = {
        name
        for tree in _trees().values()
        for name, _ in [*_functions(tree), *_methods(tree)]
    }
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined


def test_every_exported_name_is_bound():
    """Each name in ``schubert_atlas.__all__`` is bound in the package, once:
    a name left there after its import is removed passes every other test
    and breaks ``from schubert_atlas import *``."""
    exported = schubert_atlas.__all__
    assert len(set(exported)) == len(exported)
    unbound = [name for name in exported if not hasattr(schubert_atlas, name)]
    assert not unbound, unbound
    namespace = {}
    exec("from schubert_atlas import *", namespace)
    assert set(exported) <= set(namespace)


def _unused_imports(path):
    """(line, name) of each name a module imports and never reads.  A name
    listed in ``__all__`` counts as read; ``__future__`` imports do not
    bind names."""
    tree = ast.parse(path.read_text())
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    """Every import in ``src/schubert_atlas`` and ``tests`` is used; the
    package ``__init__`` re-exports through ``__all__``."""
    unused = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])
        for line, name in _unused_imports(path)
    ]
    assert not unused, unused


def test_traced_names_are_module_functions():
    """Each function ``perfbench/tracer.py`` names in ``NAMED`` is a
    module-level function of its layer module, or ``--trace 1`` fails to
    install.  ``NAMED`` is read from the source, without importing it."""
    tree = ast.parse((TESTS.parent / "perfbench" / "tracer.py").read_text())
    (named,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["NAMED"]
    ]
    missing = []
    for layer, names in named.items():
        module = importlib.import_module(f"schubert_atlas.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if not (
                isinstance(fn, types.FunctionType)
                and fn.__module__ == module.__name__
                and fn.__qualname__ == name
            ):
                missing.append(f"{layer}.{name}")
    assert named and not missing, missing


def test_oracle_shares_no_logic_with_schubert():
    """The oracles are ground truth for ``schubert``, so they must not reuse
    its logic: ``oracle.py`` takes nothing from it, imports no ``schubert``
    module object, and does not read the datum's ``parabolic_tables``."""
    taken = set()
    cache_reads = []
    for node in ast.walk(_trees()["oracle"]):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == "schubert":
                taken.update(alias.name for alias in node.names)
            taken.update("module" for alias in node.names if alias.name == "schubert")
        elif isinstance(node, ast.Import):
            taken.update(
                "module" for alias in node.names if alias.name.endswith(".schubert")
            )
        elif isinstance(node, ast.Attribute) and node.attr == "parabolic_tables":
            cache_reads.append(node.lineno)
    assert taken == set(), taken
    assert not cache_reads, cache_reads


def test_only_weyl_touches_the_element_record():
    """``WeylElement.record`` is read and written by ``weyl.py`` alone: every
    other module goes through ``weyl.canonical_record``, so the record has
    one place where it is built and its layout stays behind that function."""
    touches = [
        f"{module}.py:{node.lineno}"
        for module, tree in _trees().items()
        if module != "weyl"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "record"
    ]
    assert not touches, touches


def test_only_weyl_touches_the_parabolic_tables():
    """``RootDatum.parabolic_tables``, the datum's one cache, is read and
    written by ``weyl.py`` alone: every other module goes through
    ``weyl.parabolic_table``, the one place that fills it."""
    touches = [
        f"{module}.py:{node.lineno}"
        for module, tree in _trees().items()
        if module != "weyl"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "parabolic_tables"
    ]
    assert not touches, touches


def _root_datum_attributes(tree):
    """(name, line) of each attribute ``RootDatum`` sets: its fields, and
    each ``object.__setattr__(self, "name", ...)`` of its methods."""
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RootDatum"
    ]
    for node in cls.body:
        if isinstance(node, ast.AnnAssign):
            yield node.target.id, node.lineno
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
        ):
            yield node.args[1].value, node.lineno


def test_every_root_datum_attribute_is_read():
    """Each attribute the datum builds is read in the package: a table that
    only tests read belongs in ``tests/helpers.py``."""
    trees = _trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    attributes = dict(_root_datum_attributes(trees["rootdata"]))
    unread = [
        f"rootdata.py:{line} {name}"
        for name, line in attributes.items()
        if name not in read and name not in ALLOWED_ATTRIBUTES
    ]
    assert not unread, unread
    assert set(ALLOWED_ATTRIBUTES) <= set(attributes), set(ALLOWED_ATTRIBUTES) - set(attributes)
