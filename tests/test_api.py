import ast
import functools
import symtable
from collections import Counter
from pathlib import Path

import jdl
import jdl.autodiff as ad

PACKAGE = Path(jdl.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "perfbench"

# public names that only the tests reach today, each waiting for the ROADMAP
# item that gives it a caller
ALLOWED = {
    "model.JointModel.class_probs": "item 9: per-class AUROC of the reference run",
    "pgm.write_pgm": "item 8: the CLI's PGM dumps of samples and counterfactuals",
}


@functools.cache
def _sources() -> dict[Path, ast.Module]:
    """The parsed sources of the package and the benchmark, by path."""
    # the benchmark's own tests count: they pin what its workloads measure.
    # A re-export in ``__init__.py`` names a function without calling it
    files = [*PACKAGE.rglob("*.py"), *BENCH.rglob("*.py")]
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in files if path.name != "__init__.py"}


def _named(tree: ast.AST) -> Counter:
    """How often each identifier is named: as a variable, an attribute, an
    imported name or a string (``getattr`` and monkeypatching use strings)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names[node.value] += 1
    return names


def _is_private(name: str) -> bool:
    # a dunder is called by Python itself
    return name.startswith("_") and not name.startswith("__")


def _defs(path: Path, tree: ast.Module, private: bool):
    """The module's functions and classes and its classes' methods: the
    public ones, or with ``private`` the single-underscore ones (those of
    every class)."""
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    wanted = _is_private if private else (lambda name: not name.startswith("_"))
    for node in tree.body:
        if isinstance(node, kinds) and wanted(node.name):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef) and (private or wanted(node.name)):
            for item in node.body:
                if isinstance(item, kinds) and wanted(item.name):
                    yield f"{module}.{node.name}.{item.name}", item


def _uncalled(private: bool) -> list[str]:
    # matched by bare name: a def counts as used when anything of its name is
    # named in the package or the benchmark, outside its own definition
    trees = _sources()
    everywhere = sum((_named(tree) for tree in trees.values()), Counter())
    return sorted(qualname for path, tree in trees.items() if PACKAGE in path.parents
                  for qualname, node in _defs(path, tree, private)
                  if everywhere[node.name] - _named(node)[node.name] == 0)


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _uncalled(private=False)
    assert sorted(set(unused) - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - set(unused)) == [], "allowed names that now have a caller"


def test_every_private_name_has_a_caller():
    # a private helper whose last caller went must go with it
    assert _uncalled(private=True) == []


def _reached_in_autodiff(tree: ast.AST) -> set:
    """The names that ``tree`` takes from ``jdl.autodiff``: as ``ad.<name>``
    or ``autodiff.<name>``, or in a ``from ... autodiff import``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in ("ad", "autodiff")
                    or isinstance(owner, ast.Attribute) and owner.attr == "autodiff"):
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "jdl.autodiff"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_autodiff_export_is_reached_outside_the_tests():
    # matched as attributes, not bare names: a builtin of the same name, such
    # as ``sum``, would hide an export that only the tests call
    reached = set().union(*map(_reached_in_autodiff, _sources().values()))
    assert sorted(set(ad.__all__) - reached) == []


def _unused_imports(path: Path) -> list[str]:
    """Names that an import in the module binds and nothing in it reads.

    ``symtable`` reads annotations only where they are evaluated, so the
    ``__future__`` import that defers them is dropped first.
    """
    source = path.read_text().replace("from __future__ import annotations", "")
    imported, read = set(), set()
    tables = [symtable.symtable(source, str(path), "exec")]
    while tables:
        table = tables.pop()
        for symbol in table.get_symbols():
            if symbol.is_imported():
                imported.add(symbol.get_name())
            if symbol.is_referenced():
                read.add(symbol.get_name())
        tables += table.get_children()
    return sorted(imported - read)


def test_every_import_is_used():
    # no linter runs here; a re-export in ``__init__.py`` is its use
    files = [*PACKAGE.rglob("*.py"), *TESTS.glob("*.py")]
    unused = {path.name: _unused_imports(path) for path in files
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
