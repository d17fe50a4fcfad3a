"""The package's public names, and the names each module imports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import susyq

MODULES = ["susyq"] + [f"susyq.{m.name}" for m in pkgutil.iter_modules(susyq.__path__)
                       if m.name != "__main__"]
SOURCES = sorted(pathlib.Path(susyq.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale entry would make ``from module import *`` raise
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree):
    """(bound name, ImportFrom node or None, imported name) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], None, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node, alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    # the project runs no linter, so this is what catches an import a refactor orphans
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:  # a name listed in __all__ counts as read
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    assert [name for name, _, _ in _imports(tree) if name not in read] == []


@pytest.mark.parametrize("name", ["suites.py", "cli.py"])
def test_the_suites_and_the_cli_call_each_check_through_its_public_entry_point(name):
    # the names the suites and the CLI run are the ones a reader, a test or a
    # trace sees: no private helper of the check modules stands in for them
    tree = _tree(pathlib.Path(susyq.__file__).parent / name)
    private = [f"{node.module}.{alias}" for _, node, alias in _imports(tree)
               if node is not None and (node.module or "").split(".")[-1] in ("susy", "deform", "gk", "numerics")
               and alias.startswith("_")]
    assert private == []


def test_the_cli_imports_no_private_name_of_another_module():
    tree = _tree(pathlib.Path(susyq.__file__).parent / "cli.py")
    private = [f"{node.module}.{name}" for _, node, name in _imports(tree)
               if node is not None and (node.level or node.module.startswith("susyq"))
               and name.startswith("_")]
    assert private == []
