"""The package's public names, and the names each module imports."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import susyq

MODULES = ["susyq"] + [f"susyq.{m.name}" for m in pkgutil.iter_modules(susyq.__path__)
                       if m.name != "__main__"]
PACKAGE = pathlib.Path(susyq.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


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


def _unread_imports(tree, package_init: bool) -> list:
    """The names ``tree``'s imports bind and it never reads.  A name listed in
    ``__all__`` counts as read; so does a star import in the package's
    ``__init__.py`` from a module whose ``__all__`` it extends, read from the
    module itself."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    extended = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "__all__":
            extended.add(node.value.value.id)  # __all__ += <module>.__all__
            read |= set(importlib.import_module(f"susyq.{node.value.value.id}").__all__)
    return [name for name, node, _ in _imports(tree) if name not in read and not (
        name == "*" and package_init and node.level == 1 and node.module in extended)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    # the project runs no linter, so this is what catches an import a refactor orphans
    assert _unread_imports(_tree(path), package_init=path.name == "__init__.py") == []


def test_the_import_guard_takes_a_star_only_where_the_package_extends_its_list():
    init = ast.parse("from .expr import *\nfrom .gk import *\nfrom .numerics import Grid\n"
                     "__all__ = []\n__all__ += expr.__all__\n")
    # gk's list is not extended, and Grid is an orphaned named import
    assert _unread_imports(init, package_init=True) == ["*", "Grid"]
    assert _unread_imports(init, package_init=False) == ["*", "*", "Grid"]


def test_the_package_exports_each_modules_list_once():
    stars = [node.module for node in _tree(PACKAGE / "__init__.py").body
             if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"]
    modules = [importlib.import_module(f"susyq.{name}") for name in stars]
    assert susyq.__all__ == ["__version__"] + [name for m in modules for name in m.__all__]
    assert len(set(susyq.__all__)) == len(susyq.__all__)
    assert [f"{m.__name__}.{name}" for m in modules for name in m.__all__
            if getattr(susyq, name) is not getattr(m, name)] == []


def test_a_star_import_of_the_package_raises_no_warning():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    r = subprocess.run([sys.executable, "-W", "error", "-c", "from susyq import *"],
                       capture_output=True, text=True, env=env)
    assert (r.returncode, r.stderr) == (0, "")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_the_demos_import_only_listed_public_names(path):
    unlisted = [f"{node.module}.{name}" for _, node, name in _imports(_tree(path))
                if node is not None and node.module.split(".")[0] == "susyq"
                and name not in importlib.import_module(node.module).__all__]
    assert unlisted == []


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
