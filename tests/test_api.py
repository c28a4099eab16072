"""The public names: everything the package and its modules export resolves,
and every class member has a reader in the package or the benchmark."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chemnn

MODULES = sorted(info.name for info in pkgutil.iter_modules(chemnn.__path__))


def test_package_names_resolve():
    """Every name ``chemnn/__init__.py`` imports is an attribute of the package."""
    tree = ast.parse(Path(chemnn.__file__).read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "Kinetics" in names and "oracle" in names
    missing = [name for name in names if not hasattr(chemnn, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"chemnn.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing


def test_modules_use_their_imports():
    """No module or test file imports a name it never reads; ``__init__``'s
    imports are the package's names, checked above, and an import marked
    ``# noqa: F401`` is a re-export."""
    unused = []
    for path in sorted([*Path(chemnn.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        imported = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.stem}.{name}" for name in sorted(imported - read)]
    assert not unused


# Class members that nothing in the package or the benchmark reads, each kept for a reason.
UNREAD_MEMBERS = {
    # the trajectory API, which goes once the benchmark no longer records trajectories
    "Trajectory.series",
    "Trajectory.final_state",
    # bistable_equilibria's stability label, which test_acceptance checks against the paper
    "BistablePoint.stable",
}


def test_class_members_have_readers():
    """Every method, property and dataclass field of a class in the package
    is read as ``.name`` somewhere in the package or in ``bench/``; a member
    only the tests read is test code.  Dunder methods are called implicitly."""
    package = Path(chemnn.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    assert (bench / "run.py").is_file()
    members = set()
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.add((cls.name, name))
    read = {node.attr
            for path in [*package.glob("*.py"), *bench.glob("*.py")]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    unread = {f"{cls}.{name}" for cls, name in members if name not in read}
    assert unread == UNREAD_MEMBERS
