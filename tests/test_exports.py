import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import postscore

# __main__ is the process entry, and it exports nothing.
MODULES = sorted(
    f"postscore.{m.name}" for m in pkgutil.iter_modules(postscore.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["postscore", *MODULES])
def test_every_exported_name_resolves(module_name):
    """A stale __all__ entry breaks ``from module import *``."""
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_public_name_is_used_by_the_program():
    """Each name in the ``__all__`` of ``postscore`` or of any of its modules
    is used somewhere in the package or the bench, not only defined there and
    called by tests. A use is a name, an attribute or a ``from ... import``
    alias; a ``def`` or ``class`` statement alone is not."""
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in [*(root / "src" / "postscore").glob("*.py"), *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    exported = set(postscore.__all__)
    for module_name in MODULES:
        exported.update(getattr(importlib.import_module(module_name), "__all__", ()))
    unused = sorted(name for name in exported - {"__version__"} if name not in used)
    assert unused == []


def test_every_bench_reference_resolves():
    """Each ``ps.<module>.<name>...`` chain and each ``wrap(ps.<module>,
    "<name>", ...)`` in bench/*.py names something in the package, so a
    rename that would break the bench's traced replay fails here. The bench
    files are only read."""
    root = Path(__file__).resolve().parents[1]
    chains, wrapped = set(), set()
    for path in (root / "bench").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        chains.update(tuple(c.split(".")) for c in re.findall(r"\bps\.(\w+(?:\.\w+)+)", text))
        wrapped.update(re.findall(r"\bwrap\(\s*ps\.(\w+),\s*\"(\w+)\"", text))
    assert chains and wrapped

    def resolves(module, *names):
        try:
            obj = importlib.import_module(f"postscore.{module}")
            functools.reduce(getattr, names, obj)
        except (ImportError, AttributeError):
            return False
        return True

    missing = sorted(".".join(ref) for ref in chains | wrapped if not resolves(*ref))
    assert missing == []


def test_only_the_cache_module_touches_the_cache():
    """The layout of the cache of parsed inputs lives in ``postscore.cache``
    alone. No other module of the package takes a name but ``load`` from it,
    names the cache's environment variable, or holds a string that would
    build an entry file's name (one naming a ``.npy`` file, or a
    ``.table.`` or ``.posts.`` file). Docstrings are exempt, and so are the
    tests."""
    root = Path(__file__).resolve().parents[1] / "src" / "postscore"
    entry_name = re.compile(r"\.npy\b|\.(table|posts)\.|XDG_CACHE_HOME")
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "cache.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                bad = node.value.id == "cache" and node.attr != "load"
            elif isinstance(node, ast.ImportFrom):
                bad = node.module in ("cache", "postscore.cache") and any(a.name != "load" for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                bad = id(node) not in docstrings and entry_name.search(node.value) is not None
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
