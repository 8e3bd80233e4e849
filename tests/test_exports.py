import importlib
import pkgutil

import pytest

import postscore

# __main__ runs the CLI on import, and it exports nothing.
MODULES = sorted(
    f"postscore.{m.name}" for m in pkgutil.iter_modules(postscore.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["postscore", *MODULES])
def test_every_exported_name_resolves(module_name):
    """A stale __all__ entry breaks ``from module import *``."""
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
