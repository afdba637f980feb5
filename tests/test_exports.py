import importlib
import pkgutil

import pytest

import lpc

MODULES = ["lpc"] + sorted(m.name for m in pkgutil.walk_packages(lpc.__path__, "lpc."))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale name in __all__ imports fine and fails only at `import *`
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
