import importlib
import pkgutil

import pytest

import corrwishart

MODULES = ["corrwishart"] + ["corrwishart." + m.name
                             for m in pkgutil.iter_modules(corrwishart.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the __all__ lists are kept by hand; a deleted function must leave them too
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
