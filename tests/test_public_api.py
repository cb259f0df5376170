import importlib
import inspect

import pytest

MODULES = ["coordination", "faultcalc", "netmodel", "relaycurve", "studio",
           "ufcl"]


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_module(name):
    module = importlib.import_module(f"protcoord.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"__all__ names nothing: {missing}"
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == module.__name__}
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"public but not in __all__: {unlisted}"
