import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) replaces every binding of fn in the loaded matmi
    modules (a `from .x import f` binds f in the importing module too) by
    a wrapper that appends to the returned list on each call."""
    def install(fn):
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if mod is not None and name.split(".")[0] == "matmi":
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, key, wrapper)
        return calls
    return install
