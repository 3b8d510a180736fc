import hashlib
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


@pytest.fixture
def write_container():
    """write_container(mesh, payload, path) writes a functional-data
    container for `mesh` around an arbitrary payload, with a matching
    payload hash, so the loader's own checks see it."""
    def write(mesh, payload, path):
        with open(path, "wb") as fh:
            fh.write(b"MATMIFN2")
            fh.write(mesh.content_hash().encode("ascii"))
            fh.write(hashlib.sha256(payload).hexdigest().encode("ascii"))
            fh.write(payload)
    return write
