"""The benchmark tracer wraps matmi callables by module and name; a
rename in the library would silently drop a traced layer."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "spans.py")


def _load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_tracer_target_resolves_to_a_callable(span):
    modname, attr = TARGETS[span]
    assert callable(getattr(importlib.import_module(modname), attr, None)), \
        "%s -> %s.%s" % (span, modname, attr)
