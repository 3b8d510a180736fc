"""One flux route: the family's evaluators and the weak divergence are
read only where the `read` rows of `CALLERS` in test_call_rule.py allow;
the rule's reason is in that module's docstring."""

from test_call_rule import MODULES, violations_of


@MODULES
def test_the_flux_has_one_route(path):
    assert violations_of("read", path) == []
