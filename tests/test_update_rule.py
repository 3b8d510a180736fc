"""One update path: the key "picard.adaptive" is named only where the
`string` row of `CALLERS` in test_call_rule.py allows; the rule's reason
is in that module's docstring."""

from test_call_rule import MODULES, violations_of


@MODULES
def test_only_the_update_reads_the_adaptive_key(path):
    assert violations_of("string", path) == []
