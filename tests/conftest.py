"""Settings shared by the whole test suite.

Hypothesis prints a ``@reproduce_failure`` blob with each falsifying
example, so a failure found under a random seed can be replayed exactly
even when the example database is not kept.  The profile changes nothing
else: example counts, seeds and derandomization stay as each test sets them.
"""

from hypothesis import settings

settings.register_profile("goaltime", print_blob=True)
settings.load_profile("goaltime")
