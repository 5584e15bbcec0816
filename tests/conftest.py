"""Settings shared by the whole test suite.

Hypothesis prints a ``@reproduce_failure`` blob with each falsifying
example, so a failure found under a random seed can be replayed exactly
even when the example database is not kept.  The profile changes nothing
else: example counts, seeds and derandomization stay as each test sets them.
The ``sweep`` profile (``--hypothesis-profile=sweep``) keeps no example
database as well, so that each run of a sweep over ``--hypothesis-seed``
draws its own examples and replays none that an earlier seed failed at.
"""

from hypothesis import settings

settings.register_profile("goaltime", print_blob=True)
settings.register_profile("sweep", print_blob=True, database=None)
settings.load_profile("goaltime")
