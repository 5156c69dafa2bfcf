"""Hypothesis profiles for the tier-1 suite.

``tier1`` (loaded by default) draws every property test's examples from a
seed fixed by the test itself and keeps no example database, so a red
tier-1 is a property of the commit that turned it red, not of the draw.
``explore`` draws at random; select it with ``--hypothesis-profile
explore`` (and ``--hypothesis-seed N`` to replay a run).  A falsifying
example it finds becomes a pinned case of the test it broke.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
