"""Hypothesis profiles for the property tests.

``default``: derandomized, so every run draws the same examples, with no
deadline and no example database.  ``explore`` (``HYPOTHESIS_PROFILE=explore``):
fresh random draws on each run and ten times the examples.  Each property
test asks for a multiple of the profile's ``max_examples``, so the factor
applies to all of them.
"""

import os

from hypothesis import settings

settings.register_profile("default", derandomize=True, deadline=None, database=None)
# derandomize is set, not inherited: a profile registered here starts from the
# loaded one, which is "default" with derandomize=True
settings.register_profile("explore", derandomize=False, deadline=None, database=None,
                          max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
