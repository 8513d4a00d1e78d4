"""Hypothesis profiles for the test suite.

The default profile leaves every property test at its own example count.
``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile, which raises each count to
1000 (through ``helpers.budget`` where a test sets its own count), so CI
searches deeper than a local run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
