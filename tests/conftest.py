"""Test configuration shared by the whole suite.

When the CI environment variable is set (GitHub Actions sets it), the
hypothesis "ci" profile is loaded: examples are derandomized, so a failing
property test fails the same way on every run, and the failing example's
reproduction blob is printed, so it can be replayed locally with
@reproduce_failure.  Local runs keep the default randomized profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
