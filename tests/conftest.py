"""Test-session settings: one hypothesis profile with fixed examples, no
deadline and no example database, so that every run of the suite draws the
same examples and writes no .hypothesis/ directory."""

import os
import tempfile

from hypothesis import settings

# at collection the hypothesis plugin caches the constants of the code under
# test in its storage directory, whatever the database; keep that cache out
# of the source tree
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "isofluid-hypothesis")
)

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("deterministic")
