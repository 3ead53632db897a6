"""Suite-wide test settings.

Every hypothesis test runs under one profile: examples come from a fixed
seed (``derandomize``), so a failure reproduces on the next run, nothing
is read from or saved to an example database, and no example is timed
out.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("ranklab", derandomize=True, deadline=None, database=None)
settings.load_profile("ranklab")
