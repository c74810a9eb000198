"""Settings shared by the whole test suite."""

from hypothesis import settings

# Every property test draws the same examples on every run and machine: no
# example database carries failures between runs, and a slow shared machine
# fails no example on time alone.
settings.register_profile("equisr", derandomize=True, database=None, deadline=None)
settings.load_profile("equisr")
