"""Test-suite configuration shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run (derandomize also turns
# off the example database), so two runs of the suite, say before and after
# a change, cannot differ by a random draw.  Each test keeps its own
# max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
