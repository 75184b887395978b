"""Suite-wide Hypothesis settings: every run draws the same examples.

The "deterministic" profile derives each property test's examples from the
test itself (derandomize) and keeps no example database, so a run neither
depends on a fresh seed nor replays examples stored by an earlier run. Each
test's own max_examples still applies. An explicit --hypothesis-profile (say
"default", together with --hypothesis-seed) takes precedence.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("deterministic")
