"""Shared test configuration: the hypothesis profiles.

``default`` keeps the tier-1 run quick; ``fuzz`` raises the example
budget for the CI steps that re-run the property modules with
``HYPOTHESIS_PROFILE=fuzz`` (the persistence corruption fuzzer and the
fast-path differential tests).
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.register_profile(
    "fuzz",
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
