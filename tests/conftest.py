import os

from hypothesis import settings

# Property tests draw few, fixed examples by default so Tier-1 stays fast
# and repeatable; CI sets HYPOTHESIS_PROFILE=ci for a wider random search.
# A solver run inside one example can outlast hypothesis's default deadline
# on a slow runner.
settings.register_profile("dev", max_examples=20, deadline=None, derandomize=True)
settings.register_profile("ci", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
