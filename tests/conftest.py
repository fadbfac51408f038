"""Suite-wide test set-up: one hypothesis profile, loaded for every test."""

from hypothesis import settings

# Property tests call numpy kernels whose first call can outlast
# hypothesis's 200 ms per-example deadline on a loaded machine. Only the
# deadline goes; max_examples keeps its default.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
