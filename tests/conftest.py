"""Every hypothesis test draws the same examples on every run: the loaded
profile derandomizes them (which also turns off the example database). Each
test's own max_examples and deadline still apply."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
