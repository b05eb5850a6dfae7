"""One hypothesis profile for the whole suite: the same examples on every
run (derandomize), no per-example time limit (the NumPy forward passes of
some properties take tens of milliseconds on a slow host), and a
reproduction blob printed for every failure."""

from hypothesis import settings

settings.register_profile("leaf", deadline=None, derandomize=True, print_blob=True)
settings.load_profile("leaf")
