"""One hypothesis profile for the whole suite: the same examples on every
run (derandomize), no per-example time limit (the NumPy forward passes of
some properties take tens of milliseconds on a slow host), and a
reproduction blob printed for every failure.

BLAS runs on one thread, as in the `leaf` package and the benchmark. Test
modules import NumPy before `leaf`, so the setting is made here first; a
setting made outside the suite wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("leaf", deadline=None, derandomize=True, print_blob=True)
settings.load_profile("leaf")
