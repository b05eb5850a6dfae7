"""Few-shot continual event detection with a frozen transformer backbone,
pooled low-rank experts with instance-level routing, rehearsal memory,
label-description contrast, and two-level distillation."""

import os

# One BLAS thread, as the benchmark computes. BLAS reads this when NumPy loads,
# before any submodule imports it; a setting made outside the program wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
