"""Run BLAS on one thread, as the benchmark and tools/artifact_hashes.py do.

Results at large dimensions are not bitwise the same across BLAS thread
counts, and one thread is faster on a small shared machine. An explicit
setting in the environment still wins. This runs before any test module
imports NumPy, which reads these variables once, when it is first imported.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
