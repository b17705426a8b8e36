"""Pin BLAS to one thread before any test module imports numpy.

Multi-threaded BLAS slows sharply when another process holds a core: on a
loaded 2-vCPU host a 40-example dense-oracle test took 146 s instead of 5 s.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
