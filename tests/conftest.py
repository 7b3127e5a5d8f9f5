"""One BLAS and OpenMP thread for every test, whatever the shell sets.

A product that OpenBLAS splits over another number of threads rounds
differently, so the goldens and the bitwise tests hold for one thread,
the CLI's default.  numpy reads these variables once, when it is first
imported, so they are set here, before any test module loads it.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
