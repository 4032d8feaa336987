"""One BLAS thread for every test, as the benchmark runs.

The bitwise digests in the tests hold at one thread count only: a GEMM
may round differently when its work is split between threads. These
variables are read when numpy loads, so they are set before any test
module imports it.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
