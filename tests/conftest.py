"""One BLAS thread for every test, as the benchmark runs.

A GEMM may round differently when its work is split between threads.
The study and test-result digests (``tests/test_golden.py``) are also
checked at two BLAS threads, each in a fresh interpreter; ``DIAGNOSE_SHA256``
and ``REPORT_VALUES_SHA256`` are pinned at one thread only. These variables
are read when numpy loads, so they are set before any test module imports
it.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
