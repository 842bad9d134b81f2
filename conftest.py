"""Pytest set-up shared by tests/ and perfbench/.

BLAS runs one thread in the test process, so the suite's time does not
depend on how busy the machine is: two BLAS threads that wait on each
other under load made the acceptance tests several times slower. The
variables must be set before numpy is first imported, which is why this
happens here, at conftest load. Child processes that a test starts with
an explicit environment (the BLAS thread-count checks in
tests/test_cli.py) still run at the count they ask for.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
