import os
import sys
import warnings

# one kernel call at a time on one core, as in perfbench: a BLAS pool of
# more threads only adds hand-off cost at these matrix sizes.  Set before
# numpy is first imported, or it has no effect.
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before bench/conftest.py; BLAS threads are not pinned")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
