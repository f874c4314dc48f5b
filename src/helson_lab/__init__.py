"""Desk-scale laboratory for Riesz-product Drury functions, moment-problem
measures, Helson-set spectral projectors, lacunary Riesz-product measures,
and Gaussian/Carleman diagnostics of stationary processes."""

import os
import sys

# The lab's own pool (tasks.run_tasks) owns the CPUs; OpenBLAS worker
# threads would only spin beside it.  OpenBLAS reads this once, when numpy
# loads, so the default only takes effect before anything imports numpy.  A
# value the user set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# what OpenBLAS read (None: unset, so OpenBLAS chose its own count)
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")

__version__ = "0.1.0"
