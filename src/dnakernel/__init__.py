"""Quantum and classical kernels for DNA sequence similarity regression.

The package implements a permutation-invariant variational quantum kernel
(statevector simulation, exact analytic gradients), an exact
edit-distance-with-moves solver used to label training data, and classical
neural-embedding kernel baselines of matched parameter budget. The circuit
is simulated by one batched engine (kernel); circuits holds its encoding and
parameters and a gate-by-gate reference the engine is checked against.
"""

import os

# The kernels' matrix products are too small to gain from BLAS threads, and
# each worker process of a pool would start its own: one thread per process
# unless the caller says otherwise. BLAS reads these when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
