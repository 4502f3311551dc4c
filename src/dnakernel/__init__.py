"""Quantum and classical kernels for DNA sequence similarity regression.

The package implements a permutation-invariant variational quantum kernel
(statevector simulation, exact analytic gradients), an exact
edit-distance-with-moves solver used to label training data, and classical
neural-embedding kernel baselines of matched parameter budget.
"""

__version__ = "0.1.0"

from dnakernel.statevector import Statevector, zero_state
from dnakernel.circuits import KernelParams, feature_state
from dnakernel.kernel import kernel_eval
from dnakernel.edm import levenshtein, edm_exact

__all__ = [
    "Statevector",
    "zero_state",
    "KernelParams",
    "feature_state",
    "kernel_eval",
    "levenshtein",
    "edm_exact",
    "__version__",
]
