"""Quantum and classical kernels for DNA sequence similarity regression.

The package implements a permutation-invariant variational quantum kernel
(statevector simulation, exact analytic gradients), an exact
edit-distance-with-moves solver used to label training data, and classical
neural-embedding kernel baselines of matched parameter budget.
"""

__version__ = "0.1.0"
