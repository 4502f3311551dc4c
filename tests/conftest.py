import sys

# dnakernel pins BLAS to one thread, as the CLI runs, but only if it is
# imported before numpy: a numpy-first test process would run every kernel
# with the BLAS library's default thread count instead
assert "numpy" not in sys.modules, "numpy was imported before the tests' conftest"
import dnakernel  # noqa: E402,F401
