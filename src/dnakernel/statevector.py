"""Dense pure-state simulator for the small gate set used by the kernel circuits.

Amplitude indexing convention: qubit 0 is the most significant bit of the
amplitude index, so an n-qubit basis state |b0 b1 ... b_{n-1}> sits at index
b0*2^(n-1) + ... + b_{n-1}, and tensor products compose in np.kron order
(qubit 0 leftmost). Reshaping amplitudes to (2,)*n puts qubit q on axis q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12
NORM_ATOL = 1e-12


@dataclass(frozen=True)
class Statevector:
    """Unit-norm complex amplitude vector over ``num_qubits`` qubits.

    Construction validates the qubit count, the amplitude length, and the
    norm; every gate function returns a freshly validated instance, so a
    Statevector in hand is always a physical state.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in 1..{MAX_QUBITS}, got {self.num_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


def zero_state(num_qubits: int) -> Statevector:
    """All-zeros computational basis state |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(num_qubits, amps)


def _check_qubit(state: Statevector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(
            f"qubit index {qubit} out of range for {state.num_qubits} qubits"
        )


def _apply_one_qubit(state: Statevector, qubit: int, matrix: np.ndarray) -> Statevector:
    """Apply a 2x2 matrix to one qubit, leaving the rest untouched."""
    _check_qubit(state, qubit)
    t = state.amplitudes.reshape((2,) * state.num_qubits)
    t = np.moveaxis(t, qubit, 0)
    out = np.tensordot(matrix, t, axes=([1], [0]))
    out = np.moveaxis(out, 0, qubit)
    return Statevector(state.num_qubits, out.reshape(-1))


def ry_matrix(angle: float) -> np.ndarray:
    """Ry(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz_matrix(angle: float) -> np.ndarray:
    """Rz(theta) = diag(e^{-i t/2}, e^{i t/2})."""
    return np.array(
        [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]],
        dtype=np.complex128,
    )


def phase_matrix(angle: float) -> np.ndarray:
    """P(phi) = diag(1, e^{i phi})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * angle)]], dtype=np.complex128)


def apply_ry(state: Statevector, qubit: int, angle: float) -> Statevector:
    """Rotate one qubit about Y by ``angle``."""
    return _apply_one_qubit(state, qubit, ry_matrix(angle))


def apply_rz(state: Statevector, qubit: int, angle: float) -> Statevector:
    """Rotate one qubit about Z by ``angle``."""
    return _apply_one_qubit(state, qubit, rz_matrix(angle))


def apply_phase(state: Statevector, qubit: int, angle: float) -> Statevector:
    """Multiply the |1> component of one qubit by e^{i angle}."""
    return _apply_one_qubit(state, qubit, phase_matrix(angle))


def apply_rnx(state: Statevector, angle: float) -> Statevector:
    """Apply exp(-i angle/2 X^(x)n) across all qubits of the state.

    X on every qubit simultaneously is the bit-complement permutation, and
    i XOR (2^n - 1) = 2^n - 1 - i, so the complemented amplitudes are just
    the array reversed.
    """
    c = np.cos(angle / 2)
    s = np.sin(angle / 2)
    amps = c * state.amplitudes - 1j * s * state.amplitudes[::-1]
    return Statevector(state.num_qubits, amps)


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b> = sum_i conj(a_i) b_i."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
