"""Encoding and parameterized layers of the permutation-invariant kernel circuit.

Each nucleotide is written into its own qubit as one of the four single-qubit
SIC states (a regular tetrahedron on the Bloch sphere, pairwise squared
overlap 1/3). The trainable layer shares its three angles across all qubits:
an entangling rotation generated by X on every qubit, followed by Rz and Ry
on each qubit. Because every constituent commutes with qubit swaps, the whole
circuit is insensitive to applying the same position permutation to its input
sequence and its qubit register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnakernel.statevector import (
    Statevector,
    apply_phase,
    apply_rnx,
    apply_ry,
    apply_rz,
    zero_state,
)

ALPHABET = "ATGC"
# byte -> base code (index into ALPHABET); every other byte maps past the end
BYTE_CODES = np.full(256, len(ALPHABET), dtype=np.uint8)
BYTE_CODES[list(ALPHABET.encode("ascii"))] = np.arange(len(ALPHABET))

# Ry angle taking |0> to sqrt(1/3)|0> + sqrt(2/3)|1>, shared by T, G, C
_TILT = 2 * np.arccos(1 / np.sqrt(3))

_BASE_ANGLES = {
    "A": (0.0, 0.0),
    "T": (_TILT, 0.0),
    "G": (_TILT, 2 * np.pi / 3),
    "C": (_TILT, 4 * np.pi / 3),
}


def validate_sequence(seq: str) -> str:
    """Check that ``seq`` is a nonempty string over the nucleotide alphabet."""
    if not isinstance(seq, str) or len(seq) == 0:
        raise ValueError(f"sequence must be a nonempty string, got {seq!r}")
    bad = set(seq) - set(ALPHABET)
    if bad:
        raise ValueError(
            f"sequence {seq!r} contains symbols outside {ALPHABET}: {sorted(bad)}"
        )
    return seq


def base_angles(base: str) -> tuple[float, float]:
    """Rotation angles (ry_angle, phase_angle) preparing the SIC state of a base.

    Applying Ry(ry_angle) then P(phase_angle) to |0> produces the encoded
    single-qubit state: A stays at |0>, and T, G, C share one polar tilt with
    azimuthal phases 0, 2pi/3, 4pi/3.
    """
    try:
        return _BASE_ANGLES[base]
    except KeyError:
        raise ValueError(f"unknown nucleotide symbol {base!r}") from None


@dataclass(frozen=True)
class KernelParams:
    """Trainable angles of the kernel circuit: ``num_layers`` rows of
    (theta_rnx, theta_rz, theta_ry).

    The flattened row-major view of ``angles`` is the canonical parameter
    ordering used by gradients and checkpoints.
    """

    num_layers: int
    angles: np.ndarray

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        angles = np.asarray(self.angles, dtype=np.float64)
        if angles.shape != (self.num_layers, 3):
            raise ValueError(
                f"expected angles of shape ({self.num_layers}, 3), "
                f"got {angles.shape}"
            )
        object.__setattr__(self, "angles", angles)

    def flat(self) -> np.ndarray:
        return self.angles.reshape(-1).copy()

    @classmethod
    def from_flat(cls, flat) -> "KernelParams":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size % 3 != 0 or flat.size == 0:
            raise ValueError(f"flat parameter vector must have length 3L, got {flat.shape}")
        return cls(flat.size // 3, flat.reshape(-1, 3))

    @classmethod
    def random(cls, num_layers: int, rng: np.random.Generator) -> "KernelParams":
        """Uniform initialization over (-pi, pi] for every angle."""
        angles = np.pi - rng.uniform(0.0, 2 * np.pi, size=(num_layers, 3))
        return cls(num_layers, angles)


def apply_encoding_layer(state: Statevector, seq: str) -> Statevector:
    """Write ``seq`` into the register: Ry then P on qubit i for base seq[i].

    Purely local (no entangling gates), so it commutes with applying the same
    permutation to the sequence and to the qubits.
    """
    validate_sequence(seq)
    if len(seq) != state.num_qubits:
        raise ValueError(
            f"sequence length {len(seq)} does not match register of "
            f"{state.num_qubits} qubits"
        )
    for i, base in enumerate(seq):
        ry, ph = base_angles(base)
        state = apply_ry(state, i, ry)
        state = apply_phase(state, i, ph)
    return state


def apply_param_layer(state: Statevector, layer_angles) -> Statevector:
    """One trainable layer: R_NX(t1) on all qubits, then Rz(t2) and Ry(t3)
    on every qubit, the same two angles shared across the register.
    """
    t_rnx, t_rz, t_ry = (float(a) for a in layer_angles)
    state = apply_rnx(state, t_rnx)
    for q in range(state.num_qubits):
        state = apply_rz(state, q, t_rz)
    for q in range(state.num_qubits):
        state = apply_ry(state, q, t_ry)
    return state


def feature_state(seq: str, params: KernelParams) -> Statevector:
    """Feature state of a sequence under the data re-uploading circuit.

    Starting from |0...0>, each layer l applies the trainable layer with
    row l of ``params.angles`` and then re-encodes the sequence.
    """
    validate_sequence(seq)
    state = zero_state(len(seq))
    for layer in params.angles:
        state = apply_param_layer(state, layer)
        state = apply_encoding_layer(state, seq)
    return state
