"""The permutation-invariant kernel circuit, its gate-by-gate reference, and
the nucleotide codec every module that takes strings goes through.

Each nucleotide is written into its own qubit as one of the four single-qubit
SIC states (a regular tetrahedron on the Bloch sphere, pairwise squared
overlap 1/3), Ry(tilt) then P(phase) on |0> with its row of ``LETTER_ANGLES``,
the one table of the encoding. The trainable layer shares its three angles
across all qubits: an entangling rotation generated by X on every qubit,
followed by Rz and Ry on each qubit. Because every constituent commutes with
qubit swaps, the whole circuit is insensitive to applying the same position
permutation to its input sequence and its qubit register.

The functions from ``ry_matrix`` on simulate the circuit one gate at a time
on plain complex128 vectors of 2^n amplitudes. They are the readable
reference the batched engine (dnakernel.kernel) is checked against, and they
call nothing of it. Amplitude indexing: qubit 0 is the most significant bit
of the amplitude index, so |b0 b1 ... b_{n-1}> sits at index
b0*2^(n-1) + ... + b_{n-1}, tensor products compose in np.kron order (qubit
0 leftmost), and the (2,)*n view of a state puts qubit q on axis q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHABET = "ATGC"
# byte -> base code (index into ALPHABET); every other byte maps past the end
BYTE_CODES = np.full(256, len(ALPHABET), dtype=np.uint8)
BYTE_CODES[list(ALPHABET.encode("ascii"))] = np.arange(len(ALPHABET))
# base code -> ASCII byte of its letter
LETTER_BYTES = np.frombuffer(ALPHABET.encode("ascii"), np.uint8)

# Ry angle taking |0> to sqrt(1/3)|0> + sqrt(2/3)|1>, shared by T, G, C
_TILT = 2 * np.arccos(1 / np.sqrt(3))
# (tilt, phase) per base code: Ry(tilt) then P(phase) takes |0> to the base's
# SIC state. A stays at |0>; T, G, C share one tilt, at azimuths 0, 2pi/3, 4pi/3
LETTER_ANGLES = np.array([(0.0, 0.0), (_TILT, 0.0), (_TILT, 2 * np.pi / 3), (_TILT, 4 * np.pi / 3)])
LETTER_ANGLES.flags.writeable = False


def check_letters(s) -> str:
    """Check that ``s`` is a string, of any length, over the nucleotide alphabet."""
    if not isinstance(s, str):
        raise ValueError(f"expected a string, got {type(s).__name__}")
    if s.strip(ALPHABET):  # empty exactly when every symbol is in ALPHABET
        bad = set(s) - set(ALPHABET)
        raise ValueError(f"sequence {s!r} contains symbols outside {ALPHABET}: {sorted(bad)}")
    return s


def validate_sequence(seq: str) -> str:
    """Check that ``seq`` is a nonempty string over the nucleotide alphabet."""
    if not isinstance(seq, str) or len(seq) == 0:
        raise ValueError(f"sequence must be a nonempty string, got {seq!r}")
    return check_letters(seq)


def encode(strings, length: int) -> np.ndarray:
    """(len(strings), length) uint8 base codes of length-``length`` strings.

    The joined strings go through one byte-table lookup ("replace" keeps one
    byte per character). Only a batch that fails it is checked string by
    string, so the error names the first bad string.
    """
    try:
        codes = BYTE_CODES[np.frombuffer("".join(strings).encode("ascii", "replace"), np.uint8)]
        valid = set(map(len, strings)) <= {length} and not (codes >= len(ALPHABET)).any()
    except TypeError:  # a non-string among the strings
        valid = False
    if not valid:
        for s in strings:
            check_letters(s)
            if len(s) != length:
                raise ValueError(f"sequence length mismatch in batch: {len(s)} vs {length}")
    return codes.reshape(len(strings), length)


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


def apply_gate(state: np.ndarray, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of a state, leaving the rest untouched."""
    n = state.size.bit_length() - 1
    out = np.tensordot(matrix, state.reshape((2,) * n), axes=([1], [qubit]))
    return np.moveaxis(out, 0, qubit).reshape(-1)


def apply_encoding_layer(state: np.ndarray, seq: str) -> np.ndarray:
    """Write ``seq`` into the register: Ry then P on qubit i for base seq[i].

    Purely local (no entangling gates), so it commutes with applying the same
    permutation to the sequence and to the qubits.
    """
    validate_sequence(seq)
    if state.size != 1 << len(seq):
        raise ValueError(
            f"sequence length {len(seq)} does not match a register of "
            f"{state.size} amplitudes"
        )
    for i, base in enumerate(seq):
        ry, ph = LETTER_ANGLES[ALPHABET.index(base)]
        state = apply_gate(apply_gate(state, i, ry_matrix(ry)), i, phase_matrix(ph))
    return state


def apply_param_layer(state: np.ndarray, layer_angles) -> np.ndarray:
    """One trainable layer: R_NX(t1) on all qubits, then Rz(t2) and Ry(t3)
    on every qubit, the same two angles shared across the register.

    R_NX = exp(-i t1/2 X^n) = cos(t1/2) - i sin(t1/2) X^n, and X on every
    qubit complements the index, i XOR (2^n - 1) = 2^n - 1 - i: the
    amplitudes reversed.
    """
    t_rnx, t_rz, t_ry = (float(a) for a in layer_angles)
    state = np.cos(t_rnx / 2) * state - 1j * np.sin(t_rnx / 2) * state[::-1]
    for matrix in (rz_matrix(t_rz), ry_matrix(t_ry)):
        for q in range(state.size.bit_length() - 1):
            state = apply_gate(state, q, matrix)
    return state


def feature_state(seq: str, params: KernelParams) -> np.ndarray:
    """Feature state of a sequence under the data re-uploading circuit, as
    a complex128 vector.

    Starting from |0...0>, each layer l applies the trainable layer with
    row l of ``params.angles`` and then re-encodes the sequence.
    """
    validate_sequence(seq)
    state = np.zeros(1 << len(seq), dtype=np.complex128)
    state[0] = 1.0
    for layer in params.angles:
        state = apply_encoding_layer(apply_param_layer(state, layer), seq)
    return state
