"""The reference's gates on plain state vectors, against independently built
matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnakernel.circuits import (
    KernelParams,
    apply_gate,
    apply_param_layer,
    phase_matrix,
    ry_matrix,
    rz_matrix,
)
from dnakernel.kernel import kernel_eval


def random_state(rng, num_qubits):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amps / np.linalg.norm(amps)


def basis_state(num_qubits, index=0):
    state = np.zeros(2**num_qubits, dtype=np.complex128)
    state[index] = 1.0
    return state


def apply_ry(state, qubit, angle):
    return apply_gate(state, qubit, ry_matrix(angle))


def apply_rz(state, qubit, angle):
    return apply_gate(state, qubit, rz_matrix(angle))


def apply_phase(state, qubit, angle):
    return apply_gate(state, qubit, phase_matrix(angle))


def apply_rnx(state, angle):
    """R_NX alone: the trainable layer with its Rz and Ry angles at zero."""
    return apply_param_layer(state, (angle, 0.0, 0.0))


def kron_chain(mats):
    out = np.array([[1.0]], dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def one_qubit_unitary(num_qubits, qubit, matrix):
    """Full 2^n x 2^n matrix with ``matrix`` at tensor slot ``qubit``."""
    eye = np.eye(2, dtype=np.complex128)
    return kron_chain([matrix if q == qubit else eye for q in range(num_qubits)])


# independent definitions of the gate matrices, written out rather than
# imported, so the module under test cannot agree with itself by accident
def ry_ref(t):
    return np.array(
        [[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]],
        dtype=np.complex128,
    )


def rz_ref(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def phase_ref(t):
    return np.diag([1.0, np.exp(1j * t)]).astype(np.complex128)


def rnx_ref(num_qubits, t):
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    xn = kron_chain([x] * num_qubits)
    dim = 2**num_qubits
    return np.cos(t / 2) * np.eye(dim) - 1j * np.sin(t / 2) * xn


class TestRy:
    def test_identity(self):
        np.testing.assert_allclose(
            apply_ry(basis_state(1), 0, 0.0), [1, 0], atol=1e-15
        )

    def test_pi_flips(self):
        np.testing.assert_allclose(
            apply_ry(basis_state(1), 0, np.pi), [0, 1], atol=1e-15
        )

    def test_thymine_amplitudes(self):
        # Ry(2 arccos(1/sqrt 3)) |0> = (1/sqrt3, sqrt(2/3))
        ang = 2 * np.arccos(1 / np.sqrt(3))
        out = apply_ry(basis_state(1), 0, ang)
        np.testing.assert_allclose(
            out, [1 / np.sqrt(3), np.sqrt(2 / 3)], atol=1e-14
        )

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            apply_ry(basis_state(2), 2, 0.3)


class TestRz:
    def test_identity(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 2)
        np.testing.assert_allclose(
            apply_rz(s, 1, 0.0), s, atol=1e-15
        )

    def test_plus_state(self):
        s = np.array([1, 1], dtype=complex) / np.sqrt(2)
        out = apply_rz(s, 0, np.pi)
        expect = np.array([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)]) / np.sqrt(2)
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_global_phase_on_zero(self):
        out = apply_rz(basis_state(1), 0, 0.7)
        np.testing.assert_allclose(out[0], np.exp(-0.35j), atol=1e-15)
        assert out[1] == 0
        np.testing.assert_allclose(np.abs(out), [1, 0], atol=1e-15)


class TestPhase:
    def test_guanine_state(self):
        s = np.array([1 / np.sqrt(3), np.sqrt(2 / 3)], dtype=complex)
        out = apply_phase(s, 0, 2 * np.pi / 3)
        expect = [1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(2j * np.pi / 3)]
        np.testing.assert_allclose(out, expect, atol=1e-14)

    def test_cytosine_state(self):
        s = np.array([1 / np.sqrt(3), np.sqrt(2 / 3)], dtype=complex)
        out = apply_phase(s, 0, 4 * np.pi / 3)
        expect = [1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(4j * np.pi / 3)]
        np.testing.assert_allclose(out, expect, atol=1e-14)

    def test_identity(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        np.testing.assert_allclose(
            apply_phase(s, 2, 0.0), s, atol=1e-15
        )


class TestRnx:
    def test_one_qubit_pi(self):
        np.testing.assert_allclose(
            apply_rnx(basis_state(1), np.pi), [0, -1j], atol=1e-15
        )

    def test_identity(self):
        rng = np.random.default_rng(11)
        s = random_state(rng, 3)
        np.testing.assert_allclose(
            apply_rnx(s, 0.0), s, atol=1e-15
        )

    def test_two_qubit_coupling(self):
        t = 0.9
        out = apply_rnx(basis_state(2), t)
        expect = [np.cos(t / 2), 0, 0, -1j * np.sin(t / 2)]
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_reduces_to_rx_on_one_qubit(self):
        rng = np.random.default_rng(5)
        for t in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
            s = random_state(rng, 1)
            out = apply_rnx(s, t)
            rx = np.array(
                [
                    [np.cos(t / 2), -1j * np.sin(t / 2)],
                    [-1j * np.sin(t / 2), np.cos(t / 2)],
                ]
            )
            np.testing.assert_allclose(out, rx @ s, atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            s = random_state(rng, n)
            t = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            back = apply_rnx(apply_rnx(s, t), -t)
            np.testing.assert_allclose(back, s, atol=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            s = random_state(rng, n)
            t = float(rng.uniform(-np.pi, np.pi))
            np.testing.assert_allclose(
                apply_rnx(s, t),
                rnx_ref(n, t) @ s,
                atol=1e-12,
            )


class TestSingleQubitGatesAgainstKronOracle:
    """Each gate on each qubit must equal the explicit kron-built unitary."""

    @pytest.mark.parametrize(
        "apply_fn,ref_fn",
        [(apply_ry, ry_ref), (apply_rz, rz_ref), (apply_phase, phase_ref)],
    )
    def test_against_oracle(self, apply_fn, ref_fn):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            q = int(rng.integers(0, n))
            t = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            s = random_state(rng, n)
            full = one_qubit_unitary(n, q, ref_fn(t))
            np.testing.assert_allclose(
                apply_fn(s, q, t), full @ s, atol=1e-12
            )


class TestInnerProduct:
    def test_dimension_mismatch(self):
        # the overlap of a one-qubit and a two-qubit feature state is refused
        with pytest.raises(ValueError, match="mismatch"):
            kernel_eval("A", "AT", KernelParams(1, np.zeros((1, 3))))


def swap_qubits(state, i, j):
    """Exchange two qubits of the state (the SWAP_ij gate)."""
    if i == j:
        return state
    n = state.size.bit_length() - 1
    return np.swapaxes(state.reshape((2,) * n), i, j).reshape(-1)


class TestSwapQubits:
    def test_swap_basis(self):
        # |01> -> |10>
        s = basis_state(2, 1)
        out = swap_qubits(s, 0, 1)
        np.testing.assert_array_equal(out, [0, 0, 1, 0])

    def test_involution(self):
        rng = np.random.default_rng(31)
        s = random_state(rng, 4)
        out = swap_qubits(swap_qubits(s, 1, 3), 1, 3)
        np.testing.assert_allclose(out, s, atol=1e-15)

    def test_same_index_noop(self):
        rng = np.random.default_rng(37)
        s = random_state(rng, 3)
        assert swap_qubits(s, 2, 2) is s


def test_norm_preserved_over_1000_random_draws():
    """Every gate keeps the squared norm within 1e-12 of 1."""
    rng = np.random.default_rng(41)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        s = random_state(rng, n)
        t = float(rng.uniform(-4 * np.pi, 4 * np.pi))
        kind = rng.integers(0, 4)
        if kind == 0:
            out = apply_ry(s, int(rng.integers(0, n)), t)
        elif kind == 1:
            out = apply_rz(s, int(rng.integers(0, n)), t)
        elif kind == 2:
            out = apply_phase(s, int(rng.integers(0, n)), t)
        else:
            out = apply_rnx(s, t)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 6),
    angle=st.floats(-10.0, 10.0, allow_nan=False),
    data=st.data(),
)
def test_gates_are_unitary_property(seed, num_qubits, angle, data):
    """Applying a gate then its inverse returns the original state."""
    rng = np.random.default_rng(seed)
    s = random_state(rng, num_qubits)
    qubit = data.draw(st.integers(0, num_qubits - 1))
    gate = data.draw(st.sampled_from(["ry", "rz", "phase", "rnx"]))
    if gate == "ry":
        out = apply_ry(apply_ry(s, qubit, angle), qubit, -angle)
    elif gate == "rz":
        out = apply_rz(apply_rz(s, qubit, angle), qubit, -angle)
    elif gate == "phase":
        out = apply_phase(apply_phase(s, qubit, angle), qubit, -angle)
    else:
        out = apply_rnx(apply_rnx(s, angle), -angle)
    np.testing.assert_allclose(out, s, atol=1e-12)
