"""Statevector simulator tests against independently built matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnakernel.statevector import (
    MAX_QUBITS,
    Statevector,
    apply_phase,
    apply_rnx,
    apply_ry,
    apply_rz,
    inner_product,
    zero_state,
)


def random_state(rng, num_qubits):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    amps /= np.linalg.norm(amps)
    return Statevector(num_qubits, amps)


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


class TestZeroState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_eight_qubits(self):
        s = zero_state(8)
        assert s.amplitudes.shape == (256,)
        assert s.amplitudes[0] == 1
        assert np.count_nonzero(s.amplitudes) == 1

    @pytest.mark.parametrize("bad", [0, -1, MAX_QUBITS + 1])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            zero_state(bad)


class TestStatevectorValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            Statevector(2, np.array([1.0, 0.0]))

    def test_non_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            Statevector(1, np.array([1.0, 1.0]))

    def test_dim(self):
        assert zero_state(3).dim == 8


class TestRy:
    def test_identity(self):
        np.testing.assert_allclose(
            apply_ry(zero_state(1), 0, 0.0).amplitudes, [1, 0], atol=1e-15
        )

    def test_pi_flips(self):
        np.testing.assert_allclose(
            apply_ry(zero_state(1), 0, np.pi).amplitudes, [0, 1], atol=1e-15
        )

    def test_thymine_amplitudes(self):
        # Ry(2 arccos(1/sqrt 3)) |0> = (1/sqrt3, sqrt(2/3))
        ang = 2 * np.arccos(1 / np.sqrt(3))
        out = apply_ry(zero_state(1), 0, ang)
        np.testing.assert_allclose(
            out.amplitudes, [1 / np.sqrt(3), np.sqrt(2 / 3)], atol=1e-14
        )

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_ry(zero_state(2), 2, 0.3)


class TestRz:
    def test_identity(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 2)
        np.testing.assert_allclose(
            apply_rz(s, 1, 0.0).amplitudes, s.amplitudes, atol=1e-15
        )

    def test_plus_state(self):
        s = Statevector(1, np.array([1, 1]) / np.sqrt(2))
        out = apply_rz(s, 0, np.pi)
        expect = np.array([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)]) / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)

    def test_global_phase_on_zero(self):
        out = apply_rz(zero_state(1), 0, 0.7)
        np.testing.assert_allclose(out.amplitudes[0], np.exp(-0.35j), atol=1e-15)
        assert out.amplitudes[1] == 0
        np.testing.assert_allclose(np.abs(out.amplitudes), [1, 0], atol=1e-15)


class TestPhase:
    def test_guanine_state(self):
        s = Statevector(1, np.array([1 / np.sqrt(3), np.sqrt(2 / 3)]))
        out = apply_phase(s, 0, 2 * np.pi / 3)
        expect = [1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(2j * np.pi / 3)]
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-14)

    def test_cytosine_state(self):
        s = Statevector(1, np.array([1 / np.sqrt(3), np.sqrt(2 / 3)]))
        out = apply_phase(s, 0, 4 * np.pi / 3)
        expect = [1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(4j * np.pi / 3)]
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-14)

    def test_identity(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        np.testing.assert_allclose(
            apply_phase(s, 2, 0.0).amplitudes, s.amplitudes, atol=1e-15
        )


class TestRnx:
    def test_one_qubit_pi(self):
        np.testing.assert_allclose(
            apply_rnx(zero_state(1), np.pi).amplitudes, [0, -1j], atol=1e-15
        )

    def test_identity(self):
        rng = np.random.default_rng(11)
        s = random_state(rng, 3)
        np.testing.assert_allclose(
            apply_rnx(s, 0.0).amplitudes, s.amplitudes, atol=1e-15
        )

    def test_two_qubit_coupling(self):
        t = 0.9
        out = apply_rnx(zero_state(2), t)
        expect = [np.cos(t / 2), 0, 0, -1j * np.sin(t / 2)]
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)

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
            np.testing.assert_allclose(out.amplitudes, rx @ s.amplitudes, atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            s = random_state(rng, n)
            t = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            back = apply_rnx(apply_rnx(s, t), -t)
            np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            s = random_state(rng, n)
            t = float(rng.uniform(-np.pi, np.pi))
            np.testing.assert_allclose(
                apply_rnx(s, t).amplitudes,
                rnx_ref(n, t) @ s.amplitudes,
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
                apply_fn(s, q, t).amplitudes, full @ s.amplitudes, atol=1e-12
            )


class TestInnerProduct:
    def test_self_is_one(self):
        rng = np.random.default_rng(19)
        s = random_state(rng, 4)
        assert abs(inner_product(s, s) - 1.0) < 1e-12

    def test_orthogonal(self):
        one = Statevector(1, np.array([0.0, 1.0]))
        assert inner_product(zero_state(1), one) == 0

    def test_adenine_thymine_overlap(self):
        t = Statevector(1, np.array([1 / np.sqrt(3), np.sqrt(2 / 3)]))
        assert abs(inner_product(zero_state(1), t) - 1 / np.sqrt(3)) < 1e-14

    def test_conjugates_first_argument(self):
        a = Statevector(1, np.array([1, 1j]) / np.sqrt(2))
        b = Statevector(1, np.array([1.0, 0.0]))
        # <a|b> = conj(1/sqrt2)*1 = 1/sqrt2; <b|a> = 1/sqrt2 as well, but
        # <a| i|1> picks up the conjugate
        c = Statevector(1, np.array([0.0, 1.0]))
        assert abs(inner_product(a, c) - (-1j / np.sqrt(2))) < 1e-14
        assert abs(inner_product(c, a) - (1j / np.sqrt(2))) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(zero_state(1), zero_state(2))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a, b = random_state(rng, n), random_state(rng, n)
            assert abs(inner_product(a, b)) <= 1 + 1e-12


def swap_qubits(state, i, j):
    """Exchange two qubits of the state (the SWAP_ij gate)."""
    if i == j:
        return state
    t = np.swapaxes(state.amplitudes.reshape((2,) * state.num_qubits), i, j)
    return Statevector(state.num_qubits, t.reshape(-1))


class TestSwapQubits:
    def test_swap_basis(self):
        # |01> -> |10>
        s = Statevector(2, np.array([0.0, 1.0, 0.0, 0.0]))
        out = swap_qubits(s, 0, 1)
        np.testing.assert_array_equal(out.amplitudes, [0, 0, 1, 0])

    def test_involution(self):
        rng = np.random.default_rng(31)
        s = random_state(rng, 4)
        out = swap_qubits(swap_qubits(s, 1, 3), 1, 3)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

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
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12


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
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)
