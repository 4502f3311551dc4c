"""Encoding states, trainable layers, and their permutation behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_statevector import basis_state, random_state, swap_qubits

from dnakernel.circuits import (
    ALPHABET,
    LETTER_ANGLES,
    KernelParams,
    apply_encoding_layer,
    apply_param_layer,
    check_letters,
    feature_state,
    validate_sequence,
)
from dnakernel.edm import edm_exact, exact_distances, levenshtein, pair_bounds
from dnakernel.kernel import encode_sequences

TILT = 2 * np.arccos(1 / np.sqrt(3))

# encoded single-qubit states written straight from their amplitudes,
# kept independent of the circuit construction under test
REF_STATES = {
    "A": np.array([1.0, 0.0], dtype=complex),
    "T": np.array([1 / np.sqrt(3), np.sqrt(2 / 3)], dtype=complex),
    "G": np.array([1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(2j * np.pi / 3)]),
    "C": np.array([1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(4j * np.pi / 3)]),
}

sequences = st.text(alphabet=ALPHABET, min_size=1, max_size=6)


def random_params(rng, num_layers):
    return KernelParams(num_layers, rng.uniform(-np.pi, np.pi, size=(num_layers, 3)))


def letter_angles(base):
    """(tilt, phase) of a base, read from its row of LETTER_ANGLES."""
    return tuple(LETTER_ANGLES[ALPHABET.index(base)])


class TestBaseAngles:
    def test_adenine_needs_no_gate(self):
        assert letter_angles("A") == (0.0, 0.0)

    def test_thymine(self):
        ry, ph = letter_angles("T")
        assert abs(ry - TILT) < 1e-15 and ph == 0.0

    def test_guanine(self):
        ry, ph = letter_angles("G")
        assert abs(ry - TILT) < 1e-15 and abs(ph - 2 * np.pi / 3) < 1e-15

    def test_cytosine(self):
        ry, ph = letter_angles("C")
        assert abs(ry - TILT) < 1e-15 and abs(ph - 4 * np.pi / 3) < 1e-15

    def test_table_is_read_only(self):
        assert LETTER_ANGLES.shape == (len(ALPHABET), 2)
        with pytest.raises(ValueError, match="read-only"):
            LETTER_ANGLES[0, 0] = 1.0

    @pytest.mark.parametrize("base", ALPHABET)
    def test_base_state_matches_reference(self, base):
        state = apply_encoding_layer(basis_state(1), base)
        np.testing.assert_allclose(state, REF_STATES[base], atol=1e-14)


def test_sic_pairwise_overlaps_are_one_third():
    """All six unordered base pairs overlap with |<a|b>|^2 = 1/3."""
    for a, b in itertools.combinations(ALPHABET, 2):
        state_b = apply_encoding_layer(basis_state(1), b)
        ov = abs(np.vdot(REF_STATES[a], state_b)) ** 2
        assert abs(ov - 1 / 3) < 1e-12, (a, b, ov)


class TestValidateSequence:
    def test_accepts_alphabet(self):
        assert validate_sequence("ATGCATGC") == "ATGCATGC"

    def test_rejects_bad_symbol(self):
        with pytest.raises(ValueError, match="outside"):
            validate_sequence("ATXG")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            validate_sequence("")


# every public entry that takes strings, with the string under test in each
# position it can take
STRING_ENTRIES = {
    "encode_sequences": lambda s: encode_sequences([s]),
    "encode_sequences_second": lambda s: encode_sequences(["AT", s]),
    "pair_bounds_x": lambda s: pair_bounds([s], ["AT"]),
    "pair_bounds_y": lambda s: pair_bounds(["AT"], [s]),
    "edm_exact_x": lambda s: edm_exact(s, "AT"),
    "edm_exact_y": lambda s: edm_exact("AT", s),
    "edm_exact_bounds": lambda s: edm_exact(s, "AT", bounds=(2, 0)),
    "exact_distances": lambda s: exact_distances(["AT", s], ["AT", "GCA"]),
    "levenshtein_x": lambda s: levenshtein(s, "AT"),
    "levenshtein_y": lambda s: levenshtein("AT", s),
    "validate_sequence": validate_sequence,
}


class TestCodec:
    """The one nucleotide codec in circuits, as every entry sees it."""

    @pytest.mark.parametrize("entry", STRING_ENTRIES)
    def test_bad_symbol_has_one_text(self, entry):
        for check in (check_letters, STRING_ENTRIES[entry]):
            with pytest.raises(ValueError) as err:
                check("AX")
            assert str(err.value) == "sequence 'AX' contains symbols outside ATGC: ['X']"

    @pytest.mark.parametrize("entry", STRING_ENTRIES)
    @pytest.mark.parametrize("value", [5, None, b"AT", ["A", "T"]], ids=repr)
    def test_non_string_refused(self, entry, value):
        with pytest.raises(ValueError):
            STRING_ENTRIES[entry](value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch in batch: 3 vs 2"):
            encode_sequences(["AT", "ATG"])
        # edit distances take strings of any lengths, the empty one included
        assert [u.tolist() for u in pair_bounds(["AT", ""], ["ATG", "A"])] == [[1, 1], [1, 1]]
        assert edm_exact("AT", "ATG") == levenshtein("AT", "ATG") == 1
        assert check_letters("") == ""


class TestEncodingLayer:
    def test_adenine_only(self):
        out = apply_encoding_layer(basis_state(1), "A")
        np.testing.assert_allclose(out, [1, 0], atol=1e-15)

    def test_guanine(self):
        out = apply_encoding_layer(basis_state(1), "G")
        np.testing.assert_allclose(out, REF_STATES["G"], atol=1e-14)

    def test_product_structure(self):
        out = apply_encoding_layer(basis_state(2), "AT")
        np.testing.assert_allclose(
            out, np.kron(REF_STATES["A"], REF_STATES["T"]), atol=1e-14
        )

    def test_kron_product_for_random_sequences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            out = apply_encoding_layer(basis_state(n), seq)
            expect = np.array([1.0], dtype=complex)
            for ch in seq:
                expect = np.kron(expect, REF_STATES[ch])
            np.testing.assert_allclose(out, expect, atol=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_encoding_layer(basis_state(3), "AT")

    def test_encoding_covariance_under_swaps(self):
        # encoding the swapped sequence = swap conjugation of the encoder
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            i, j = rng.choice(n, size=2, replace=False)
            swapped = list(seq)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            s = random_state(rng, n)
            lhs = apply_encoding_layer(s, "".join(swapped))
            rhs = swap_qubits(apply_encoding_layer(swap_qubits(s, i, j), seq), i, j)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestParamLayer:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        out = apply_param_layer(s, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(out, s, atol=1e-14)

    def test_rnx_only(self):
        t = 1.3
        out = apply_param_layer(basis_state(2), (t, 0.0, 0.0))
        np.testing.assert_allclose(
            out, [np.cos(t / 2), 0, 0, -1j * np.sin(t / 2)], atol=1e-14
        )

    def test_swap_invariance(self):
        """The layer commutes with every qubit-pair SWAP."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            angles = tuple(rng.uniform(-np.pi, np.pi, size=3))
            i, j = rng.choice(n, size=2, replace=False)
            s = random_state(rng, n)
            lhs = apply_param_layer(swap_qubits(s, i, j), angles)
            rhs = swap_qubits(apply_param_layer(s, angles), i, j)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_gate_order_rnx_then_rz_then_ry(self):
        # one qubit, pinned against the explicit matrix product Ry Rz Rnx
        rng = np.random.default_rng(5)
        a, b, c = rng.uniform(-np.pi, np.pi, size=3)
        s = random_state(rng, 1)
        rx = np.array(
            [[np.cos(a / 2), -1j * np.sin(a / 2)], [-1j * np.sin(a / 2), np.cos(a / 2)]]
        )
        rz = np.diag([np.exp(-0.5j * b), np.exp(0.5j * b)])
        ry = np.array([[np.cos(c / 2), -np.sin(c / 2)], [np.sin(c / 2), np.cos(c / 2)]])
        out = apply_param_layer(s, (a, b, c))
        np.testing.assert_allclose(out, ry @ rz @ rx @ s, atol=1e-13)


class TestKernelParams:
    @pytest.mark.parametrize("layers,count", [(24, 72), (12, 36), (6, 18)])
    def test_parameter_counts(self, layers, count):
        params = KernelParams.from_flat(np.zeros(count))
        assert params.num_layers == layers
        assert params.flat().shape == (count,)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            KernelParams(2, np.zeros((3, 3)))

    def test_layer_count_validation(self):
        with pytest.raises(ValueError, match="num_layers"):
            KernelParams(0, np.zeros((0, 3)))

    def test_flat_round_trip(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, 5)
        q = KernelParams.from_flat(p.flat())
        np.testing.assert_array_equal(p.angles, q.angles)

    def test_from_flat_rejects_bad_length(self):
        with pytest.raises(ValueError, match="3L"):
            KernelParams.from_flat(np.zeros(7))

    def test_random_init_range(self):
        rng = np.random.default_rng(7)
        p = KernelParams.random(200, rng)
        assert np.all(p.angles > -np.pi) and np.all(p.angles <= np.pi)
        # spread should cover the interval, not cluster
        assert p.angles.std() > 1.0


class TestFeatureState:
    def test_zero_angles_is_encoding_only(self):
        out = feature_state("AT", KernelParams(1, np.zeros((1, 3))))
        np.testing.assert_allclose(
            out, np.kron(REF_STATES["A"], REF_STATES["T"]), atol=1e-14
        )

    def test_single_adenine_identity_chain(self):
        out = feature_state("A", KernelParams(1, np.zeros((1, 3))))
        np.testing.assert_allclose(out, [1, 0], atol=1e-15)

    def test_norm_one_for_100_random_draws(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            layers = int(rng.integers(1, 5))
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            out = feature_state(seq, random_params(rng, layers))
            assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12

    def test_layers_applied_in_order(self):
        # L=2 must differ from L=1 twice when angles differ per layer
        rng = np.random.default_rng(10)
        p2 = random_params(rng, 2)
        p_first = KernelParams(1, p2.angles[:1])
        manual = feature_state("GT", p_first)
        manual = apply_param_layer(manual, p2.angles[1])
        manual = apply_encoding_layer(manual, "GT")
        out = feature_state("GT", p2)
        np.testing.assert_allclose(out, manual, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(seq=sequences, seed=st.integers(0, 2**31), layers=st.integers(1, 3))
def test_feature_state_swap_covariance_property(seq, seed, layers):
    """Permuting the input sequence permutes the register, nothing else."""
    if len(seq) < 2:
        return
    rng = np.random.default_rng(seed)
    params = random_params(rng, layers)
    i, j = sorted(rng.choice(len(seq), size=2, replace=False))
    swapped = list(seq)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    lhs = feature_state("".join(swapped), params)
    rhs = swap_qubits(feature_state(seq, params), i, j)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)
