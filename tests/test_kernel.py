"""Kernel values and gradients against finite differences and the slow route.

The finite-difference oracle below drives kernel_eval, the gate-by-gate
reference path, so gradient checks exercise the batched engine against a
fully independent computation.
"""

import ast
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnakernel
from dnakernel import kernel, training
from dnakernel.baselines import ClassicalKernelModel
from dnakernel.circuits import (
    ALPHABET,
    LETTER_ANGLES,
    KernelParams,
    feature_state,
    phase_matrix,
    ry_matrix,
)
from dnakernel.dataset import load_triplets
from dnakernel.kernel import (
    VALUE_BYTES,
    _compositions,
    _forward,
    _gather,
    _sweep,
    _tilt_table,
    _transpose,
    QuantumKernelModel,
    encode_sequences,
    kernel_eval,
    kernel_values,
)
from dnakernel.training import pairs_from_triplets

ACCEPT_DIR = Path(__file__).resolve().parents[1] / "results" / "acceptance"
FD_STEP = 1e-5
# relative error for sizable components; floors to 1e-7 absolute near zero
FD_RTOL = 1e-5
FD_FLOOR = 1e-2


def fd_gradient(x, y, params, step=FD_STEP):
    """Central finite differences of kernel_eval over the flat parameters."""
    flat = params.flat()
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[k] += step
        dn[k] -= step
        grad[k] = (
            kernel_eval(x, y, KernelParams.from_flat(up))
            - kernel_eval(x, y, KernelParams.from_flat(dn))
        ) / (2 * step)
    return grad


def assert_gradient_close(analytic, fd):
    np.testing.assert_array_less(
        np.abs(analytic - fd), FD_RTOL * np.maximum(np.abs(fd), FD_FLOOR) + 1e-300
    )


def layer_tables(codes, params):
    """_forward's parameter tables for a batch of codes."""
    return (kernel._rotations(codes, params), *kernel._rnx_rz(params, codes.shape[1]))


def feature_states(codes, params):
    """Batched feature states, one row per sequence, from one pass through a
    ring of two states."""
    codes = np.asarray(codes)
    ring = np.empty((5, len(codes), 1 << codes.shape[1]), np.complex128)
    return _forward(codes, params, ring[:2], ring[2:], layer_tables(codes, params))


def kernel_gradient(x, y, params):
    """Engine gradient of one pair, ordered like KernelParams.flat()."""
    model = QuantumKernelModel(len(x), params.num_layers)
    _, grads = model.kernel_and_grad_batch(
        params.flat(), encode_sequences([x]), encode_sequences([y]))
    return grads[0]


def random_seq(rng, n):
    return "".join(rng.choice(list(ALPHABET), size=n))


def random_params(rng, layers):
    return KernelParams(layers, rng.uniform(-np.pi, np.pi, size=(layers, 3)))


class TestKernelEval:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            seq = random_seq(rng, n)
            params = random_params(rng, int(rng.integers(1, 4)))
            assert abs(kernel_eval(seq, seq, params) - 1.0) < 1e-12

    def test_sic_overlap_single_mismatch(self):
        # zero angles, L=1: product of per-position SIC overlaps
        assert abs(kernel_eval("AT", "AA", KernelParams(1, np.zeros((1, 3)))) - 1 / 3) < 1e-12

    def test_sic_overlap_two_mismatches(self):
        assert abs(kernel_eval("ATGC", "TAGC", KernelParams(1, np.zeros((1, 3)))) - 1 / 9) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            x, y = random_seq(rng, n), random_seq(rng, n)
            params = random_params(rng, int(rng.integers(1, 4)))
            assert abs(kernel_eval(x, y, params) - kernel_eval(y, x, params)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            x, y = random_seq(rng, n), random_seq(rng, n)
            v = kernel_eval(x, y, random_params(rng, 2))
            assert -1e-12 <= v <= 1 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_eval("AT", "ATG", KernelParams(1, np.zeros((1, 3))))

    def test_pairwise_permutation_invariance_sample(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            x, y = random_seq(rng, n), random_seq(rng, n)
            params = random_params(rng, int(rng.integers(1, 7)))
            base = kernel_eval(x, y, params)
            i, j = rng.choice(n, size=2, replace=False)
            xs, ys = list(x), list(y)
            xs[i], xs[j] = xs[j], xs[i]
            ys[i], ys[j] = ys[j], ys[i]
            swapped = kernel_eval("".join(xs), "".join(ys), params)
            assert abs(base - swapped) < 1e-10


class TestBatchedEngineAgainstReference:
    """The fast path must agree with the gate-by-gate path everywhere."""

    def test_feature_states_match(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            layers = int(rng.integers(1, 8))
            seqs = [random_seq(rng, n) for _ in range(7)]
            params = random_params(rng, layers)
            batch = feature_states(encode_sequences(seqs), params)
            for row, seq in zip(batch, seqs):
                np.testing.assert_allclose(
                    row, feature_state(seq, params), atol=1e-12
                )

    def test_kernel_values_match(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            layers = int(rng.integers(1, 8))
            xs = [random_seq(rng, n) for _ in range(9)]
            ys = [random_seq(rng, n) for _ in range(9)]
            params = random_params(rng, layers)
            vals = kernel_values(encode_sequences(xs), encode_sequences(ys), params)
            for v, x, y in zip(vals, xs, ys):
                assert abs(v - kernel_eval(x, y, params)) < 1e-12

    @pytest.mark.parametrize("n", [13, 14])
    def test_kernel_values_match_past_twelve_qubits(self, n):
        rng = np.random.default_rng(30 + n)
        xs = [random_seq(rng, n) for _ in range(3)]
        ys = [random_seq(rng, n) for _ in range(3)]
        params = random_params(rng, 2)
        vals = kernel_values(encode_sequences(xs), encode_sequences(ys), params)
        for v, x, y in zip(vals, xs, ys):
            assert abs(v - kernel_eval(x, y, params)) < 1e-12

    def test_reference_calls_no_engine_function(self, monkeypatch):
        # the reference stays an independent check only while it runs with
        # the engine's building blocks out of reach
        rng = np.random.default_rng(11)
        x, y = random_seq(rng, 4), random_seq(rng, 4)
        params = random_params(rng, 3)
        value, state = kernel_eval(x, y, params), feature_state(x, params)

        def engine_called(*args, **kwargs):
            raise AssertionError("the reference called the engine")

        for name in ("_forward", "_compositions", "_gather", "_sweep", "kernel_values"):
            monkeypatch.setattr(kernel, name, engine_called)
        assert kernel_eval(x, y, params) == value
        assert feature_state(x, params).tobytes() == state.tobytes()

    def test_kernel_values_span_row_blocks(self):
        # a batch longer than one row block gives every row its own value
        rng = np.random.default_rng(12)
        rows = (VALUE_BYTES >> (8 + 4)) + 3
        cx = encode_sequences([random_seq(rng, 8) for _ in range(rows)])
        cy = encode_sequences([random_seq(rng, 8) for _ in range(rows)])
        params = random_params(rng, 2)
        rowwise = [kernel_values(cx[i : i + 1], cy[i : i + 1], params)[0]
                   for i in range(rows)]
        np.testing.assert_array_equal(kernel_values(cx, cy, params), rowwise)

    def test_kernel_values_build_parameter_tables_once(self, monkeypatch):
        # the circuit passes of one call share its Ry and R_NX/Rz tables: a
        # call over several VALUE_BYTES passes builds each once
        rng = np.random.default_rng(14)
        monkeypatch.setattr(kernel, "VALUE_BYTES", 3 << 12)  # 3 rows of n = 8
        cx = encode_sequences([random_seq(rng, 8) for _ in range(20)])
        cy = encode_sequences([random_seq(rng, 8) for _ in range(20)])
        params = random_params(rng, 3)
        expected = kernel_values(cx, cy, params)
        calls = []
        for name in ("_rotations", "_rnx_rz"):
            build = getattr(kernel, name)
            monkeypatch.setattr(kernel, name, lambda *a, build=build, name=name:
                                calls.append(name) or build(*a))
        assert kernel_values(cx, cy, params).tobytes() == expected.tobytes()
        assert sorted(calls) == ["_rnx_rz", "_rotations"]

    def test_kernel_values_independent_of_the_rest_of_the_call(self):
        # a ranking value depends on its own pair only: a shuffled subset of
        # the committed test pairs, and each 1,024-triplet window that the
        # evaluate benchmark ranks, get the whole set's values byte for byte
        test = load_triplets(ACCEPT_DIR / "test.jsonl")
        with open(ACCEPT_DIR / "qk24_checkpoints.json") as fh:
            ckpt = json.load(fh)["runs"][0]
        params = KernelParams.from_flat(ckpt["theta"])
        pairs = pairs_from_triplets(test)
        whole = kernel_values(pairs.codes_a, pairs.codes_b, params)
        subset = np.random.default_rng(13).permutation(len(pairs))[:800]
        assert kernel_values(pairs.codes_a[subset], pairs.codes_b[subset],
                             params).tobytes() == whole[subset].tobytes()
        for lo in range(0, 2 * len(test) - 2047, 2048):
            window = slice(lo, lo + 2048)
            assert kernel_values(pairs.codes_a[window], pairs.codes_b[window],
                                 params).tobytes() == whole[window].tobytes()

    def test_gradient_batch_values_consistent(self):
        rng = np.random.default_rng(7)
        xs = [random_seq(rng, 3) for _ in range(6)]
        ys = [random_seq(rng, 3) for _ in range(6)]
        params = random_params(rng, 4)
        cx, cy = encode_sequences(xs), encode_sequences(ys)
        vals, grads = QuantumKernelModel(3, 4).kernel_and_grad_batch(params.flat(), cx, cy)
        assert vals.tobytes() == kernel_values(cx, cy, params).tobytes()
        assert grads.shape == (6, 12)

    @pytest.mark.parametrize("n", [1, 3, 8, 9])
    def test_taped_forward_matches_feature_states(self, n):
        # one layer loop serves both passes: at odd and even depths a ring of
        # two gives the (L + 1)-state tape's final states and last output
        # byte for byte, and tape slot l holds the l-layer circuit's state,
        # stored with register half l % 2 leading (final states are in
        # layout 0, so an odd-depth head is transposed back for the bytes)
        rng = np.random.default_rng(13 + n)
        codes = encode_sequences([random_seq(rng, n) for _ in range(9)])
        for layers in (1, 2, 3, 24):
            params = random_params(rng, layers)
            tables = layer_tables(codes, params)
            tape = np.empty((layers + 1, 9, 1 << n), np.complex128)
            work = np.empty((4, 9, 1 << n), np.complex128)
            states = _forward(codes, params, tape, work, tables)
            ring = np.empty((5, 9, 1 << n), np.complex128)
            ring_states = _forward(codes, params, ring[:2], ring[2:], tables)
            assert ring_states.tobytes() == states.tobytes()
            assert ring[layers % 2].tobytes() == tape[layers].tobytes()
            np.testing.assert_array_equal(tape[0], np.eye(1 << n)[[0] * 9])
            for layer in range(1, layers + 1):
                head = feature_states(codes, KernelParams(layer, params.angles[:layer]))
                if layer % 2:
                    head = _transpose(head, 1 << (n // 2), out=np.empty_like(head))
                assert tape[layer].tobytes() == head.tobytes()

    def test_production_width_matches_reference(self):
        # n = 8 splits the register into two 4-qubit factors; values against
        # the gate-by-gate route, gradients against its finite differences
        rng = np.random.default_rng(11)
        xs = [random_seq(rng, 8) for _ in range(3)]
        ys = [random_seq(rng, 8) for _ in range(3)]
        params = random_params(rng, 3)
        vals, grads = QuantumKernelModel(8, 3).kernel_and_grad_batch(
            params.flat(), encode_sequences(xs), encode_sequences(ys)
        )
        for v, g, x, y in zip(vals, grads, xs, ys):
            assert abs(v - kernel_eval(x, y, params)) < 1e-12
            assert_gradient_close(g, fd_gradient(x, y, params))

    @pytest.mark.parametrize("layers", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_odd_shapes_match_reference(self, n, layers):
        # odd n splits the register into unequal halves, and an odd depth
        # ends with the second half leading, which the engine transposes
        # back; values against the gate-by-gate route, the loss gradient
        # against finite differences of its batch MSE
        rng = np.random.default_rng(100 * n + layers)
        xs = [random_seq(rng, n) for _ in range(3)]
        ys = [random_seq(rng, n) for _ in range(2)] + [xs[0][::-1]]
        targets = rng.uniform(0.0, 1.0, 3)
        params = random_params(rng, layers)
        values, grad = QuantumKernelModel(n, layers).kernel_and_grad_batch(
            params.flat(), encode_sequences(xs), encode_sequences(ys), training.mse(targets))
        for v, x, y in zip(values, xs, ys):
            assert abs(v - kernel_eval(x, y, params)) < 1e-12

        def mse(flat):
            p = KernelParams.from_flat(flat)
            return np.mean([(kernel_eval(x, y, p) - t) ** 2
                            for x, y, t in zip(xs, ys, targets)])

        flat = params.flat()
        fd = np.empty_like(flat)
        for k in range(flat.size):
            step = np.zeros_like(flat)
            step[k] = FD_STEP
            fd[k] = (mse(flat + step) - mse(flat - step)) / (2 * FD_STEP)
        assert_gradient_close(grad, fd)


@pytest.mark.parametrize("theta", [-2.5, 0.0, 0.3, np.pi])
@pytest.mark.parametrize("base", list(ALPHABET))
def test_encoding_block_factorizes(base, theta):
    # the identity the engine rests on: a letter's encoding after the
    # trainable Ry is a phase diagonal times one real rotation
    tilt, phase = LETTER_ANGLES[ALPHABET.index(base)]
    block = phase_matrix(phase) @ ry_matrix(tilt) @ ry_matrix(theta)
    np.testing.assert_allclose(
        block, np.diag([1.0, np.exp(1j * phase)]) @ ry_matrix(theta + tilt),
        rtol=0, atol=1e-15)


def test_tilt_table_rejects_a_third_tilt():
    tilts, index = _tilt_table(LETTER_ANGLES)
    assert tilts.size == 2 and list(index) == [0, 1, 1, 1]
    with pytest.raises(ValueError, match="3 Ry tilts"):
        _tilt_table([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 2.0)])


def outputs_by_blas_threads(script) -> set:
    """Distinct standard outputs of ``script`` run with 1 and with 2 BLAS threads."""
    src_dir = str(Path(dnakernel.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src_dir, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        outputs.add(run.stdout)
    return outputs


def test_loss_gradient_independent_of_blas_threads():
    # a BLAS dot splits a long sum across its threads; the sweep's sums over
    # a batch's amplitudes must not, or results made with one thread (the
    # CLI's pin) and with several (a process that loaded numpy first) differ
    script = (
        "import numpy as np\n"
        "from dnakernel.kernel import QuantumKernelModel\n"
        "from dnakernel.training import mse\n"
        "rng = np.random.default_rng(3)\n"
        "model = QuantumKernelModel(8, 6)\n"
        "a, b = rng.integers(0, 4, (2, 64, 8))\n"
        "_, grad = model.kernel_and_grad_batch(\n"
        "    model.init_params(rng), a, b, mse(rng.uniform(0, 1, 64)))\n"
        "print(grad.tobytes().hex())\n"
    )
    assert len(outputs_by_blas_threads(script)) == 1


def test_loss_gradient_independent_of_blas_threads_at_odd_depth():
    # the sibling above at L = 5: an odd depth ends with the second half
    # leading, so the sweep first transposes its bra, and the last layer's
    # output is read from the forward's work row, not from its states
    script = (
        "import numpy as np\n"
        "from dnakernel.kernel import QuantumKernelModel\n"
        "from dnakernel.training import mse\n"
        "rng = np.random.default_rng(4)\n"
        "model = QuantumKernelModel(8, 5)\n"
        "a, b = rng.integers(0, 4, (2, 64, 8))\n"
        "values, grad = model.kernel_and_grad_batch(\n"
        "    model.init_params(rng), a, b, mse(rng.uniform(0, 1, 64)))\n"
        "print(values.tobytes().hex(), grad.tobytes().hex())\n"
    )
    assert len(outputs_by_blas_threads(script)) == 1


def test_ranking_values_independent_of_blas_threads():
    # the sibling above for kernel_values: each overlap is one BLAS dot per
    # pair, of 2^n amplitudes, whose sum must not split across threads
    script = (
        "import numpy as np\n"
        "from dnakernel.kernel import QuantumKernelModel\n"
        "rng = np.random.default_rng(5)\n"
        "model = QuantumKernelModel(8, 24)\n"
        "a, b = rng.integers(0, 4, (2, 300, 8))\n"
        "print(model.kernel_batch(model.init_params(rng), a, b).tobytes().hex())\n"
    )
    assert len(outputs_by_blas_threads(script)) == 1


def test_values_and_gradients_independent_of_blas_threads_at_long_rows():
    # the siblings above past 2^13 amplitudes, where OpenBLAS splits one dot
    # of a whole row across its threads: every engine dot is taken in
    # chunks of kernel.DOT_AMPLITUDES, whose sums add outside BLAS; loss-mode
    # values are the ranking values, byte for byte, at every thread count
    script = (
        "import numpy as np\n"
        "from dnakernel.kernel import QuantumKernelModel\n"
        "from dnakernel.training import mse\n"
        "for n in (8, 13, 14, 16):\n"
        "    rng = np.random.default_rng(n)\n"
        "    model = QuantumKernelModel(n, 2)\n"
        "    params = model.init_params(rng)\n"
        "    a, b = rng.integers(0, 4, (2, 6, n))\n"
        "    values, grad = model.kernel_and_grad_batch(params, a, b, mse(rng.uniform(0, 1, 6)))\n"
        "    print(n, model.kernel_batch(params, a, b).tobytes().hex(),\n"
        "          values.tobytes().hex(), grad.tobytes().hex())\n"
    )
    outputs = outputs_by_blas_threads(script)
    assert len(outputs) == 1
    lines = [line.split() for line in outputs.pop().splitlines()]
    assert [n for n, *_ in lines] == ["8", "13", "14", "16"]
    assert all(ranking == loss for _, ranking, loss, _ in lines)


def test_classical_values_and_gradients_independent_of_blas_threads():
    # the baselines' products: every head's values and loss gradient at a
    # training batch (32 pairs), a kernel_batch value block (256) and the
    # whole committed test set (6,400), where BLAS may split a product's
    # rows or its sum over the pairs across threads
    test_set = Path(__file__).resolve().parents[1] / "results" / "acceptance" / "test.jsonl"
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from dnakernel.baselines import HEADS, ClassicalKernelModel\n"
        "from dnakernel.dataset import load_triplets\n"
        "from dnakernel.training import mse, pairs_from_triplets\n"
        f"pairs = pairs_from_triplets(load_triplets({str(test_set)!r}))\n"
        "for head in HEADS:\n"
        "    model = ClassicalKernelModel(head)\n"
        "    params = model.init_params(np.random.default_rng(6))\n"
        "    for size in (32, 256, len(pairs)):\n"
        "        a, b, t = pairs.codes_a[:size], pairs.codes_b[:size], pairs.targets[:size]\n"
        "        values = model.kernel_batch(params, a, b)\n"
        "        loss_values, grad = model.kernel_and_grad_batch(params, a, b, mse(t))\n"
        "        print(head, size, *(hashlib.sha256(x.tobytes()).hexdigest()\n"
        "                            for x in (values, loss_values, grad)))\n"
    )
    outputs = outputs_by_blas_threads(script)
    assert len(outputs) == 1
    lines = [line.split() for line in outputs.pop().splitlines()]
    assert [(head, size) for head, size, *_ in lines] == [
        (head, size) for head in ("cosine", "rbf", "poly2") for size in ("32", "256", "6400")]


def dot_calls_outside(tree: ast.Module, owners) -> list:
    """(top-level definition, line) of each numpy inner-product call in
    ``tree`` outside the top-level definitions named in ``owners``."""
    names = {"vecdot", "einsum", "vdot", "dot", "inner"}
    return [(getattr(node, "name", None), call.lineno)
            for node in tree.body if getattr(node, "name", None) not in owners
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in names and getattr(call.func.value, "id", None) == "np"]


def test_engine_inner_products_go_through_dots():
    # one route for every engine overlap, so ranking, loss values and the
    # sweep round alike and one rule keeps them free of the BLAS thread
    # count; the reference kernel_eval keeps its own np.vdot
    source = Path(kernel.__file__).read_text()
    assert dot_calls_outside(ast.parse(source), {"_dots", "kernel_eval"}) == []
    sample = ast.parse("def f(a):\n    return np.einsum('i,i', a, a)\n\n"
                       "class M:\n    def g(self, a):\n        return np.dot(a, a)\n")
    assert dot_calls_outside(sample, {"g"}) == [("f", 2), ("M", 6)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_layer_tables_match_per_layer_expressions(n):
    # _rnx_rz builds every layer's R_NX and Rz diagonals once per call; each
    # row is bit for bit the per-layer expression. The sweep pulls back
    # through the tables reversed: keep bit for bit the exp(+i t_rz Z / 2)
    # form, flip (conjugated) equal in value and apart only in the sign of
    # zeros (the real part where Z = 0), which no product with a nonzero
    # amplitude can see
    rng = np.random.default_rng(70 + n)
    zdiag = kernel._zdiag(n)
    for layers in range(1, 25):
        params = random_params(rng, layers)
        keep, flip = kernel._rnx_rz(params, n)
        assert keep.shape == flip.shape == (layers, 1 << n)
        assert keep.flags.c_contiguous and flip.flags.c_contiguous  # each layer reads a row
        for layer, (t_rnx, t_rz, _) in enumerate(params.angles):
            rz = np.exp(-0.5j * t_rz * zdiag)
            assert keep[layer].tobytes() == (np.cos(t_rnx / 2) * rz).tobytes()
            assert flip[layer].tobytes() == (-1j * np.sin(t_rnx / 2) * rz).tobytes()
            rz_back = np.exp(0.5j * t_rz * zdiag)
            assert keep[layer, ::-1].tobytes() == (np.cos(t_rnx / 2) * rz_back).tobytes()
            old_flip = 1j * np.sin(t_rnx / 2) * np.conj(rz_back)
            new_flip = np.conj(flip[layer, ::-1])
            np.testing.assert_array_equal(new_flip, old_flip)
            signs = np.signbit(new_flip.view(np.float64)) != np.signbit(old_flip.view(np.float64))
            assert not new_flip.view(np.float64)[signs].any()
            assert not zdiag[signs.reshape(-1, 2).any(axis=1)].any()


def permute_register(amplitudes, perm):
    """P_pi: the state whose qubit j is qubit perm[j] of the given state."""
    n = len(perm)
    return np.transpose(amplitudes.reshape((2,) * n), perm).reshape(-1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), layers=st.integers(1, 4),
       seed=st.integers(0, 2**31))
def test_permuted_sequence_permutes_register(data, n, layers, seed):
    # psi(x o pi) = P_pi psi(x) on the gate-by-gate route: the identity
    # kernel_values' canonical states rest on
    seq = data.draw(st.text(alphabet=ALPHABET, min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    params = random_params(np.random.default_rng(seed), layers)
    permuted = "".join(seq[p] for p in perm)
    np.testing.assert_allclose(
        feature_state(permuted, params),
        permute_register(feature_state(seq, params), perm),
        atol=1e-12,
    )


def argsort_compositions(codes):
    """Reference canonical rows: stable argsort of each row, then
    np.unique(axis=0) of the sorted rows; rank is the sort's inverse."""
    order = np.argsort(codes, axis=1, kind="stable")
    canon, row_state = np.unique(
        np.take_along_axis(codes, order, axis=1), axis=0, return_inverse=True)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(codes.shape[1]), axis=1)
    return canon, row_state.reshape(-1), rank


def argsort_frames(codes_x, codes_y):
    """Reference (canon, row_state, frame) of the stacked (x; y) rows: row i
    of each half is the partner of row i of the other, and frame[r] is
    rank_partner o rank_r^-1, with rank_r inverted by argsort."""
    canon, row_state, rank = argsort_compositions(np.concatenate([codes_x, codes_y]))
    partner = np.roll(rank, len(codes_x), axis=0)
    return canon, row_state, np.take_along_axis(partner, np.argsort(rank, axis=1), axis=1)


def bit_table(n):
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def argsort_kernel_values(codes_x, codes_y, params):
    """kernel_values through the reference canonical rows and an integer
    gather index, in y's canonical frame: y's state is its canonical row,
    and x's is gathered with rank rank_x o rank_y^-1."""
    half, n = codes_x.shape
    canon, row_state, frame = argsort_frames(codes_x, codes_y)
    states = feature_states(canon, params)
    sx = states[row_state[:half, None], np.left_shift(1, n - 1 - frame[half:]) @ bit_table(n).T]
    sy = states[row_state[half:]]
    return np.abs(np.vecdot(sy, sx)) ** 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), layers=st.integers(1, 3),
       seed=st.integers(0, 2**31))
def test_compositions_match_argsort_reference(data, n, layers, seed):
    # rows, permutations of them and all-equal rows, shuffled together
    row = st.lists(st.integers(0, len(ALPHABET) - 1), min_size=n, max_size=n)
    base = data.draw(st.lists(row, min_size=1, max_size=6))
    rows = base + [data.draw(st.permutations(r)) for r in base]
    rows += [[c] * n for c in data.draw(st.lists(st.integers(0, len(ALPHABET) - 1),
                                                 max_size=2))]
    codes = np.array(data.draw(st.permutations(rows)), dtype=np.uint8)
    for got, ref in zip(_compositions(codes, codes[::-1]), argsort_frames(codes, codes[::-1])):
        assert np.array_equal(got, ref)
    params = random_params(np.random.default_rng(seed), layers)
    assert np.array_equal(kernel_values(codes, codes[::-1], params),
                          argsort_kernel_values(codes, codes[::-1], params))


def random_code_rows(rng, n, rows=40):
    """Random (rows, n) codes in which each letter also fills a whole row."""
    codes = rng.integers(0, len(ALPHABET), (rows, n)).astype(np.uint8)
    codes[: len(ALPHABET)] = np.arange(len(ALPHABET), dtype=np.uint8)[:, None]
    return rng.permutation(codes)


@pytest.mark.parametrize("n", range(1, 13))
def test_narrow_count_compositions_match_argsort_reference(n):
    # _compositions counts letters in the narrowest dtype that holds n; its
    # canonical rows, row states and frames keep the reference's values
    codes = random_code_rows(np.random.default_rng(70 + n), n)
    for got, ref in zip(_compositions(codes[:20], codes[20:]),
                        argsort_frames(codes[:20], codes[20:])):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_gather_matches_fancy_indexing(n):
    # _gather's np.take(mode="clip") would hide an out-of-range index by
    # clipping it; plain fancy indexing with an index built in integers
    # raises on one, and random table entries expose any wrong one
    # (each row's partner's state, in the row's frame, as the engine gathers)
    rng = np.random.default_rng(80 + n)
    codes = random_code_rows(rng, n)
    canon, row_state, frame = _compositions(codes[:20], codes[20:])
    source = np.roll(row_state, 20)
    table = rng.normal(size=(len(canon), 1 << n, 2)).view(np.complex128).reshape(-1)
    index = ((source[:, None] << n)
             + np.left_shift(1, n - 1 - frame.astype(np.int64)) @ bit_table(n).T)
    out = np.empty((len(codes), 1 << n), np.complex128)
    _gather(table, source, frame, out, np.empty(out.shape, np.intp))
    assert np.array_equal(out, table[index])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap page reuse is a glibc malloc property")
def test_warm_value_calls_do_not_refault_heap():
    # kernel_values keeps its large arrays in one block per call, so warm
    # rankings of a 1,024-triplet window and of the whole committed test set
    # at L = 24 reuse mapped heap pages; with a fresh temporary per row block
    # they took about 3,400 and 2,000 minor faults per call. A fresh
    # interpreter, because a large block freed by an earlier test in this
    # process raises glibc's thresholds and would hide the faults.
    script = (
        "import json, resource, sys\n"
        "from dnakernel.dataset import load_triplets\n"
        "from dnakernel.kernel import QuantumKernelModel\n"
        "from dnakernel.training import pairs_from_triplets\n"
        "root = sys.argv[1]\n"
        "test = load_triplets(root + '/test.jsonl')\n"
        "with open(root + '/qk24_checkpoints.json') as fh:\n"
        "    ckpt = json.load(fh)['runs'][0]\n"
        "model = QuantumKernelModel(ckpt['num_qubits'], ckpt['layers'])\n"
        "for triplets in (test[:1024], test):\n"
        "    pairs = pairs_from_triplets(triplets)\n"
        "    for call in range(7):\n"
        "        if call == 2:\n"
        "            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "        model.kernel_batch(ckpt['theta'], pairs.codes_a, pairs.codes_b)\n"
        "    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n"
    )
    src_dir = str(Path(dnakernel.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script, str(ACCEPT_DIR)],
                         env={**os.environ, "PYTHONPATH": src_dir}, capture_output=True,
                         text=True, check=True, timeout=300)
    window, whole = map(float, run.stdout.split())
    assert window < 100 and whole < 100, (window, whole)


@pytest.mark.parametrize("layers", [1, 2, 24])
def test_traced_peak_keeps_five_pass_states_per_canonical_row(layers):
    # a warm ranking call holds its canonical states and, per forward pass,
    # a ring of two states and three work rows per canonical row. The
    # parameter tables add 7 states per layer here (each half's Ry factors
    # of at most five tilt masks, the R_NX and Rz diagonals), and the
    # overlap passes and numpy's buffers about 92 more, against 135 allowed.
    # On a 1,024-triplet window of the committed test set (148
    # compositions) the peak sits 43 states under the bound at every depth;
    # a transposed state kept apart from the post-Rz one, six states per
    # canonical row, would exceed it by 37
    test = load_triplets(ACCEPT_DIR / "test.jsonl")
    pairs = pairs_from_triplets(test[:1024])
    params = random_params(np.random.default_rng(62), layers)
    kernel_values(pairs.codes_a, pairs.codes_b, params)
    tracemalloc.start()
    try:
        kernel_values(pairs.codes_a, pairs.codes_b, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    canon = len(_compositions(pairs.codes_a, pairs.codes_b)[0])
    rows_per_pass = VALUE_BYTES >> (8 + 4)
    state_bytes = np.dtype(np.complex128).itemsize << 8
    states = canon + 5 * min(canon, rows_per_pass) + 7 * layers + 135
    assert peak <= states * state_bytes, (peak / state_bytes, states)


class TestCanonicalKernelValues:
    """kernel_values' canonical route against per-row direct feature states."""

    @staticmethod
    def direct_values(cx, cy, params):
        sx, sy = feature_states(cx, params), feature_states(cy, params)
        return np.abs(np.sum(np.conj(sy) * sx, axis=1)) ** 2

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_matches_direct_states(self, n):
        rng = np.random.default_rng(20 + n)
        base = [random_seq(rng, n) for _ in range(6)]
        # each base row again, a permutation of it, and an all-equal row
        xs = base + base + ["".join(rng.permutation(list(s))) for s in base]
        ys = ["".join(rng.permutation(list(s))) for s in base] + base[::-1] + base
        xs.append("G" * n)
        ys.append("G" * n)
        order = rng.permutation(len(xs))
        cx = encode_sequences([xs[i] for i in order])
        cy = encode_sequences([ys[i] for i in order])
        params = random_params(rng, 3)
        np.testing.assert_allclose(
            kernel_values(cx, cy, params), self.direct_values(cx, cy, params),
            rtol=0, atol=1e-12,
        )

    def test_all_equal_rows(self):
        rng = np.random.default_rng(30)
        params = random_params(rng, 4)
        cx = encode_sequences(["ATGCATGC"] * 9)
        cy = encode_sequences(["CGTACGTA"] * 9)
        values = kernel_values(cx, cy, params)
        assert np.all(values == values[0])
        np.testing.assert_allclose(values, self.direct_values(cx, cy, params),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernel_values(cx, cx, params), 1.0,
                                   rtol=0, atol=1e-12)

    def test_unaligned_batches_rejected(self):
        model = QuantumKernelModel(2, 1)
        with pytest.raises(ValueError, match="unaligned"):
            model.kernel_batch(np.zeros(3), encode_sequences(["AT", "GC"]),
                               encode_sequences(["AT"]))


def loss_batch(kind, rng, n=8):
    """(xs, ys) of one kind of training batch at width n."""
    if kind == "single pair":
        return [random_seq(rng, n)], [random_seq(rng, n)]
    if kind == "all distinct":
        seqs = {}
        while len(seqs) < 12:
            s = random_seq(rng, n)
            seqs.setdefault("".join(sorted(s)), s)
        seqs = list(seqs.values())
        return seqs[:6], seqs[6:]
    if kind == "shared composition":
        # every y is a permutation of the x of another row
        xs = [random_seq(rng, n) for _ in range(6)]
        return xs, ["".join(rng.permutation(list(s))) for s in xs[::-1]]
    if kind == "duplicated rows":
        base = [(random_seq(rng, n), random_seq(rng, n)) for _ in range(3)]
        rows = [base[i] for i in rng.permutation(np.arange(9) % 3)]
        return [x for x, _ in rows], [y for _, y in rows]
    xs = [random_seq(rng, n) for _ in range(5)]  # "x == y"
    return xs, list(xs)


LOSS_BATCHES = ("single pair", "all distinct", "shared composition",
                "duplicated rows", "x == y")


def own_frame_loss_gradient(codes_x, codes_y, targets, params):
    """The batch MSE's values and gradient through each row's own frame:
    every stacked row's state gathered by its argsort rank, c taken between
    the x and y rows, and each bra sent back into its composition's frame by
    the transpose of its gather, a scatter-add (np.bincount, real and
    imaginary parts apart)."""
    half, n = codes_x.shape
    canon, row_state, rank = argsort_compositions(np.concatenate([codes_x, codes_y]))
    block = np.empty((7, len(canon), 1 << n), np.complex128)
    ring, pair, work = block[:2], block[2:4], block[4:]
    tables = layer_tables(canon, params)
    states = _forward(canon, params, ring, work, tables)
    index = (row_state[:, None] << n) + np.left_shift(1, n - 1 - rank) @ bit_table(n).T
    sx, sy = states.reshape(-1)[index[:half]], states.reshape(-1)[index[half:]]
    c = np.einsum("bi,bi->b", np.conj(sy), sx)
    values = np.abs(c) ** 2
    w = (2.0 / half) * (values - targets)
    bras = np.concatenate([(w * c)[:, None] * sy, (w * np.conj(c))[:, None] * sx])
    scatter = [np.bincount(index.reshape(-1), part.reshape(-1), states.size)
               for part in (bras.real, bras.imag)]
    ring[1 - params.num_layers % 2] = (scatter[0] + 1j * scatter[1]).reshape(states.shape)
    return values, 2.0 * _sweep(ring, pair, work, tables[0], params)


def taped_sweep(bra, tape, work, tables, params):
    """Reference reverse sweep, Re d<bra|psi>/d(theta_k) summed over rows,
    from a tape of L + 1 states: tape[l] is layer l's entry state and
    tape[L] the last output, in their forward layouts (one _forward with a
    tape of L + 1, these tables and this work). Each layer's post-Rz state
    is replayed from its entry state by the forward's own two statements,
    so every state the sweep reads is the forward's bytes; the bra, in
    layout 0, is pulled back through the forward's keep and flip tables
    read reversed. Overwrites bra, work and tape[L]."""
    (rot, keep, flip), phase = tables, work[-2:]
    num_layers, n = params.num_layers, bra.shape[1].bit_length() - 1
    dims = [table.shape[-1] for table, _ in rot]
    jsum = [kernel._jsum(n // 2), kernel._jsum(n - n // 2)]
    rz_gen = -0.5j * kernel._zdiag(n)
    phase_conj = np.conj(phase, out=phase)
    grad = np.empty((num_layers, 3))
    t, a, b, s_rz = bra, work[0], work[1], tape[num_layers]
    if num_layers % 2:
        t, a = _transpose(bra, dims[0], out=a), t
    t_f, a_f, b_f, s_rz_f = ([kernel._float_view(x, d) for d in dims] for x in (t, a, b, s_rz))
    for layer in reversed(range(num_layers)):
        s_in = tape[layer]
        p, q = layer % 2, 1 - layer % 2
        t *= phase_conj[q]
        np.multiply(tape[layer + 1], phase_conj[q], out=a)
        np.matmul(jsum[q], a_f[q], out=b_f[q])
        ry_q = kernel._re_dot(t, b)
        table, which = rot[q]
        np.matmul(np.swapaxes(table[layer], 1, 2)[which], t_f[q], out=a_f[q])
        _transpose(a, dims[q], out=t)
        table, which = rot[p]
        np.matmul(np.swapaxes(table[layer], 1, 2)[which], t_f[p], out=a_f[p])
        np.multiply(s_in, keep[layer], out=s_rz)
        s_rz += np.multiply(flip[layer], s_in[:, ::-1], out=b)
        np.matmul(jsum[p], s_rz_f[p], out=b_f[p])
        grad[layer, 2] = 0.5 * (kernel._re_dot(a, b) + ry_q)
        grad[layer, 1] = kernel._re_dot(a, np.multiply(rz_gen, s_rz, out=b))
        np.multiply(a, keep[layer, ::-1], out=t)
        t += np.multiply(np.conj(flip[layer, ::-1]), a[:, ::-1], out=b)
        grad[layer, 0] = kernel._re_dot(t, np.multiply(-0.5j, s_in[:, ::-1], out=b))
    return grad.reshape(-1)


def taped_loss_gradient(codes_x, codes_y, cotangent, params):
    """kernel_values_and_loss_gradient's gradient through a forward tape of
    L + 1 states and taped_sweep."""
    half, n = codes_x.shape
    canon, row_state, frame = _compositions(codes_x, codes_y)
    tape = np.empty((params.num_layers + 1, len(canon), 1 << n), np.complex128)
    work = np.empty((4, len(canon), 1 << n), np.complex128)
    tables = layer_tables(canon, params)
    states = _forward(canon, params, tape, work, tables)
    rows = np.empty((2 * half, 1 << n), np.complex128)
    _gather(states.reshape(-1), np.roll(row_state, half), frame, rows, np.empty_like(rows, np.intp))
    c = np.vecdot(states[row_state[half:]], rows[half:])
    w = cotangent(np.abs(c) ** 2)
    rows *= np.concatenate([w * c, w * np.conj(c)])[:, None]
    bras = np.zeros_like(states)
    np.add.at(bras, row_state, rows)
    return 2.0 * taped_sweep(bras, tape, work, tables, params)


def assert_matches_own_frame_route(n, layers, xs, ys, rng):
    model = QuantumKernelModel(n, layers)
    params = random_params(rng, layers)
    cx, cy = encode_sequences(xs), encode_sequences(ys)
    targets = rng.uniform(0.0, 1.0, len(xs))
    values, grad = model.kernel_and_grad_batch(params.flat(), cx, cy, training.mse(targets))
    ref_values, ref_grad = own_frame_loss_gradient(cx, cy, targets, params)
    np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-14)
    # x == y rows have a zero gradient, which gets the absolute floor
    tol = max(1e-12 * np.abs(ref_grad).max(), 1e-14)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=tol)


class TestLossGradient:
    """kernel_and_grad_batch's loss mode: one sweep per composition."""

    @pytest.mark.parametrize("kind", LOSS_BATCHES)
    @pytest.mark.parametrize("layers", [6, 12, 24])
    def test_matches_per_row_combination(self, layers, kind):
        rng = np.random.default_rng(40 + layers)
        model = QuantumKernelModel(8, layers)
        theta = random_params(rng, layers).flat()
        xs, ys = loss_batch(kind, rng)
        cx, cy = encode_sequences(xs), encode_sequences(ys)
        targets = rng.uniform(0.0, 1.0, len(xs))
        k, grads = model.kernel_and_grad_batch(theta, cx, cy)
        expected = (2.0 / k.size) * ((k - targets)[:, None] * grads).sum(axis=0)
        values, grad = model.kernel_and_grad_batch(theta, cx, cy, training.mse(targets))
        assert grad.shape == (model.num_parameters,)
        # both modes take their overlaps through the same row dots
        assert values.tobytes() == k.tobytes()
        # x == y rows have a zero gradient, which gets the absolute floor
        tol = max(1e-12 * np.abs(expected).max(), 1e-14)
        np.testing.assert_allclose(grad, expected, rtol=0, atol=tol)

    @pytest.mark.parametrize("kind", LOSS_BATCHES)
    @pytest.mark.parametrize("layers", [6, 12, 24])
    def test_matches_own_frame_route(self, layers, kind):
        # partner frames and row-by-row sums against own-frame gathers and
        # a transpose-scatter: the same gradient up to summation order
        rng = np.random.default_rng(90 + layers)
        assert_matches_own_frame_route(8, layers, *loss_batch(kind, rng), rng)

    @pytest.mark.parametrize("layers", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_matches_own_frame_route_at_odd_widths(self, n, layers):
        # every batch kind at once, on registers with unequal halves
        rng = np.random.default_rng(10 * n + layers)
        kinds = LOSS_BATCHES if n > 1 else [k for k in LOSS_BATCHES if k != "all distinct"]
        xs, ys = [], []
        for kind in kinds:
            bx, by = loss_batch(kind, rng, n)
            xs += bx
            ys += by
        assert_matches_own_frame_route(n, layers, xs, ys, rng)

    @pytest.mark.parametrize("n", [3, 8, 9, 12])
    def test_matches_taped_sweep(self, n):
        # the sweep uncomputes every state it reads; the taped reference
        # reads the forward's own, so the two agree up to rounding, which
        # does not grow with depth past the tolerance
        rng = np.random.default_rng(110 + n)
        for layers in (1, 2, 3, 24):
            model = QuantumKernelModel(n, layers)
            params = random_params(rng, layers)
            for kind in LOSS_BATCHES:
                cx, cy = map(encode_sequences, loss_batch(kind, rng, n))
                cotangent = training.mse(rng.uniform(0.0, 1.0, len(cx)))
                values, grad = model.kernel_and_grad_batch(params.flat(), cx, cy, cotangent)
                expected = taped_loss_gradient(cx, cy, cotangent, params)
                assert values.tobytes() == kernel_values(cx, cy, params).tobytes()
                # x == y rows have a zero gradient, which gets the absolute floor
                tol = max(1e-12 * np.abs(expected).max(), 1e-14)
                np.testing.assert_allclose(grad, expected, rtol=0, atol=tol)

    @pytest.mark.parametrize("layers", [6, 12, 24])
    def test_matches_finite_differences_of_batch_mse(self, layers):
        rng = np.random.default_rng(50 + layers)
        model = QuantumKernelModel(8, layers)
        theta = random_params(rng, layers).flat()
        xs, ys = [], []
        for kind in LOSS_BATCHES:
            bx, by = loss_batch(kind, rng)
            xs += bx
            ys += by
        cx, cy = encode_sequences(xs), encode_sequences(ys)
        targets = rng.uniform(0.0, 1.0, len(xs))

        def mse(flat):
            return np.mean((model.kernel_batch(flat, cx, cy) - targets) ** 2)

        fd = np.empty_like(theta)
        for j in range(theta.size):
            step = np.zeros_like(theta)
            step[j] = FD_STEP
            fd[j] = (mse(theta + step) - mse(theta - step)) / (2 * FD_STEP)
        _, grad = model.kernel_and_grad_batch(theta, cx, cy, training.mse(targets))
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("layers", [1, 6])
    def test_any_cotangent_weights_the_per_row_gradients(self, layers):
        # the engine knows no loss: random weights, not an MSE's, give
        # w @ (per-row gradients), and the cotangent is called once, on the
        # values the call returns
        rng = np.random.default_rng(70 + layers)
        model = QuantumKernelModel(8, layers)
        theta = random_params(rng, layers).flat()
        xs, ys = [], []
        for kind in LOSS_BATCHES:
            bx, by = loss_batch(kind, rng)
            xs += bx
            ys += by
        cx, cy = encode_sequences(xs), encode_sequences(ys)
        w = rng.normal(size=len(xs))
        seen = []

        def cotangent(values):
            seen.append(values.copy())
            return w

        values, grad = model.kernel_and_grad_batch(theta, cx, cy, cotangent)
        expected = w @ model.kernel_and_grad_batch(theta, cx, cy)[1]
        assert len(seen) == 1 and seen[0].tobytes() == values.tobytes()
        np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="heap page reuse is a glibc malloc property")
    def test_warm_calls_do_not_refault_heap(self):
        # the call's states are one block, which glibc keeps mapped once its
        # size has been freed; 2L separate tape blocks of an earlier taped
        # sweep were unmapped on free and faulted back in, about 5,800
        # minor faults per call
        rng = np.random.default_rng(60)
        model = QuantumKernelModel(8, 24)
        theta = random_params(rng, 24).flat()
        cx, cy = rng.integers(0, len(ALPHABET), (2, 32, 8))
        targets = rng.uniform(0.0, 1.0, 32)
        for _ in range(2):
            model.kernel_and_grad_batch(theta, cx, cy, training.mse(targets))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            model.kernel_and_grad_batch(theta, cx, cy, training.mse(targets))
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000

    @pytest.mark.parametrize("layers", [1, 2, 24])
    def test_traced_peak_keeps_one_tape_state_per_layer(self, layers):
        # an upper bound kept from the taped sweep, whose block was L + 5
        # states per canonical row and its bras one more: the tape-free
        # call's block is 7 at any depth, and the pair rows and gather
        # indices, the parameter tables and numpy's ufunc buffers add about
        # 3 at L = 1 and 6 at L = 24 here
        rng = np.random.default_rng(61)
        model = QuantumKernelModel(8, layers)
        theta = random_params(rng, layers).flat()
        cx, cy = rng.integers(0, len(ALPHABET), (2, 32, 8))
        targets = rng.uniform(0.0, 1.0, 32)
        model.kernel_and_grad_batch(theta, cx, cy, training.mse(targets))
        tracemalloc.start()
        try:
            model.kernel_and_grad_batch(theta, cx, cy, training.mse(targets))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = np.dtype(np.complex128).itemsize << 8
        assert peak <= (layers + 14) * len(_compositions(cx, cy)[0]) * state_bytes

    @pytest.mark.parametrize("layers", [1, 2, 24])
    def test_traced_peak_does_not_grow_with_depth(self, layers):
        # past the parameter tables (each half's Ry factors of the tilt
        # masks present, the R_NX and Rz diagonals), a warm call holds the
        # same states per canonical row at every depth: its block of 7, and
        # the pair rows, gather indices and overlap operands, 4 states per
        # pair, which sit at 9.4 here at L = 1, 2 and 24 alike. A tape of
        # each layer's entry state would add L
        rng = np.random.default_rng(61)
        model = QuantumKernelModel(8, layers)
        params = random_params(rng, layers)
        cx, cy = rng.integers(0, len(ALPHABET), (2, 32, 8))
        targets = rng.uniform(0.0, 1.0, 32)
        model.kernel_and_grad_batch(params.flat(), cx, cy, training.mse(targets))
        tracemalloc.start()
        try:
            model.kernel_and_grad_batch(params.flat(), cx, cy, training.mse(targets))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        canon = _compositions(cx, cy)[0]
        state_bytes = np.dtype(np.complex128).itemsize << 8
        rot, keep, flip = layer_tables(canon, params)
        tables = sum(table.nbytes for table, _ in rot) + keep.nbytes + flip.nbytes
        assert peak - tables <= 10 * len(canon) * state_bytes, (
            (peak - tables) / state_bytes / len(canon))

    def test_unaligned_batches_rejected(self):
        model = QuantumKernelModel(2, 1)
        for cotangent in (None, training.mse(np.zeros(2))):
            with pytest.raises(ValueError, match="unaligned"):
                model.kernel_and_grad_batch(np.zeros(3), encode_sequences(["AT", "GC"]),
                                            encode_sequences(["AT"]), cotangent)

    def test_target_count_checked(self):
        model = QuantumKernelModel(2, 1)
        codes = encode_sequences(["AT", "GC"])
        for rows, targets, message in ((codes, np.zeros(1), "expected 2 targets"),
                                       (codes, np.zeros(3), "expected 2 targets"),
                                       (codes, np.zeros((2, 1)), "expected 2 targets"),
                                       (codes[:0], [], "empty batch")):
            with pytest.raises(ValueError, match=message):
                model.kernel_and_grad_batch(np.zeros(3), rows, rows, training.mse(targets))


class TestKernelGradient:
    def test_identical_sequences_zero_gradient(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(1, 5))
            seq = random_seq(rng, n)
            params = random_params(rng, int(rng.integers(1, 5)))
            grad = kernel_gradient(seq, seq, params)
            np.testing.assert_allclose(grad, 0.0, atol=1e-11)

    def test_single_qubit_zero_angles_vs_fd(self):
        params = KernelParams(1, np.zeros((1, 3)))
        grad = kernel_gradient("A", "T", params)
        fd = fd_gradient("A", "T", params)
        assert_gradient_close(grad, fd)

    def test_matches_fd_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            layers = int(rng.integers(1, 5))
            x, y = random_seq(rng, n), random_seq(rng, n)
            params = random_params(rng, layers)
            assert_gradient_close(kernel_gradient(x, y, params), fd_gradient(x, y, params))

    def test_gradient_ordering_matches_flat_layout(self):
        # bump one flat coordinate; the value change must track that column
        rng = np.random.default_rng(10)
        x, y = "GTA", "ACC"
        params = random_params(rng, 3)
        grad = kernel_gradient(x, y, params)
        for k in (0, 4, 8):
            flat = params.flat()
            flat[k] += 1e-6
            moved = kernel_eval(x, y, KernelParams.from_flat(flat))
            base = kernel_eval(x, y, params)
            assert abs((moved - base) / 1e-6 - grad[k]) < 1e-4


class TestQuantumKernelModel:
    def test_parameter_count(self):
        assert QuantumKernelModel(8, 24).num_parameters == 72
        assert QuantumKernelModel(8, 12).num_parameters == 36
        assert QuantumKernelModel(8, 6).num_parameters == 18

    def test_init_params_range_and_determinism(self):
        model = QuantumKernelModel(4, 6)
        a = model.init_params(np.random.default_rng(42))
        b = model.init_params(np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        assert np.all(a > -np.pi) and np.all(a <= np.pi)

    def test_batch_api_roundtrip(self):
        rng = np.random.default_rng(11)
        model = QuantumKernelModel(3, 2)
        theta = model.init_params(rng)
        xs = [random_seq(rng, 3) for _ in range(5)]
        ys = [random_seq(rng, 3) for _ in range(5)]
        cx, cy = encode_sequences(xs), encode_sequences(ys)
        vals = model.kernel_batch(theta, cx, cy)
        vals2, grads = model.kernel_and_grad_batch(theta, cx, cy)
        np.testing.assert_allclose(vals, vals2, atol=1e-14)
        assert grads.shape == (5, 6)

    def test_rejects_wrong_width(self):
        model = QuantumKernelModel(4, 2)
        with pytest.raises(ValueError, match="width"):
            model.kernel_batch(model.init_params(np.random.default_rng(0)),
                               encode_sequences(["ATG"]), encode_sequences(["ATG"]))

    @pytest.mark.parametrize("qubits, layers, field, bad",
                             [(-1, 2, "num_qubits", -1), (0, 2, "num_qubits", 0),
                              (8, -1, "num_layers", -1), (8, 0, "num_layers", 0)],
                             ids=["negative_width", "zero_width", "negative_depth", "zero_depth"])
    def test_rejects_nonpositive_sizes(self, qubits, layers, field, bad):
        # checked when the model is built, not first inside numpy (a
        # negative depth) or never (a negative width)
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {bad}$"):
            QuantumKernelModel(qubits, layers)

    def test_rejects_wrong_parameter_length(self):
        model = QuantumKernelModel(3, 2)
        with pytest.raises(ValueError):
            model.kernel_batch(np.zeros(9), encode_sequences(["ATG"]), encode_sequences(["GTA"]))


@pytest.mark.parametrize("mode", ["value", "loss"])
@pytest.mark.parametrize("model", [QuantumKernelModel(3, 2), ClassicalKernelModel("rbf", 3)],
                         ids=["quantum", "classical"])
@pytest.mark.parametrize("bad", [[-1, 0, 1], [0, 4, 1], [0.0, 1.0, 2.0], [True, False, True]],
                         ids=["negative", "past_alphabet", "float", "bool"])
def test_rejects_codes_outside_the_alphabet(model, mode, bad):
    params = model.init_params(np.random.default_rng(0))
    good, bad = encode_sequences(["ATG"]), np.array([bad])
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="base codes"):
            if mode == "value":
                model.kernel_batch(params, a, b)
            else:
                model.kernel_and_grad_batch(params, a, b, training.mse([0.5]))


def test_encode_sequences_matches_per_character_map():
    triplets = load_triplets(ACCEPT_DIR / "test.jsonl")
    seqs = [s for t in triplets for s in (t.a, t.b, t.c)]
    expected = np.array([[ALPHABET.index(ch) for ch in s] for s in seqs], dtype=np.uint8)
    codes = encode_sequences(seqs)
    assert codes.dtype == np.uint8
    np.testing.assert_array_equal(codes, expected)


def test_encode_sequences_validation():
    with pytest.raises(ValueError, match="mismatch"):
        encode_sequences(["AT", "ATG"])
    with pytest.raises(ValueError, match="outside"):
        encode_sequences(["AX"])
    with pytest.raises(ValueError, match="empty"):
        encode_sequences([])
    # the first bad string names the error, whatever else is wrong later on
    with pytest.raises(ValueError, match=r"'AÄ' contains symbols outside ATGC: \['Ä'\]"):
        encode_sequences(["AT", "AÄ", "A"])
    # a non-string fixing the batch's length is not a nonempty sequence;
    # later in the batch it is not a string
    with pytest.raises(ValueError, match="nonempty string, got 5"):
        encode_sequences([5])
    with pytest.raises(ValueError, match="nonempty string, got None"):
        encode_sequences([None])
    with pytest.raises(ValueError, match="expected a string, got int"):
        encode_sequences(["AT", 5])
    with pytest.raises(ValueError, match="nonempty string, got ''"):
        encode_sequences([""])
