"""Classical baseline models: shapes, parameter counts, gradients."""

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnakernel
from dnakernel import training
from dnakernel.baselines import HEADS, ClassicalKernelModel
from dnakernel.kernel import encode_sequences

FD_STEP = 1e-6
FD_RTOL = 1e-4
FD_FLOOR = 1e-2


def random_codes(rng, batch, length=8):
    seqs = ["".join(rng.choice(list("ATGC"), size=length)) for _ in range(batch)]
    return encode_sequences(seqs)


def fd_gradient(model, flat, ca, cb, step=FD_STEP):
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[k] += step
        dn[k] -= step
        grad[k] = (
            model.kernel_batch(up, ca, cb)[0] - model.kernel_batch(dn, ca, cb)[0]
        ) / (2 * step)
    return grad


def pair_gradients(model, flat, ca, cb):
    """Values and per-pair gradients dK (batch, P), each pair's from a
    one-row call with weight 1."""
    k = model.kernel_batch(flat, ca, cb)
    grads = [model.kernel_and_grad_batch(flat, a[None], b[None], np.ones_like)[1]
             for a, b in zip(ca, cb)]
    return k, np.array(grads)


def feature_map(model, flat, codes):
    """Feature vectors (batch, 16) of a batch of sequence codes."""
    return model._feature_forward(model.unpack(flat), codes)[3]


def safe_instance(model, rng, batch=1):
    """Model parameters and a batch of pairs whose ReLU preactivations sit
    away from 0, so central differences are valid."""
    for _ in range(50):
        flat = model.init_params(rng)
        ca, cb = random_codes(rng, batch), random_codes(rng, batch)
        p = model.unpack(flat)
        pre_a = model._feature_forward(p, ca)[1]
        pre_b = model._feature_forward(p, cb)[1]
        if min(np.abs(pre_a).min(), np.abs(pre_b).min()) > 1e-3:
            return flat, ca, cb
    raise AssertionError("could not find a kink-free instance")


class TestParameterCounts:
    def test_cosine_816(self):
        assert ClassicalKernelModel("cosine").num_parameters == 816

    def test_rbf_817(self):
        assert ClassicalKernelModel("rbf").num_parameters == 817

    def test_poly2_818(self):
        assert ClassicalKernelModel("poly2").num_parameters == 818

    def test_layer_breakdown(self):
        # embedding 16 + linear1 528 + linear2 272
        m = ClassicalKernelModel("cosine")
        assert 4 * 4 == 16
        assert 32 * 16 + 16 == 528
        assert 16 * 16 + 16 == 272
        assert m.num_parameters == 16 + 528 + 272

    def test_init_vector_length(self):
        rng = np.random.default_rng(0)
        for head in HEADS:
            m = ClassicalKernelModel(head)
            assert m.init_params(rng).shape == (m.num_parameters,)

    def test_unknown_head(self):
        with pytest.raises(ValueError, match="unknown kernel head"):
            ClassicalKernelModel("sigmoid")

    @pytest.mark.parametrize("length", [0, -3])
    def test_nonpositive_length(self, length):
        # checked when the model is built: length 0 would make kernel_batch
        # divide by zero
        with pytest.raises(ValueError, match=f"^seq_length must be >= 1, got {length}$"):
            ClassicalKernelModel("cosine", length)


class TestFeatureMap:
    def test_output_dim(self):
        rng = np.random.default_rng(1)
        m = ClassicalKernelModel("cosine")
        out = feature_map(m, m.init_params(rng), random_codes(rng, 5))
        assert out.shape == (5, 16)

    def test_zero_weights_give_bias(self):
        m = ClassicalKernelModel("cosine")
        flat = np.zeros(m.num_parameters)
        bias = np.arange(16, dtype=float)
        flat[m._layout["b2"][0]] = bias
        rng = np.random.default_rng(2)
        out = feature_map(m, flat, random_codes(rng, 3))
        np.testing.assert_array_equal(out, np.tile(bias, (3, 1)))

    def test_wrong_width_rejected(self):
        rng = np.random.default_rng(3)
        m = ClassicalKernelModel("cosine")
        with pytest.raises(ValueError, match="width"):
            codes = random_codes(rng, 2, length=5)
            m.kernel_batch(m.init_params(rng), codes, codes)

    def test_wrong_param_count_rejected(self):
        rng = np.random.default_rng(4)
        m = ClassicalKernelModel("rbf")
        with pytest.raises(ValueError, match="parameters"):
            m.kernel_batch(np.zeros(816), random_codes(rng, 1), random_codes(rng, 1))


class TestKernelHeads:
    def test_cosine_self_similarity(self):
        rng = np.random.default_rng(5)
        m = ClassicalKernelModel("cosine")
        flat = m.init_params(rng)
        c = random_codes(rng, 4)
        np.testing.assert_allclose(m.kernel_batch(flat, c, c), 1.0, atol=1e-12)

    def test_cosine_zero_norm_returns_zero(self):
        m = ClassicalKernelModel("cosine")
        flat = np.zeros(m.num_parameters)  # all features are exactly zero
        rng = np.random.default_rng(6)
        vals = m.kernel_batch(flat, random_codes(rng, 3), random_codes(rng, 3))
        np.testing.assert_array_equal(vals, 0.0)

    def test_rbf_self_similarity(self):
        rng = np.random.default_rng(7)
        m = ClassicalKernelModel("rbf")
        flat = m.init_params(rng)
        c = random_codes(rng, 4)
        np.testing.assert_allclose(m.kernel_batch(flat, c, c), 1.0, atol=1e-12)

    def test_rbf_gamma_monotonicity(self):
        # raising gamma shrinks the kernel for distinct inputs
        rng = np.random.default_rng(8)
        m = ClassicalKernelModel("rbf")
        flat = m.init_params(rng)
        ca, cb = random_codes(rng, 1), random_codes(rng, 1)
        k, g = pair_gradients(m, flat, ca, cb)
        if k[0] < 1.0:  # inputs map to distinct features
            assert g[0, -1] < 0

    def test_poly2_degenerate_scale(self):
        rng = np.random.default_rng(9)
        m = ClassicalKernelModel("poly2")
        flat = m.init_params(rng)
        flat[-2] = 0.0  # scale
        flat[-1] = 0.7  # offset
        vals = m.kernel_batch(flat, random_codes(rng, 3), random_codes(rng, 3))
        np.testing.assert_allclose(vals, 0.49, atol=1e-12)

    @pytest.mark.parametrize("head", HEADS)
    def test_kernel_batch_spans_row_blocks(self, head):
        # a batch longer than one row block, and each of its rows alone,
        # gives every row the value of one unblocked pass over the whole batch
        rng = np.random.default_rng(16)
        m = ClassicalKernelModel(head)
        flat = m.init_params(rng)
        rows = (128 << 10) // (16 * m.flat_in) + 3  # one pass's pairs, and three more
        ca, cb = random_codes(rng, rows), random_codes(rng, rows)
        whole = m._head_forward(m.unpack(flat)["head"], feature_map(m, flat, ca),
                                feature_map(m, flat, cb))[0]
        rowwise = [m.kernel_batch(flat, ca[i : i + 1], cb[i : i + 1])[0]
                   for i in range(rows)]
        values = m.kernel_batch(flat, ca, cb)
        np.testing.assert_array_equal(values, whole)
        np.testing.assert_array_equal(values, rowwise)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="heap page reuse is a glibc malloc property")
    def test_warm_value_calls_do_not_refault_heap(self):
        # value passes small enough for glibc's mmap threshold let warm calls
        # over the committed test pairs reuse mapped heap pages; at 819 pairs
        # a pass they took about 1,400 minor faults per call. A fresh
        # interpreter, because a large block freed by an earlier test in this
        # process raises glibc's thresholds and would hide the faults.
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from dnakernel.baselines import ClassicalKernelModel\n"
            "from dnakernel.dataset import load_triplets\n"
            "from dnakernel.training import pairs_from_triplets\n"
            "pairs = pairs_from_triplets(load_triplets(sys.argv[1] + '/test.jsonl'))\n"
            "model = ClassicalKernelModel('rbf')\n"
            "flat = model.init_params(np.random.default_rng(0))\n"
            "for call in range(7):\n"
            "    if call == 2:\n"
            "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    model.kernel_batch(flat, pairs.codes_a, pairs.codes_b)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n"
        )
        src_dir = str(Path(dnakernel.__file__).resolve().parents[1])
        accept_dir = Path(__file__).resolve().parents[1] / "results" / "acceptance"
        run = subprocess.run([sys.executable, "-c", script, str(accept_dir)],
                             env={**os.environ, "PYTHONPATH": src_dir}, capture_output=True,
                             text=True, check=True, timeout=300)
        assert float(run.stdout) < 100, run.stdout

    def test_bounded_outputs(self):
        rng = np.random.default_rng(10)
        for head in ("cosine", "rbf"):
            m = ClassicalKernelModel(head)
            flat = m.init_params(rng)
            vals = m.kernel_batch(flat, random_codes(rng, 20), random_codes(rng, 20))
            assert np.all(vals <= 1.0 + 1e-12)
            lo = -1.0 if head == "cosine" else 0.0
            assert np.all(vals >= lo - 1e-12)


class TestGradients:
    @pytest.mark.parametrize("head", HEADS)
    def test_matches_finite_differences(self, head):
        rng = np.random.default_rng(11)
        m = ClassicalKernelModel(head)
        for _ in range(4):
            flat, ca, cb = safe_instance(m, rng)
            _, grads = pair_gradients(m, flat, ca, cb)
            fd = fd_gradient(m, flat, ca, cb)
            np.testing.assert_array_less(
                np.abs(grads[0] - fd),
                FD_RTOL * np.maximum(np.abs(fd), FD_FLOOR) + 1e-300,
            )

    def test_identical_pair_cosine_zero_gradient(self):
        # cosine(u, u) = 1 is a maximum: the whole gradient vanishes
        rng = np.random.default_rng(12)
        m = ClassicalKernelModel("cosine")
        flat = m.init_params(rng)
        c = random_codes(rng, 3)
        _, grads = pair_gradients(m, flat, c, c)
        np.testing.assert_allclose(grads, 0.0, atol=1e-10)

    def test_gradient_shape(self):
        rng = np.random.default_rng(13)
        for head in HEADS:
            m = ClassicalKernelModel(head)
            flat = m.init_params(rng)
            k, g = m.kernel_and_grad_batch(flat, random_codes(rng, 6), random_codes(rng, 6),
                                           training.mse(rng.uniform(0.0, 1.0, 6)))
            assert k.shape == (6,)
            assert g.shape == (m.num_parameters,)

    def test_values_consistent_with_kernel_batch(self):
        rng = np.random.default_rng(14)
        m = ClassicalKernelModel("poly2")
        flat = m.init_params(rng)
        ca, cb = random_codes(rng, 5), random_codes(rng, 5)
        k1 = m.kernel_batch(flat, ca, cb)
        k2, _ = m.kernel_and_grad_batch(flat, ca, cb, training.mse(rng.uniform(0.0, 1.0, 5)))
        np.testing.assert_array_equal(k1, k2)

    @pytest.mark.parametrize("head", HEADS)
    def test_loss_mode_is_the_batch_mse_gradient(self, head):
        # the combination of the per-pair gradients, up to the rounding of
        # summing over all rows in one pass instead of pair by pair
        rng = np.random.default_rng(17)
        m = ClassicalKernelModel(head)
        flat = m.init_params(rng)
        ca, cb = random_codes(rng, 7), random_codes(rng, 7)
        targets = rng.uniform(0.0, 1.0, 7)
        k, grads = pair_gradients(m, flat, ca, cb)
        expected = (2.0 / 7) * ((k - targets)[:, None] * grads).sum(axis=0)
        values, grad = m.kernel_and_grad_batch(flat, ca, cb, training.mse(targets))
        assert grad.shape == (m.num_parameters,)
        np.testing.assert_array_equal(values, k)
        np.testing.assert_allclose(grad, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("head", HEADS)
    def test_any_cotangent_weights_the_pair_gradients(self, head):
        # the model knows no loss: random weights, not an MSE's, give
        # w @ (per-pair gradients), and the cotangent is called once, on the
        # values the call returns
        rng = np.random.default_rng(23)
        m = ClassicalKernelModel(head)
        flat = m.init_params(rng)
        ca, cb = random_codes(rng, 7), random_codes(rng, 7)
        w = rng.normal(size=7)
        seen = []

        def cotangent(values):
            seen.append(values.copy())
            return w

        values, grad = m.kernel_and_grad_batch(flat, ca, cb, cotangent)
        expected = w @ pair_gradients(m, flat, ca, cb)[1]
        assert len(seen) == 1 and seen[0].tobytes() == values.tobytes()
        np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("head", HEADS)
    def test_loss_mode_matches_finite_differences_of_batch_mse(self, head):
        rng = np.random.default_rng(21)
        m = ClassicalKernelModel(head)
        flat, ca, cb = safe_instance(m, rng, batch=5)
        targets = rng.uniform(0.0, 1.0, 5)

        def mse(params):
            return np.mean((m.kernel_batch(params, ca, cb) - targets) ** 2)

        fd = np.empty_like(flat)
        for j in range(flat.size):
            step = np.zeros_like(flat)
            step[j] = FD_STEP
            fd[j] = (mse(flat + step) - mse(flat - step)) / (2 * FD_STEP)
        _, grad = m.kernel_and_grad_batch(flat, ca, cb, training.mse(targets))
        np.testing.assert_array_less(np.abs(grad - fd),
                                     FD_RTOL * np.maximum(np.abs(fd), FD_FLOOR))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="heap page reuse is a glibc malloc property")
    @pytest.mark.parametrize("head", HEADS)
    def test_warm_loss_mode_calls_do_not_refault_heap(self, head):
        # a training batch's arrays stay below glibc's mmap threshold, so
        # their pages are reused from one call to the next
        rng = np.random.default_rng(22)
        m = ClassicalKernelModel(head)
        flat = m.init_params(rng)
        ca, cb = random_codes(rng, 32), random_codes(rng, 32)
        targets = rng.uniform(0.0, 1.0, 32)
        for _ in range(5):
            m.kernel_and_grad_batch(flat, ca, cb, training.mse(targets))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(200):
            m.kernel_and_grad_batch(flat, ca, cb, training.mse(targets))
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class TestUnalignedBatches:
    """5 rows against 1 used to broadcast in kernel_batch and fail on a
    reshape in kernel_and_grad_batch."""

    def test_kernel_batch(self):
        m = ClassicalKernelModel("rbf")
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="unaligned"):
            m.kernel_batch(m.init_params(rng), random_codes(rng, 5), random_codes(rng, 1))

    def test_kernel_and_grad_batch(self):
        m = ClassicalKernelModel("rbf")
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="unaligned"):
            m.kernel_and_grad_batch(m.init_params(rng), random_codes(rng, 5),
                                    random_codes(rng, 1), training.mse(np.zeros(5)))

    def test_target_count(self):
        m = ClassicalKernelModel("rbf")
        rng = np.random.default_rng(20)
        ca, cb = random_codes(rng, 5), random_codes(rng, 5)
        for rows, targets, message in ((5, np.zeros(4), "expected 5 targets"),
                                       (0, [], "empty batch")):
            with pytest.raises(ValueError, match=message):
                m.kernel_and_grad_batch(m.init_params(rng), ca[:rows], cb[:rows], training.mse(targets))


def test_init_determinism():
    m = ClassicalKernelModel("rbf")
    a = m.init_params(np.random.default_rng(42))
    b = m.init_params(np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_head_initial_values():
    rng = np.random.default_rng(15)
    rbf = ClassicalKernelModel("rbf").init_params(rng)
    assert rbf[-1] == 0.0  # log gamma
    poly = ClassicalKernelModel("poly2").init_params(rng)
    assert poly[-2] == 1.0 and poly[-1] == 0.0
