"""Classical deep kernel baselines: learned features plus a fixed-form head.

The feature map is a per-base embedding into R^4, flattened over the eight
positions and pushed through a two-layer perceptron (32 -> 16 -> ReLU -> 16),
816 weights in all. Three kernel heads compare feature vectors: cosine (no
extra parameters), RBF with one trainable log-bandwidth (817 total), and a
squared affine dot product with trainable scale and offset (818 total).
Gradients are hand-rolled reverse mode. The two inputs of a pair share every
weight, so values and gradients share one forward pass over the a rows
stacked on the b rows, and one reverse pass covers a whole batch: the
batch-loss gradient weights each row's feature gradient by its pair's
dloss/dK, which the caller's cotangent gives (``training.mse``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from dnakernel.circuits import ALPHABET
from dnakernel.kernel import check_pairs

# initial values of each head's trainable parameters, which also fixes their
# count: log_gamma = 0 (gamma = 1) for rbf, scale 1 and offset 0 for poly2
_HEAD_INIT = {"cosine": (), "rbf": (0.0,), "poly2": (1.0, 0.0)}
HEADS = tuple(_HEAD_INIT)
EMBED_DIM = 4
HIDDEN_DIM = 16
FEATURE_DIM = 16


@dataclass(frozen=True)
class ClassicalKernelModel:
    """Embedding + MLP feature map with a cosine, RBF, or poly2 head.

    Parameters live in one flat vector whose blocks ``_layout`` lists.
    """

    head: str
    seq_length: int = 8

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown kernel head {self.head!r}, expected one of {HEADS}")
        if self.seq_length < 1:
            raise ValueError(f"seq_length must be >= 1, got {self.seq_length}")

    @property
    def flat_in(self) -> int:
        return self.seq_length * EMBED_DIM

    @cached_property
    def _layout(self) -> dict:
        """Block name -> (slice of the flat vector, shape, fan-in of its
        initial draw, None for a block that starts at fixed values), in the
        order the blocks lie in the vector.
        """
        blocks = [
            ("emb", (len(ALPHABET), EMBED_DIM), EMBED_DIM),
            ("w1", (self.flat_in, HIDDEN_DIM), self.flat_in),
            ("b1", (HIDDEN_DIM,), None),
            ("w2", (HIDDEN_DIM, FEATURE_DIM), HIDDEN_DIM),
            ("b2", (FEATURE_DIM,), None),
            ("head", (len(_HEAD_INIT[self.head]),), None),
        ]
        layout, start = {}, 0
        for name, shape, fan_in in blocks:
            layout[name] = (slice(start, start + math.prod(shape)), shape, fan_in)
            start += math.prod(shape)
        return layout

    @property
    def num_parameters(self) -> int:
        return self._layout["head"][0].stop

    def unpack(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, got shape {flat.shape}"
            )
        return {name: flat[sl].reshape(shape) for name, (sl, shape, _) in self._layout.items()}

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform +-1/sqrt(fan_in) weights, zero biases, neutral head."""
        flat = np.zeros(self.num_parameters)
        for sl, _, fan_in in self._layout.values():
            if fan_in is not None:
                flat[sl] = rng.uniform(-1, 1, size=sl.stop - sl.start) / np.sqrt(fan_in)
        flat[self._layout["head"][0]] = _HEAD_INIT[self.head]
        return flat

    def _feature_forward(self, p, codes):
        x = p["emb"][codes].reshape(codes.shape[0], self.flat_in)
        pre = x @ p["w1"] + p["b1"]
        hid = np.maximum(pre, 0.0)
        out = hid @ p["w2"] + p["b2"]
        return x, pre, hid, out

    def _head_forward(self, head_params, u, v, grads=True):
        """Kernel values k, and unless ``grads`` is false the head's local
        gradients d k / d(u, v, head) as (k, du, dv, dhead)."""
        if self.head == "cosine":
            nu = np.linalg.norm(u, axis=1)
            nv = np.linalg.norm(v, axis=1)
            dot = np.einsum("bi,bi->b", u, v)
            ok = (nu > 0) & (nv > 0)
            denom = np.where(ok, nu * nv, 1.0)
            k = np.where(ok, dot / denom, 0.0)
            if not grads:
                return k
            # d k / d x = y / (|x| |y|) - k x / |x|^2, for (x, y) = (u, v) and (v, u)
            du, dv = (np.where(ok[:, None],
                               y / denom[:, None] - (k / np.where(ok, nx**2, 1.0))[:, None] * x,
                               0.0)
                      for x, y, nx in ((u, v, nu), (v, u, nv)))
            return k, du, dv, np.zeros((u.shape[0], 0))
        if self.head == "rbf":
            gamma = np.exp(head_params[0])
            diff = u - v
            d2 = np.einsum("bi,bi->b", diff, diff)
            k = np.exp(-gamma * d2)
            if not grads:
                return k
            du = (-2.0 * gamma) * k[:, None] * diff
            # d k / d log_gamma = -gamma d2 k
            dlg = (-gamma) * d2 * k
            return k, du, -du, dlg[:, None]
        # poly2
        scale, offset = head_params
        dot = np.einsum("bi,bi->b", u, v)
        inner = scale * dot + offset
        k = inner**2
        if not grads:
            return k
        du = (2.0 * inner * scale)[:, None] * v
        dv = (2.0 * inner * scale)[:, None] * u
        dhead = np.stack([2.0 * inner * dot, 2.0 * inner], axis=1)
        return k, du, dv, dhead

    def _pair_forward(self, p, codes_a, codes_b, grads=True):
        """One feature-map pass over the a rows stacked on the b rows, then
        the head on the two halves: (codes, forward cache, _head_forward's
        outputs). No product has a single row, which BLAS rounds apart
        from longer ones, so a pair's value does not depend on its batch."""
        codes = np.concatenate([codes_a, codes_b])
        cache = self._feature_forward(p, codes)
        half = len(codes_a)
        return codes, cache, self._head_forward(p["head"], cache[3][:half], cache[3][half:],
                                                grads)

    def kernel_batch(self, flat_params, codes_a, codes_b) -> np.ndarray:
        """Kernel values, a bounded number of pairs at a time: a pass's
        largest array, x (two rows of flat_in floats per pair), holds at most
        128 KiB, glibc's default mmap threshold, so warm calls reuse heap
        pages instead of faulting freshly mapped ones in."""
        p = self.unpack(flat_params)
        codes_a, codes_b = check_pairs(self.seq_length, codes_a, codes_b)
        values = np.empty(codes_a.shape[0])
        block = max(1, (128 << 10) // (2 * 8 * self.flat_in))
        for lo in range(0, codes_a.shape[0], block):
            rows = slice(lo, lo + block)
            values[rows] = self._pair_forward(p, codes_a[rows], codes_b[rows], grads=False)[2]
        return values

    def _reverse(self, p, codes, cache, dout):
        """Flat gradient of sum(dout * features) w.r.t. the feature-map
        weights (every block but the head, in _layout order), summed over
        the rows of codes, whose forward pass is cache."""
        x, pre, hid, _ = cache
        dpre = (dout @ p["w2"].T) * (pre > 0)
        dx = dpre @ p["w1"].T
        # scatter-add each position's slice of dx into its letter's row
        slots = codes[:, :, None] * EMBED_DIM + np.arange(EMBED_DIM)
        demb = np.bincount(slots.reshape(-1), dx.reshape(-1), p["emb"].size)
        return np.concatenate([demb, (x.T @ dpre).reshape(-1), dpre.sum(axis=0),
                               (hid.T @ dout).reshape(-1), dout.sum(axis=0)])

    def kernel_and_grad_batch(self, flat_params, codes_a, codes_b, cotangent):
        """Kernel values k and the gradient of sum_r w_r k_r, w = cotangent(k).

        The values come from the forward pass kernel_batch makes. The
        gradient is one reverse pass over the a and b rows, each row's
        feature gradient weighted by its pair's w. One pair's dK is a
        one-row call with cotangent np.ones_like.
        """
        p = self.unpack(flat_params)
        codes_a, codes_b = check_pairs(self.seq_length, codes_a, codes_b)
        codes, cache, (k, du, dv, dhead) = self._pair_forward(p, codes_a, codes_b)
        w = cotangent(k)
        dout = np.concatenate([du, dv]) * np.concatenate([w, w])[:, None]
        return k, np.concatenate([self._reverse(p, codes, cache, dout), w @ dhead])

    def checkpoint_payload(self, flat_params, seed, epoch) -> dict:
        return {
            "model": "classical",
            "kernel_head": self.head,
            "seq_length": self.seq_length,
            "params": [float(v) for v in np.asarray(flat_params)],
            "seed": int(seed),
            "epoch": int(epoch),
        }
