"""Classical deep kernel baselines: learned features plus a fixed-form head.

The feature map is a per-base embedding into R^4, flattened over the eight
positions and pushed through a two-layer perceptron (32 -> 16 -> ReLU -> 16),
816 weights in all. Three kernel heads compare feature vectors: cosine (no
extra parameters), RBF with one trainable log-bandwidth (817 total), and a
squared affine dot product with trainable scale and offset (818 total).
Gradients are hand-rolled reverse mode over the whole pair, both feature-map
passes included, since the two inputs share every weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnakernel.circuits import ALPHABET

HEADS = ("cosine", "rbf", "poly2")
_HEAD_PARAMS = {"cosine": 0, "rbf": 1, "poly2": 2}
EMBED_DIM = 4
HIDDEN_DIM = 16
FEATURE_DIM = 16


@dataclass(frozen=True)
class ClassicalKernelModel:
    """Embedding + MLP feature map with a cosine, RBF, or poly2 head.

    Parameters live in one flat vector laid out as
    [embedding 4x4 | W1 32x16 | b1 16 | W2 16x16 | b2 16 | head...],
    matching the slices below; heads append log_gamma (rbf) or
    (scale, offset) (poly2).
    """

    head: str
    seq_length: int = 8

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown kernel head {self.head!r}, expected one of {HEADS}")

    @property
    def flat_in(self) -> int:
        return self.seq_length * EMBED_DIM

    @property
    def num_parameters(self) -> int:
        n_emb = len(ALPHABET) * EMBED_DIM
        n_l1 = self.flat_in * HIDDEN_DIM + HIDDEN_DIM
        n_l2 = HIDDEN_DIM * FEATURE_DIM + FEATURE_DIM
        return n_emb + n_l1 + n_l2 + _HEAD_PARAMS[self.head]

    def _slices(self):
        sizes = [
            len(ALPHABET) * EMBED_DIM,
            self.flat_in * HIDDEN_DIM,
            HIDDEN_DIM,
            HIDDEN_DIM * FEATURE_DIM,
            FEATURE_DIM,
            _HEAD_PARAMS[self.head],
        ]
        bounds = np.cumsum([0] + sizes)
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def unpack(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, got shape {flat.shape}"
            )
        s_emb, s_w1, s_b1, s_w2, s_b2, s_head = self._slices()
        return {
            "emb": flat[s_emb].reshape(len(ALPHABET), EMBED_DIM),
            "w1": flat[s_w1].reshape(self.flat_in, HIDDEN_DIM),
            "b1": flat[s_b1],
            "w2": flat[s_w2].reshape(HIDDEN_DIM, FEATURE_DIM),
            "b2": flat[s_b2],
            "head": flat[s_head],
        }

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform +-1/sqrt(fan_in) weights, zero biases, neutral head."""
        emb = rng.uniform(-1, 1, size=len(ALPHABET) * EMBED_DIM) / np.sqrt(EMBED_DIM)
        w1 = rng.uniform(-1, 1, size=self.flat_in * HIDDEN_DIM) / np.sqrt(
            self.flat_in
        )
        b1 = np.zeros(HIDDEN_DIM)
        w2 = rng.uniform(-1, 1, size=HIDDEN_DIM * FEATURE_DIM) / np.sqrt(HIDDEN_DIM)
        b2 = np.zeros(FEATURE_DIM)
        if self.head == "rbf":
            head = np.array([0.0])  # log_gamma = 0 -> gamma = 1
        elif self.head == "poly2":
            head = np.array([1.0, 0.0])  # scale 1, offset 0
        else:
            head = np.zeros(0)
        return np.concatenate([emb, w1, b1, w2, b2, head])

    def _check_codes(self, codes):
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.seq_length:
            raise ValueError(
                f"expected codes of width {self.seq_length}, got {codes.shape}"
            )
        return codes

    def _feature_forward(self, p, codes):
        x = p["emb"][codes].reshape(codes.shape[0], self.flat_in)
        pre = x @ p["w1"] + p["b1"]
        hid = np.maximum(pre, 0.0)
        out = hid @ p["w2"] + p["b2"]
        return x, pre, hid, out

    def feature_map(self, flat_params, codes) -> np.ndarray:
        """Feature vectors (batch, 16) for a batch of sequence codes."""
        p = self.unpack(flat_params)
        return self._feature_forward(p, self._check_codes(codes))[3]

    def _head_forward(self, head_params, u, v):
        """Kernel values plus the head's local gradients d k / d(u, v, head)."""
        if self.head == "cosine":
            nu = np.linalg.norm(u, axis=1)
            nv = np.linalg.norm(v, axis=1)
            dot = np.einsum("bi,bi->b", u, v)
            ok = (nu > 0) & (nv > 0)
            denom = np.where(ok, nu * nv, 1.0)
            k = np.where(ok, dot / denom, 0.0)
            du = np.where(
                ok[:, None],
                v / denom[:, None] - (k / np.where(ok, nu**2, 1.0))[:, None] * u,
                0.0,
            )
            dv = np.where(
                ok[:, None],
                u / denom[:, None] - (k / np.where(ok, nv**2, 1.0))[:, None] * v,
                0.0,
            )
            return k, du, dv, np.zeros((u.shape[0], 0))
        if self.head == "rbf":
            gamma = np.exp(head_params[0])
            diff = u - v
            d2 = np.einsum("bi,bi->b", diff, diff)
            k = np.exp(-gamma * d2)
            du = (-2.0 * gamma) * k[:, None] * diff
            # d k / d log_gamma = -gamma d2 k
            dlg = (-gamma) * d2 * k
            return k, du, -du, dlg[:, None]
        # poly2
        scale, offset = head_params
        dot = np.einsum("bi,bi->b", u, v)
        inner = scale * dot + offset
        k = inner**2
        du = (2.0 * inner * scale)[:, None] * v
        dv = (2.0 * inner * scale)[:, None] * u
        dhead = np.stack([2.0 * inner * dot, 2.0 * inner], axis=1)
        return k, du, dv, dhead

    def kernel_batch(self, flat_params, codes_a, codes_b) -> np.ndarray:
        p = self.unpack(flat_params)
        u = self._feature_forward(p, self._check_codes(codes_a))[3]
        v = self._feature_forward(p, self._check_codes(codes_b))[3]
        return self._head_forward(p["head"], u, v)[0]

    def _backprop_features(self, p, codes, cache, dout):
        """Per-pair gradients of sum(dout * features) w.r.t. the weights.

        Returns flat gradient rows (batch, num_shared_parameters); shared
        means everything before the head slice.
        """
        x, pre, hid, _ = cache
        batch = codes.shape[0]
        dw2 = np.einsum("bh,bf->bhf", hid, dout)
        db2 = dout
        dhid = dout @ p["w2"].T
        dpre = dhid * (pre > 0)
        dw1 = np.einsum("bi,bh->bih", x, dpre)
        db1 = dpre
        dx = dpre @ p["w1"].T
        demb = np.zeros((batch, len(ALPHABET), EMBED_DIM))
        rows = np.repeat(np.arange(batch), self.seq_length)
        np.add.at(
            demb,
            (rows, codes.reshape(-1)),
            dx.reshape(batch, self.seq_length, EMBED_DIM).reshape(-1, EMBED_DIM),
        )
        return np.concatenate(
            [
                demb.reshape(batch, -1),
                dw1.reshape(batch, -1),
                db1,
                dw2.reshape(batch, -1),
                db2,
            ],
            axis=1,
        )

    def kernel_and_grad_batch(self, flat_params, codes_a, codes_b):
        """Kernel values and exact per-pair gradients dK/dparams.

        Both feature passes share the weights, so their contributions add.
        """
        p = self.unpack(flat_params)
        codes_a = self._check_codes(codes_a)
        codes_b = self._check_codes(codes_b)
        cache_a = self._feature_forward(p, codes_a)
        cache_b = self._feature_forward(p, codes_b)
        k, du, dv, dhead = self._head_forward(p["head"], cache_a[3], cache_b[3])
        grads_shared = self._backprop_features(
            p, codes_a, cache_a, du
        ) + self._backprop_features(p, codes_b, cache_b, dv)
        grads = np.concatenate([grads_shared, dhead], axis=1)
        if not np.isfinite(grads).all() or not np.isfinite(k).all():
            raise FloatingPointError("non-finite values in classical kernel gradient")
        return k, grads

    def checkpoint_payload(self, flat_params, seed, epoch) -> dict:
        return {
            "model": "classical",
            "kernel_head": self.head,
            "seq_length": self.seq_length,
            "params": [float(v) for v in np.asarray(flat_params)],
            "seed": int(seed),
            "epoch": int(epoch),
        }
