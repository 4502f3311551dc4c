"""Variational kernel values K(x, y) = |<psi(y)|psi(x)>|^2 and exact gradients.

Two evaluation routes are provided on purpose. ``kernel_eval`` builds both
feature states through the circuits module, one gate at a time; it is the
readable reference. The batched engine below vectorizes whole arrays of
pairs at once and differentiates with a reverse sweep (one generator
insertion per gate block, states shared between blocks), which is what makes
training over thousands of pairs per epoch affordable. The test suite pins the
two routes against each other and against finite differences.

Value-only calls (``kernel_values``) use the circuit's permutation
invariance as an algorithm. Every trainable gate commutes with qubit swaps
and the encoding is a product over positions, so permuting a sequence's
positions permutes its feature state's qubits: psi(x o pi) = P_pi psi(x)
exactly, where P_pi permutes the bits of the amplitude index. Each row's
state is therefore an index permutation of the state of its sorted
sequence, and only one sequence per letter composition of a call (at most
C(n + 3, 3), 165 at n = 8) goes through the circuit. Ranking makes one call
per set of test triplets, so each composition among the set's a, b and c
sequences is simulated once.

Training uses the same identity for the gradient of a batch's MSE
(``kernel_values_and_loss_gradient``, the models' loss mode). The reverse
sweep is linear in its bra, so each row's bra, mapped back into its
composition's frame by the transpose of its gather, is added to the others
of that composition; one taped forward pass and one sweep per distinct
composition of the batch then give the whole gradient, where the per-row
route (``kernel_values_and_gradients``) runs two of each per pair.

Batched states are (batch, 2^n) complex arrays, amplitude index convention
as in the statevector module (qubit 0 = most significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from dnakernel.circuits import (
    ALPHABET,
    BYTE_CODES,
    KernelParams,
    base_angles,
    feature_state,
    validate_sequence,
)
from dnakernel.statevector import inner_product, phase_matrix, ry_matrix


# per-base encoding matrices P(phase) @ Ry(tilt), indexed by base code
_ENC_MATS = np.stack(
    [phase_matrix(ph) @ ry_matrix(ry) for ry, ph in (base_angles(b) for b in ALPHABET)]
)

# rows per circuit pass and per overlap pass in kernel_values, and per pass
# of the classical kernel_batch; bounds each model's working set
VALUE_BLOCK = 256


@cache
def _bits(num_qubits: int) -> np.ndarray:
    """(2^n, n) table of the amplitude indices' bits, qubit 0 most significant."""
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    return (idx[:, None] >> np.arange(num_qubits - 1, -1, -1, dtype=np.int64)) & 1


@cache
def _zdiag(num_qubits: int) -> np.ndarray:
    """Diagonal of sum_q Z_q: entry i is n - 2*popcount(i)."""
    return (num_qubits - 2 * _bits(num_qubits).sum(axis=1)).astype(np.float64)


def _kron_rows(mats) -> np.ndarray:
    """Per-row Kronecker product of (batch, k, 2, 2) matrices, qubit 0 first."""
    batch = mats.shape[0]
    out = np.ones((batch, 1, 1), dtype=np.complex128)
    for q in range(mats.shape[1]):
        d = out.shape[1]
        out = (out[:, :, None, :, None] * mats[:, q, None, :, None, :]).reshape(
            batch, 2 * d, 2 * d
        )
    return out


@cache
def _jsum(num_qubits: int) -> np.ndarray:
    """sum_q J_q over a k-qubit register, J = -iY = [[0, -1], [1, 0]]."""
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros((1 << num_qubits, 1 << num_qubits))
    for q in range(num_qubits):
        out += np.kron(np.kron(np.eye(1 << q), j), np.eye(1 << (num_qubits - q - 1)))
    return out.astype(np.complex128)


def encode_sequences(seqs) -> np.ndarray:
    """Map equal-length sequences to a (batch, n) array of base codes.

    The joined batch goes through one byte-table lookup ("replace" keeps one
    byte per character). Only a batch that fails it is checked string by
    string, so the error names the first bad string.
    """
    seqs = list(seqs)
    if not seqs:
        raise ValueError("empty sequence batch")
    n = len(seqs[0])
    try:
        codes = BYTE_CODES[np.frombuffer("".join(seqs).encode("ascii", "replace"), np.uint8)]
        valid = n > 0 and set(map(len, seqs)) == {n} and codes.max() < len(ALPHABET)
    except TypeError:  # a non-string in the batch
        valid = False
    if not valid:
        for s in seqs:
            validate_sequence(s)
            if len(s) != n:
                raise ValueError(f"sequence length mismatch in batch: {len(s)} vs {n}")
    return codes.reshape(len(seqs), n)


def check_pairs(width: int, codes_a, codes_b, targets=None):
    """``codes_a`` and ``codes_b`` as arrays, checked to be aligned (batch,
    width) base codes; ``targets``, when given, must hold one value per row."""
    codes_a, codes_b = np.asarray(codes_a), np.asarray(codes_b)
    for codes in (codes_a, codes_b):
        if codes.ndim != 2 or codes.shape[1] != width:
            raise ValueError(f"expected codes of width {width}, got {codes.shape}")
    if codes_a.shape != codes_b.shape:
        raise ValueError(f"unaligned code batches: {codes_a.shape} vs {codes_b.shape}")
    if targets is not None and np.shape(targets) != codes_a.shape[:1]:
        raise ValueError(
            f"expected {codes_a.shape[0]} targets, got shape {np.shape(targets)}"
        )
    return codes_a, codes_b


def _apply_rnx_batch(states, angle):
    c = np.cos(angle / 2)
    s = np.sin(angle / 2)
    return c * states - (1j * s) * states[:, ::-1]


def _ry_blocks(params: KernelParams, num_qubits: int) -> list:
    """Per layer, Ry(theta_ry) on every qubit of the (leading n//2, rest)
    register halves, each as one matrix; each half size is one _kron_rows
    call over all layers."""
    n_hi = num_qubits // 2
    n_lo = num_qubits - n_hi
    ry = np.stack([ry_matrix(t_ry) for _, _, t_ry in params.angles])[:, None]
    half = {k: _kron_rows(np.broadcast_to(ry, (len(ry), k, 2, 2))) for k in {n_hi, n_lo}}
    return list(zip(half[n_hi], half[n_lo]))


def _times(stack, mat):
    """stack @ mat for a (batch, r, c) stack and one shared (c, m) matrix, as
    one GEMM on the contiguous (batch * r, c) view."""
    batch, rows, cols = stack.shape
    return (stack.reshape(batch * rows, cols) @ mat).reshape(batch, rows, -1)


def _layer_factors(enc, ry):
    """Kronecker factors (left, right) of one layer's V(x) Ry-all block."""
    return _times(enc[0], ry[0]), _times(enc[1], ry[1])


def _forward(codes, params, ry, keep_tape):
    """Run the re-uploading circuit on a batch of codes.

    Returns (states, tape, enc). The per-qubit block V(x) Ry-all of a layer
    is a product operator, so it is applied as two Kronecker factors, one
    over the leading n//2 qubits and one over the rest: with each state
    viewed as a (2^(n//2), 2^(n - n//2)) matrix S, the block maps S to
    left @ S @ right^T. enc holds the encoding halves of those factors and
    ry, from _ry_blocks, the layers' Ry-all halves.
    The tape holds, per layer, the state entering the layer and the state
    after the Rz block; those two points are exactly what the reverse sweep
    needs. It is one (L, 2, batch, 2^n) array, not 2L separate ones, so that
    its pages stay mapped between batches. glibc gives the memory of 2L
    freed layer-sized blocks back to the system (heap trim or munmap), and
    the next call faults it all in again, about 5,800 minor faults per
    call at L = 24; freeing one block of the whole tape's size raises
    glibc's mmap and trim thresholds above it, so later tapes reuse the
    same heap pages.
    """
    batch, n = codes.shape
    n_hi = n // 2
    shape = (batch, 1 << n_hi, 1 << (n - n_hi))
    enc_mats = _ENC_MATS[codes]  # (batch, n, 2, 2)
    enc = (_kron_rows(enc_mats[:, :n_hi]), _kron_rows(enc_mats[:, n_hi:]))
    zdiag = _zdiag(n)
    s = np.zeros((batch, shape[1] * shape[2]), dtype=np.complex128)
    s[:, 0] = 1.0
    tape = np.empty((params.num_layers, 2, *s.shape), s.dtype) if keep_tape else None
    s_rz = None
    for layer, ((t_rnx, t_rz, _), ry_layer) in enumerate(zip(params.angles, ry)):
        if keep_tape:
            tape[layer, 0] = s
            s_rz = tape[layer, 1]
        s = _apply_rnx_batch(s, t_rnx)
        s = np.multiply(s, np.exp(-0.5j * t_rz * zdiag), out=s_rz)
        left, right = _layer_factors(enc, ry_layer)
        s = (left @ s.reshape(shape) @ np.swapaxes(right, 1, 2)).reshape(batch, -1)
    return s, tape, enc


def feature_states(codes, params: KernelParams) -> np.ndarray:
    """Batched feature states, one row per sequence."""
    codes = np.asarray(codes)
    ry = _ry_blocks(params, codes.shape[1])
    states, _, _ = _forward(codes, params, ry, keep_tape=False)
    return states


def _compositions(codes):
    """Canonical rows of a (rows, n) code batch, found from letter counts.

    Returns (canon, row_state, rank). canon holds the distinct sorted rows,
    in lexicographic order; row_state[r] indexes row r's one. Each row's
    composition key is its letter counts, read as an integer in base n + 1
    with digit n - count(letter), letter 0 most significant, so ascending
    keys are ascending sorted rows. rank[r, q] is the slot of position q in
    the stable sort of row r: the number of positions with a smaller code
    plus the number of earlier positions with an equal one.
    """
    n = codes.shape[1]
    seen = np.cumsum(codes[:, :, None] == np.arange(len(ALPHABET)), axis=1)
    counts = seen[:, -1]
    below = np.cumsum(counts, axis=1) - counts
    rank = (np.take_along_axis(below, codes, axis=1)
            + np.take_along_axis(seen, codes[:, :, None], axis=2)[:, :, 0] - 1)
    key = (n - counts) @ (n + 1) ** np.arange(len(ALPHABET) - 1, -1, -1)
    _, first, row_state = np.unique(key, return_index=True, return_inverse=True)
    return np.sort(codes[first], axis=1), row_state, rank


def _gather_factors(row_state, rank):
    """(weights, bits_t) whose product indexes each row's amplitudes in the
    flattened table of its composition's states, from _compositions' output.

    Row r's amplitude i is table[(weights[r] @ bits_t)[i]]: the powers of two
    of its slots plus its state's offset (a last column) times the bit table
    plus a row of ones. One float64 BLAS product builds the indices of many
    rows, exact because every index is far below 2^53.
    """
    n = rank.shape[1]
    weights = np.column_stack([np.ldexp(1.0, n - 1 - rank), row_state << n])
    return weights, np.vstack([_bits(n).T, np.ones(1 << n)])


def kernel_values(codes_x, codes_y, params: KernelParams) -> np.ndarray:
    """Batched kernel values for aligned rows of codes_x and codes_y.

    The x and y rows are stacked and grouped by composition; only one sorted
    row per composition goes through the circuit, VALUE_BLOCK at a time. A
    row's own state follows with one gather: if slot rank(q) of its sorted
    sequence holds the base of original qubit q, its amplitude at index i is
    the sorted state's amplitude at sum_q bit_q(i) 2^(n-1-rank(q)). That is
    the bit permutation P_pi of psi(x o pi) = P_pi psi(x), an identity of the
    circuit, so the values equal the direct route's up to float rounding.
    The gather indices come from _gather_factors. Overlaps are taken
    VALUE_BLOCK rows at a time, which bounds the working set for any batch
    size without changing any row's result. The rows must be aligned; the
    models' check_pairs sees to that.
    """
    half, n = codes_x.shape
    canon, row_state, rank = _compositions(np.concatenate([codes_x, codes_y]))
    states = np.empty((canon.shape[0], 1 << n), dtype=np.complex128)
    for lo in range(0, canon.shape[0], VALUE_BLOCK):
        states[lo : lo + VALUE_BLOCK] = feature_states(canon[lo : lo + VALUE_BLOCK], params)
    weights, bits_t = _gather_factors(row_state, rank)
    table = states.reshape(-1)
    values = np.empty(half)
    for lo in range(0, half, VALUE_BLOCK):
        hi = min(lo + VALUE_BLOCK, half)
        sx, sy = (
            table[(weights[a:b] @ bits_t).astype(np.intp)]
            for a, b in ((lo, hi), (half + lo, half + hi))
        )
        values[lo:hi] = np.abs(np.einsum("bi,bi->b", np.conj(sy), sx)) ** 2
    return values


def _sweep(bra, tape, enc, params: KernelParams, ry):
    """Reverse sweep: d<bra|psi>/d(theta_k) for all parameters of one side.

    Each trainable block contributes <t|G|s>, with s the forward state just
    after the block and t the bra pulled back through all later gates. The
    generators commute with their own gates, so the Ry and R_NX terms can be
    taken one step later in the sweep, at points the sweep visits anyway;
    only the layer-entry and post-Rz forward states have to be taped. The
    Ry generator -(i/2) sum_q Y_q = (1/2) sum_q J_q acts on the matrix view
    S of a state as (J_hi @ S + S @ J_lo^T) / 2.
    """
    batch, dim = bra.shape
    n = dim.bit_length() - 1
    n_hi = n // 2
    shape = (batch, 1 << n_hi, 1 << (n - n_hi))
    zdiag = _zdiag(n)
    j_hi = _jsum(n_hi)
    j_lo_t = _jsum(n - n_hi).T
    num_layers = params.num_layers
    dc = np.empty((batch, num_layers, 3), dtype=np.complex128)
    t = bra
    for layer in reversed(range(num_layers)):
        t_rnx, t_rz, _ = params.angles[layer]
        s_in, s_rz = tape[layer]
        left, right = _layer_factors(enc, ry[layer])
        tm = np.conj(np.swapaxes(left, 1, 2)) @ t.reshape(shape) @ np.conj(right)
        t = tm.reshape(batch, -1)
        sm = s_rz.reshape(shape)
        dc[:, layer, 2] = 0.5 * np.einsum(
            "bij,bij->b", np.conj(tm), j_hi @ sm + _times(sm, j_lo_t)
        )
        dc[:, layer, 1] = -0.5j * np.einsum("bi,i,bi->b", np.conj(t), zdiag, s_rz)
        t = t * np.exp(0.5j * t_rz * zdiag)
        t = _apply_rnx_batch(t, -t_rnx)
        dc[:, layer, 0] = -0.5j * np.einsum("bi,bi->b", np.conj(t), s_in[:, ::-1])
    return dc.reshape(batch, 3 * num_layers)


def kernel_values_and_gradients(codes_x, codes_y, params: KernelParams):
    """Batched kernel values and exact parameter gradients.

    Returns (values (batch,), gradients (batch, 3L)). Gradient columns follow
    the row-major flattening of KernelParams.angles. Both feature states
    depend on theta, so the derivative of c = <psi(y)|psi(x)> sums the x-side
    sweep and the conjugated y-side sweep; dK = 2 Re(conj(c) dc).
    """
    codes_x = np.asarray(codes_x)
    codes_y = np.asarray(codes_y)
    ry = _ry_blocks(params, codes_x.shape[1])
    sx, tape_x, enc_x = _forward(codes_x, params, ry, keep_tape=True)
    sy, tape_y, enc_y = _forward(codes_y, params, ry, keep_tape=True)
    c = np.einsum("bi,bi->b", np.conj(sy), sx)
    dcx = _sweep(sy, tape_x, enc_x, params, ry)
    dcy = _sweep(sx, tape_y, enc_y, params, ry)
    dc = dcx + np.conj(dcy)
    values = np.abs(c) ** 2
    grads = 2.0 * np.real(np.conj(c)[:, None] * dc)
    return values, grads


def kernel_values_and_loss_gradient(codes_x, codes_y, targets, params: KernelParams):
    """Batched kernel values and the gradient of the batch MSE.

    Returns (values (batch,), gradient (3L,)) for the loss
    mean_r (K_r - targets_r)^2, whose gradient is sum_r w_r dK_r with
    w = (2 / batch)(K - targets). With c = <psi(y)|psi(x)> and
    dK = 2 Re(conj(c) dc), that is 2 Re of the sum over rows of
    <w c psi(y)|d psi(x)> + <w conj(c) psi(x)|d psi(y)>: one bra per row of
    each side, taken against its own state's derivative. The states are
    gathered from one taped forward pass over the stacked rows'
    compositions, as in kernel_values, and since psi = P_pi psi(canonical)
    each bra maps back into its composition's frame by the transpose of the
    same gather, a scatter-add (np.bincount, real and imaginary parts
    apart). The sweep is linear in its bra, so the mapped bras of a
    composition add up, and one sweep per composition gives the whole
    gradient. The x and y rows must be aligned, with one target each; the
    models' check_pairs sees to that.
    """
    half, n = codes_x.shape
    canon, row_state, rank = _compositions(np.concatenate([codes_x, codes_y]))
    ry = _ry_blocks(params, n)
    states, tape, enc = _forward(canon, params, ry, keep_tape=True)
    weights, bits_t = _gather_factors(row_state, rank)
    index = (weights @ bits_t).astype(np.intp)
    rows = states.reshape(-1)[index]
    sx, sy = rows[:half], rows[half:]
    c = np.einsum("bi,bi->b", np.conj(sy), sx)
    values = np.abs(c) ** 2
    w = (2.0 / half) * (values - np.asarray(targets, dtype=np.float64))
    bras = np.concatenate([(w * c)[:, None] * sy, (w * np.conj(c))[:, None] * sx])
    index = index.reshape(-1)
    canon_bras = np.bincount(index, bras.real.reshape(-1), states.size) + 1j * np.bincount(
        index, bras.imag.reshape(-1), states.size
    )
    dc = _sweep(canon_bras.reshape(states.shape), tape, enc, params, ry)
    return values, 2.0 * np.real(dc.sum(axis=0))


def kernel_eval(x: str, y: str, params: KernelParams) -> float:
    """Kernel value via the reference route: two feature states, one overlap."""
    fx = feature_state(x, params)
    fy = feature_state(y, params)
    return float(abs(inner_product(fy, fx)) ** 2)


@dataclass(frozen=True)
class QuantumKernelModel:
    """Trainable quantum kernel over fixed-width sequences.

    Exposes the flat-parameter protocol shared with the classical baselines:
    init_params / kernel_batch / kernel_and_grad_batch, so the training loop
    does not care which family it is optimizing.
    """

    num_qubits: int
    num_layers: int

    @property
    def num_parameters(self) -> int:
        return 3 * self.num_layers

    def _params(self, flat) -> KernelParams:
        params = KernelParams.from_flat(flat)
        if params.num_layers != self.num_layers:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {np.size(flat)}"
            )
        return params

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return KernelParams.random(self.num_layers, rng).flat()

    def kernel_batch(self, flat_params, codes_a, codes_b) -> np.ndarray:
        codes_a, codes_b = check_pairs(self.num_qubits, codes_a, codes_b)
        return kernel_values(codes_a, codes_b, self._params(flat_params))

    def kernel_and_grad_batch(self, flat_params, codes_a, codes_b, targets=None):
        """Kernel values and per-row gradients (batch, P); given targets,
        kernel values and the gradient (P,) of the batch MSE instead."""
        codes_a, codes_b = check_pairs(self.num_qubits, codes_a, codes_b, targets)
        params = self._params(flat_params)
        if targets is None:
            return kernel_values_and_gradients(codes_a, codes_b, params)
        return kernel_values_and_loss_gradient(codes_a, codes_b, targets, params)

    def checkpoint_payload(self, flat_params, seed, epoch) -> dict:
        return {
            "model": "quantum",
            "num_qubits": self.num_qubits,
            "layers": self.num_layers,
            "theta": [float(v) for v in np.asarray(flat_params)],
            "seed": int(seed),
            "epoch": int(epoch),
        }
