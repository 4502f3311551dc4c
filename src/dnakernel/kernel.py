"""Variational kernel values K(x, y) = |<psi(y)|psi(x)>|^2 and exact gradients.

This module is the batched engine: it vectorizes whole arrays of pairs at
once and differentiates with a reverse sweep (one generator insertion per
gate block, states shared between blocks), which is what makes training over
thousands of pairs per epoch affordable. ``kernel_eval`` alone takes the
other route, the gate-by-gate reference of the circuits module, and shares
no function with the engine; the test suite pins the two routes against each
other and against finite differences.

Value-only calls (``kernel_values``) use the circuit's permutation
invariance as an algorithm. Every trainable gate commutes with qubit swaps
and the encoding is a product over positions, so permuting a sequence's
positions permutes its feature state's qubits: psi(x o pi) = P_pi psi(x)
exactly, where P_pi permutes the bits of the amplitude index. Each row's
state is therefore an index permutation of the state of its sorted
sequence, and only one sequence per letter composition of a call (at most
C(n + 3, 3), 165 at n = 8) goes through the circuit. Ranking makes one call
per set of test triplets, so each composition among the set's a, b and c
sequences is simulated once. Each overlap is then one BLAS dot per pair, so
a value depends on its own pair only, not on the rest of the call.

Training uses the same identity and frames for the gradient of a batch
loss (``kernel_values_and_loss_gradient``, the models' loss mode), whose
weight w = dloss/dK per row the caller's cotangent gives. The sweep is
linear in its bra, and each row's bra, its partner's state in the row's
own canonical frame times its weight, adds to the others of its
composition: one forward pass and one sweep per distinct composition give
the whole gradient. Per-row gradients are one-row calls with weight 1.

The circuit runs in real arithmetic where it can. A letter's encoding is
Ry(tilt) then P(phase), and T, G, C share one tilt (circuits.LETTER_ANGLES).
Ry angles add, so a layer's block V(x) Ry(theta)^n is Phi_x, a diagonal of
phases, times the real product of Ry(theta + tilt_q) over the qubits, which
depends on x only through which qubits are tilted (see _rotations,
_phases, _forward).

Each call keeps its state-sized arrays in one block, written with out=.
One forward loop serves both calls: layer l reads its entry state from a
tape and writes its output to the next slot, round the tape. The loss call
passes a tape of L + 1 states, each layer's entry state and the last
output, and four work rows, two of them the phase diagonals, which the
reverse sweep reuses with the call's bra array for all its buffers: L + 5
states per canonical row. kernel_values passes a ring of two states and
three work rows, five per canonical row, beside its canonical states and
the gathers of its overlaps. The layers' parameter tables, the real Ry
factors of every tilt mask present (_rotations) and the R_NX and Rz
diagonals (_rnx_rz), are built once per call, for all forward passes and
the sweep alike. glibc unmaps freed temporaries above its mmap threshold
and the next call faults them back in; freeing one block of the call's
size raises its mmap threshold to that size and its trim threshold to
twice it, so warm calls reuse mapped heap pages while the call's other
arrays stay smaller than the block.

Batched states are (batch, 2^n) complex arrays, amplitude index convention
as in the circuits module (qubit 0 = most significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from dnakernel.circuits import (
    ALPHABET,
    LETTER_ANGLES,
    KernelParams,
    encode,
    feature_state,
    validate_sequence,
)


def _tilt_table(letter_angles) -> tuple:
    """The letters' distinct Ry tilts, and each letter's slot among them; a
    qubit's real factor is chosen by one tilt bit, so at most two."""
    tilts, index = np.unique(np.asarray(letter_angles)[:, 0], return_inverse=True)
    if tilts.size > 2:
        raise ValueError(f"letters take {tilts.size} Ry tilts {tilts}; the engine needs <= 2")
    return tilts, index


_TILTS, _TILT_INDEX = _tilt_table(LETTER_ANGLES)
_PHASES = np.exp(1j * LETTER_ANGLES[:, 1])

# bytes of rows per pass of kernel_values, which bounds its working set:
# 80 rows of 256-amplitude states, so a forward pass's ring of two and
# three work rows per canonical row (1.6 MB) and an overlap block's two and
# a half states per pair stay within a 2 MiB per-core L2
VALUE_BYTES = 5 << 16
# elements per BLAS dot of _dots
DOT_AMPLITUDES = 1 << 13


@cache
def _bits(num_qubits: int) -> np.ndarray:
    """(2^n, n) table of the amplitude indices' bits, qubit 0 most significant."""
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    return (idx[:, None] >> np.arange(num_qubits - 1, -1, -1, dtype=np.int64)) & 1


@cache
def _weights(num_qubits: int) -> np.ndarray:
    """Popcount of every amplitude index."""
    return _bits(num_qubits).sum(axis=1)


@cache
def _zdiag(num_qubits: int) -> np.ndarray:
    """Diagonal of sum_q Z_q: entry i is n - 2*popcount(i)."""
    return (num_qubits - 2 * _weights(num_qubits)).astype(np.float64)


def _kron_rows(mats) -> np.ndarray:
    """Kronecker products of (..., k, 2, 2) matrices over axis -3, qubit 0
    first. Each step writes its four products out * mats[q][i, j] into the
    strided slices [i::2, j::2] of one new output."""
    out = np.ones((*mats.shape[:-3], 1, 1), dtype=mats.dtype)
    for q in range(mats.shape[-3]):
        step = np.empty((*out.shape[:-2], 2 * out.shape[-2], 2 * out.shape[-1]), mats.dtype)
        for i, j in np.ndindex(2, 2):
            np.multiply(out, mats[..., q, i, j, None, None], out=step[..., i::2, j::2])
        out = step
    return out


@cache
def _jsum(num_qubits: int) -> np.ndarray:
    """sum_q J_q over a k-qubit register, J = -iY = [[0, -1], [1, 0]]: +-1
    where the indices differ in one bit, + where the row index has it."""
    idx = np.arange(1 << num_qubits)
    diff = idx[:, None] ^ idx
    return np.where((diff & (diff - 1) == 0) & (diff > 0), np.sign(idx[:, None] - idx), 0.0)


def encode_sequences(seqs) -> np.ndarray:
    """Map equal-length sequences to a (batch, n) array of base codes
    (circuits.encode); n is the first sequence's length, so it must be a
    nonempty sequence."""
    seqs = list(seqs)
    if not seqs:
        raise ValueError("empty sequence batch")
    return encode(seqs, len(validate_sequence(seqs[0])))


def check_pairs(width: int, codes_a, codes_b):
    """``codes_a`` and ``codes_b`` as arrays, checked to be aligned (batch,
    width) integer base codes in 0..3."""
    codes_a, codes_b = np.asarray(codes_a), np.asarray(codes_b)
    for codes in (codes_a, codes_b):
        if codes.ndim != 2 or codes.shape[1] != width:
            raise ValueError(f"expected codes of width {width}, got {codes.shape}")
        # one pass: the codes' OR sets no bit past the lowest two iff all are in 0..3
        if codes.dtype.kind not in "iu" or np.bitwise_or.reduce(codes, axis=None) >> 2:
            raise ValueError("base codes must be integers in 0..3")
    if codes_a.shape != codes_b.shape:
        raise ValueError(f"unaligned code batches: {codes_a.shape} vs {codes_b.shape}")
    return codes_a, codes_b


def _ry(angles) -> np.ndarray:
    """Real Ry matrices (..., 2, 2) for an array of angles."""
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _rotations(codes, params: KernelParams) -> list:
    """Each layer's real factor per register half (the leading n//2 qubits,
    then the rest) for a batch of codes: rot[k] = (table, which), where
    table[l, m] is half k's product of Ry(tilt_q) Ry(theta_ry) at layer l
    for the m-th tilt mask present, and row r's is table[:, which[r]]. A
    mask's table is the same product whatever other masks are present."""
    n = codes.shape[1]
    # (L, tilts, 2, 2); rounds closer to the gate route than Ry(theta + tilt)
    ry = _ry(_TILTS) @ _ry(params.angles[:, 2])[:, None]
    rot = []
    for lo, hi in ((0, n // 2), (n // 2, n)):
        masks = _TILT_INDEX[codes[:, lo:hi]] @ (1 << np.arange(hi - lo))[::-1]
        present, which = np.unique(masks, return_inverse=True)
        rot.append((_kron_rows(ry[:, _bits(hi - lo)[present]]), which.reshape(-1)))
    return rot


def _phases(codes, phase) -> None:
    """Write Phi_x, the diagonal of phases of each row's encoding, into
    ``phase``, a (2, rows, 2^n) array: phase[p] is it with half p leading."""
    n = codes.shape[1]
    diag = [np.where(_bits(hi - lo), _PHASES[codes[:, lo:hi]][:, None], 1).prod(axis=-1)
            for lo, hi in ((0, n // 2), (n // 2, n))]
    for p in (0, 1):
        np.multiply(diag[p][:, :, None], diag[1 - p][:, None, :],
                    out=phase[p].reshape(len(codes), diag[p].shape[1], -1))


def _rotate(states, mats, out):
    """mats @ S per row into ``out``, a state-shaped array: S a state viewed
    (rows, d, 2^n/d) and mats a real (rows, d, d) stack or one (d, d)
    matrix. One real product on the float64 views, where real and imaginary
    parts interleave on the last axis."""
    np.matmul(mats, _float_view(states, mats.shape[-1]), out=_float_view(out, mats.shape[-1]))
    return out


def _float_view(states, d):
    """The float64 view of states (..., 2^n) as (..., d, 2^(n+1)/d), real
    and imaginary parts interleaved on the last axis: the operand of a left
    product by the factor of the leading register half, of d amplitudes."""
    return states.view(np.float64).reshape(*states.shape[:-1], d, -1)


def _transpose(states, d, out):
    """States viewed (rows, d, 2^n/d), with the two axes swapped, copied into
    ``out``."""
    swapped = states.reshape(len(states), d, -1).swapaxes(1, 2)
    out.reshape(swapped.shape)[...] = swapped
    return out


def _rnx_rz(params: KernelParams, num_qubits: int) -> tuple:
    """Every layer's R_NX then Rz as two (L, 2^n) diagonals, keep and flip:
    the layer maps s to keep * s + flip * s[:, ::-1] (R_NX = cos - i sin X^n,
    X^n the index reversal). keep = cos(t_rnx / 2) exp(-i t_rz Z / 2) and
    flip = -i sin(t_rnx / 2) exp(-i t_rz Z / 2), Z = ``_zdiag``. Z takes
    n + 1 values, one per popcount w (n - 2w): both tables are evaluated on
    those and gathered by each index's popcount."""
    t_rnx, t_rz = params.angles[:, :1], params.angles[:, 1:2]
    rz = np.exp(-0.5j * t_rz * (num_qubits - 2.0 * np.arange(num_qubits + 1)))
    weights = _weights(num_qubits)
    # take, not [:, weights], whose result is column-major: the layers read rows
    return (np.take(np.cos(t_rnx / 2) * rz, weights, axis=1),
            np.take(-1j * np.sin(t_rnx / 2) * rz, weights, axis=1))


def _forward(codes, params, tape, work, tables):
    """Run the re-uploading circuit on a batch of codes.

    ``tables`` is (rot, keep, flip): _rotations' factors of these rows and
    _rnx_rz's diagonals. Returns (states, factors): factors are (rot, phase,
    keep, flip), phase the rows' Phi_x from _phases. Each layer applies R_NX,
    the Rz diagonal, the real factor of register half p, that of half 1 - p,
    and Phi_x. A factor is a left product on the state viewed as a stack
    with its half leading, so the state is transposed once between them and
    the layout alternates: layer l starts with half l % 2 leading. R_NX (the
    index complement) and Rz (a function of the index's popcount) read the
    same in both layouts. Final states are in layout 0.

    Every state-sized result goes into the caller's arrays. ``tape``, (T,
    rows, 2^n) with T >= 2, is a ring: layer l reads tape[l % T] and writes
    its output to tape[(l + 1) % T], in the next layer's layout. A tape of
    L + 1 keeps every layer's entry state and the last output for _sweep; a
    ring of two keeps only the states in flight. ``work`` is (k, rows, 2^n)
    scratch, k >= 3: its last two rows receive the phase, and work[0] holds
    the post-Rz state and then, once that is read, the transposed one. The
    states returned are the last output, or its transpose in work[0] at odd
    depth.
    """
    rot, keep, flip = tables
    phase, mid = work[-2:], work[0]
    _phases(codes, phase)
    num_layers = params.num_layers
    tape[0] = 0.0
    tape[0, :, 0] = 1.0
    for layer in range(num_layers):
        p = layer % 2
        s, out = tape[layer % len(tape)], tape[(layer + 1) % len(tape)]
        np.multiply(s, keep[layer], out=mid)
        mid += np.multiply(flip[layer], s[:, ::-1], out=out)
        table, which = rot[p]
        _transpose(_rotate(mid, table[layer][which], out=out), table.shape[-1], out=mid)
        table, which = rot[1 - p]
        _rotate(mid, table[layer][which], out=out)
        out *= phase[1 - p]
    s = tape[num_layers % len(tape)]
    if num_layers % 2:
        s = _transpose(s, rot[1][0].shape[-1], out=mid)
    return s, (rot, phase, keep, flip)


def _compositions(codes_x, codes_y):
    """Canonical rows of the stacked (x; y) codes, found from letter counts.

    Returns (canon, row_state, frame). canon holds the distinct sorted rows,
    in lexicographic order; row_state[r] indexes stacked row r's one. A
    row's key is its letter counts, read in base n + 1 with digit
    n - count(letter), letter 0 first, so ascending keys are ascending
    sorted rows. Keys are below (n + 1)^4, so a table over all of them
    finds the present ones in ascending order without a sort: it holds a
    row of each key (all of a key's rows sort to the same canonical row),
    then the key's canonical index. rank[r, q] is the slot of position q in
    row r's stable sort (the positions with a smaller code, or an equal one
    earlier). Row i of each half partners row i of the other; slot s of row
    r's sorted sequence holds the qubit q with rank_r(q) = s, slot
    rank_partner(q) of the partner's, so _gather with
    frame[r] = rank_partner o rank_r^-1 brings the partner's canonical state
    into row r's sorted frame.
    """
    codes = np.concatenate([codes_x, codes_y])
    rows, n = codes.shape
    letters = len(ALPHABET)
    # slot r * 4 + code holds row r's letter; counts and ranks are at most n
    slots = np.add(codes, np.arange(0, rows * letters, letters)[:, None], dtype=np.intp)
    # a slot counts its row's earlier positions with its letter (one
    # position's slots are distinct, one per row, so += 1 counts each); the
    # totals are the letter counts, which give each letter's first sorted slot
    seen = np.zeros(rows * letters, np.min_scalar_type(n))
    rank = np.empty((rows, n), seen.dtype)
    for q, slot in enumerate(slots.T):
        rank[:, q] = seen[slot]
        seen[slot] += 1
    counts = seen.reshape(rows, letters)
    rank += (np.cumsum(counts, axis=1, dtype=counts.dtype) - counts).reshape(-1)[slots]
    frame = np.empty_like(rank)
    half = len(codes_x)
    np.put_along_axis(frame[:half], rank[:half], rank[half:], axis=1)
    np.put_along_axis(frame[half:], rank[half:], rank[:half], axis=1)
    key = (n - counts) @ (n + 1) ** np.arange(letters - 1, -1, -1)
    table = np.full((n + 1) ** letters, -1, np.intp)
    table[key] = np.arange(rows)
    present = np.flatnonzero(table >= 0)
    canon = np.sort(codes[table[present]], axis=1)
    table[present] = np.arange(len(present))
    return canon, table[key], frame


@cache
def _gather_basis(num_qubits: int) -> np.ndarray:
    """_gather's right factor: the transposed bit table over a row of ones."""
    return np.vstack([_bits(num_qubits).T, np.ones(1 << num_qubits)])


def _gather(table, row_state, rank, out, index):
    """Canonical states of the flattened ``table`` permuted into ``out``
    (rows, 2^n) through ``index``, an intp array of the same shape: qubit q
    of row r is slot rank[r, q] of state row_state[r] (rank[r] a permutation
    of 0..n-1, such as a frame from _compositions).

    Row r's amplitude i is table[index[r, i]], index[r] = weights[r] @ basis:
    the powers of two of its slots plus its state's offset (a last column)
    times the bit table over a row of ones. One float64 BLAS product, formed
    in out's memory, builds the indices of many rows, exact because every
    index is far below 2^53. np.take writes into ``out`` unbuffered only in
    mode "clip", and never clips here: an index is the row's state offset
    (row_state < len(canon)) times 2^n plus distinct powers of two below 2^n
    (a row's ranks are a permutation of 0..n-1), inside that row's state.
    """
    n = rank.shape[1]
    weights = np.column_stack([np.ldexp(1.0, n - 1 - rank), row_state << n])
    product = out.reshape(-1).view(np.float64)[: out.size].reshape(out.shape)
    np.matmul(weights, _gather_basis(n), out=product)
    np.copyto(index, product, casting="unsafe")
    return np.take(table, index, out=out, mode="clip")


def kernel_values(codes_x, codes_y, params: KernelParams) -> np.ndarray:
    """Batched kernel values for aligned rows of codes_x and codes_y.

    The x and y rows are stacked and grouped by composition; only one sorted
    row per composition goes through the circuit. If slot rank(q) of a
    row's sorted sequence holds the base of its qubit q, its amplitude at
    index i is the sorted state's at sum_q bit_q(i) 2^(n-1-rank(q)): the bit
    permutation P_pi of psi(x o pi) = P_pi psi(x), an identity of the
    circuit, so values equal the direct route's up to float rounding. Each
    overlap is taken in y's canonical frame: y's state is a row take of the
    canonical states, x's one gather with y's frame from _compositions, and
    <y|x> one row dot per pair (_dots). Circuit and overlap passes take as
    many rows as VALUE_BYTES holds states, which bounds the working set
    without changing any row's result; the circuit passes share one set of
    parameter tables, built for all canonical rows. The rows must be
    aligned; the models' check_pairs sees to that.

    The call's one block holds the canonical states, then scratch for the
    forward passes (_forward's ring of two and work) and, after them, each
    overlap block's x rows, y rows and gather indices. _gather says why its
    unchecked indices stay in range; the row takes stay in range because
    every row_state is below len(canon).
    """
    half, n = codes_x.shape
    dim, block_rows = 1 << n, max(1, VALUE_BYTES >> (n + 4))
    canon, row_state, frame = _compositions(codes_x, codes_y)
    rot, keep, flip = _rotations(canon, params), *_rnx_rz(params, n)
    # a forward pass takes five states per canonical row, a ring of two and
    # three work rows; an overlap block two per pair plus an intp index, as
    # large as half a state
    scratch_rows = max(5 * min(len(canon), block_rows), -(-5 * min(half, block_rows) // 2))
    block = np.empty((len(canon) + scratch_rows, dim), dtype=np.complex128)
    states, scratch = block[: len(canon)], block[len(canon) :].reshape(-1)
    for lo in range(0, len(canon), block_rows):
        codes = canon[lo : lo + block_rows]
        work = scratch[: 5 * len(codes) * dim].reshape(5, len(codes), dim)
        tables = ([(table, which[lo : lo + block_rows]) for table, which in rot], keep, flip)
        states[lo : lo + block_rows] = _forward(codes, params, work[:2], work[2:], tables)[0]
    table = states.reshape(-1)
    values = np.empty(half)
    for lo in range(0, half, block_rows):
        rows = min(block_rows, half - lo)
        sx, sy = scratch[: 2 * rows * dim].reshape(2, rows, dim)
        index = scratch[2 * rows * dim :].view(np.intp)[: rows * dim].reshape(rows, dim)
        _gather(table, row_state[lo : lo + rows], frame[half + lo : half + lo + rows], sx, index)
        np.take(states, row_state[half + lo : half + lo + rows], axis=0, out=sy, mode="clip")
        values[lo : lo + rows] = np.abs(_dots(sy, sx)) ** 2
    return values


def _dots(a, b) -> np.ndarray:
    """Row dots sum_i conj(a[r, i]) b[r, i] of two (rows, width) arrays.

    Each row is one BLAS dot (np.vecdot) per chunk of DOT_AMPLITUDES
    elements, the chunk sums added outside BLAS; a row of at most that many
    is one dot, with no sum to take. OpenBLAS splits a long dot across its
    threads, whose partial sums round differently from one thread's: dots
    of 2^13 elements gave the same bytes at 1 and 2 threads, dots of 2^14
    did not, so no result depends on the BLAS thread count.
    """
    rows, width = a.shape
    if width <= DOT_AMPLITUDES:
        return np.vecdot(a, b)
    chunks = (rows, -1, DOT_AMPLITUDES)
    return np.vecdot(a.reshape(chunks), b.reshape(chunks)).sum(axis=1)


def _re_dot(bra, ket) -> float:
    """Re <bra|ket> summed over rows: _dots of the float64 views."""
    return _dots(bra.view(np.float64), ket.view(np.float64)).sum()


def _sweep(bra, tape, work, factors, params: KernelParams):
    """Reverse sweep: Re d<bra|psi>/d(theta_k), summed over rows.

    Each trainable block contributes <t|G|s>, with s the forward state just
    after the block and t the bra pulled back through all later gates, in
    the forward layouts. Generators commute with their own gates, so the
    R_NX term is taken one step later, and the Ry term (J_0 + J_1)/2, J_k the
    real sum of -iY over half k's qubits, at each half's factor: against the
    post-Rz state, and the layer's output with Phi_x undone. The tape keeps
    no post-Rz state: each layer's is replayed from its entry state by the
    forward's own two statements, operands and order, so it is the
    forward's bytes.

    ``tape``, ``work`` and ``factors`` come from one _forward with a tape
    of L + 1: tape[l] is layer l's entry state and tape[l + 1] its output,
    in their forward layouts. The sweep overwrites ``bra`` and work: t is
    pulled back in place in one of bra, work[0] and work[1], every product
    goes into one of the other two, the replayed post-Rz state into tape[L]
    once the last output there is read, and Phi_x is conjugated in place in
    work[-2:]. Rotations run on float64 views of those arrays made once per
    call. Pulling back through R_NX and Rz reads the forward's tables
    reversed, since Z at the complement index is -Z: keep reversed is
    cos(t_rnx / 2) exp(i t_rz Z / 2) bit for bit, and flip, also conjugated,
    is i sin(t_rnx / 2) exp(-i t_rz Z / 2) up to the sign of zero entries.
    """
    rot, phase, keep, flip = factors
    num_layers, n = params.num_layers, bra.shape[1].bit_length() - 1
    dims = [table.shape[-1] for table, _ in rot]
    jsum = [_jsum(n // 2), _jsum(n - n // 2)]
    rz_gen = -0.5j * _zdiag(n)
    phase_conj = np.conj(phase, out=phase)
    grad = np.empty((num_layers, 3))
    t, a, b, s_rz = bra, work[0], work[1], tape[num_layers]
    if num_layers % 2:
        t, a = _transpose(bra, dims[0], out=a), t
    # float64 views of the rotated arrays, with either half leading
    t_f, a_f, b_f, s_rz_f = ([_float_view(x, d) for d in dims] for x in (t, a, b, s_rz))
    for layer in reversed(range(num_layers)):
        s_in = tape[layer]
        p, q = layer % 2, 1 - layer % 2
        # Phi_x, then half q's factor: its Ry term against the output with
        # Phi_x undone, and t pulled back through it and the transpose
        t *= phase_conj[q]
        np.multiply(tape[layer + 1], phase_conj[q], out=a)
        np.matmul(jsum[q], a_f[q], out=b_f[q])
        ry_q = _re_dot(t, b)
        table, which = rot[q]
        np.matmul(np.swapaxes(table[layer], 1, 2)[which], t_f[q], out=a_f[q])
        _transpose(a, dims[q], out=t)
        # half p's factor, then the Ry and Rz terms against the post-Rz
        # state, replayed as _forward made it, with t (in a) pulled back to
        # just after Rz
        table, which = rot[p]
        np.matmul(np.swapaxes(table[layer], 1, 2)[which], t_f[p], out=a_f[p])
        np.multiply(s_in, keep[layer], out=s_rz)
        s_rz += np.multiply(flip[layer], s_in[:, ::-1], out=b)
        np.matmul(jsum[p], s_rz_f[p], out=b_f[p])
        grad[layer, 2] = 0.5 * (_re_dot(a, b) + ry_q)
        grad[layer, 1] = _re_dot(a, np.multiply(rz_gen, s_rz, out=b))
        # Rz and R_NX, back into t; the R_NX term against the layer's input
        np.multiply(a, keep[layer, ::-1], out=t)
        t += np.multiply(np.conj(flip[layer, ::-1]), a[:, ::-1], out=b)
        grad[layer, 0] = _re_dot(t, np.multiply(-0.5j, s_in[:, ::-1], out=b))
    return grad.reshape(-1)


def kernel_values_and_loss_gradient(codes_x, codes_y, cotangent, params: KernelParams):
    """Batched kernel values and the gradient of a loss over them.

    Returns (values (batch,), gradient (3L,)) of sum_r w_r K_r, with
    w = cotangent(values) the loss's dloss/dK per row. With c = <psi(y)|psi(x)>
    and dK = 2 Re(conj(c) dc), the gradient is 2 Re of the sum over rows of
    <w c psi(y)|d psi(x)> + <w conj(c) psi(x)|d psi(y)>. After one forward
    pass over the compositions through a tape of L + 1 states, each stacked
    row gathers its partner's canonical state into its own frame
    (_compositions): c is taken in y's by the same row dots (_dots) as in
    kernel_values, so the values are kernel_values'. A row's bra, w c (x row) or w conj(c) (y row) times
    that state, is in its composition's frame, so each composition's bras
    add row by row, outside BLAS, before the sweep. The rows must be
    aligned; check_pairs sees to that.
    """
    half = len(codes_x)
    canon, row_state, frame = _compositions(codes_x, codes_y)
    n = codes_x.shape[1]
    # one block for the tape, each layer's entry state and the last output,
    # and the work rows of the forward pass and the sweep (see _forward, _sweep)
    block = np.empty((params.num_layers + 5, len(canon), 1 << n), dtype=np.complex128)
    tape, work = block[:-4], block[-4:]
    tables = (_rotations(canon, params), *_rnx_rz(params, n))
    states, factors = _forward(canon, params, tape, work, tables)
    rows = np.empty((2 * half, states.shape[1]), np.complex128)
    _gather(states.reshape(-1), np.roll(row_state, half), frame, rows, np.empty_like(rows, np.intp))
    c = _dots(np.take(states, row_state[half:], axis=0), rows[half:])
    values = np.abs(c) ** 2
    w = cotangent(values)
    rows *= np.concatenate([w * c, w * np.conj(c)])[:, None]
    bras = np.zeros_like(states)
    for state, bra in zip(row_state, rows):
        bras[state] += bra
    # the sweep needs none of the rows; bra, a view of the last, would keep them
    del rows, bra
    return values, 2.0 * _sweep(bras, tape, work, factors, params)


def kernel_eval(x: str, y: str, params: KernelParams) -> float:
    """Kernel value via the reference route: two feature states, one overlap."""
    if len(x) != len(y):
        raise ValueError(f"sequence length mismatch: {len(x)} vs {len(y)}")
    return float(abs(np.vdot(feature_state(y, params), feature_state(x, params))) ** 2)


@dataclass(frozen=True)
class QuantumKernelModel:
    """Trainable quantum kernel over fixed-width sequences.

    Exposes the flat-parameter protocol shared with the classical baselines:
    init_params / kernel_batch / kernel_and_grad_batch, so the training loop
    does not care which family it is optimizing.
    """

    num_qubits: int
    num_layers: int

    def __post_init__(self):
        for field in ("num_qubits", "num_layers"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")

    @property
    def num_parameters(self) -> int:
        return 3 * self.num_layers

    def _params(self, flat) -> KernelParams:
        params = KernelParams.from_flat(flat)
        if params.num_layers != self.num_layers:
            raise ValueError(f"expected {self.num_parameters} parameters, got {np.size(flat)}")
        return params

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return KernelParams.random(self.num_layers, rng).flat()

    def kernel_batch(self, flat_params, codes_a, codes_b) -> np.ndarray:
        codes_a, codes_b = check_pairs(self.num_qubits, codes_a, codes_b)
        return kernel_values(codes_a, codes_b, self._params(flat_params))

    def kernel_and_grad_batch(self, flat_params, codes_a, codes_b, cotangent=None):
        """Kernel values and the gradient (P,) of sum_r w_r K_r, with
        w = cotangent(values); without a cotangent, per-row gradients
        (batch, P), each a one-row call with weight 1."""
        codes_a, codes_b = check_pairs(self.num_qubits, codes_a, codes_b)
        params = self._params(flat_params)
        if cotangent is not None:
            return kernel_values_and_loss_gradient(codes_a, codes_b, cotangent, params)
        values = kernel_values(codes_a, codes_b, params)
        grads = [kernel_values_and_loss_gradient(a[None], b[None], np.ones_like, params)[1]
                 for a, b in zip(codes_a, codes_b)]
        return values, np.reshape(grads, (len(values), self.num_parameters))

    def checkpoint_payload(self, flat_params, seed, epoch) -> dict:
        return {
            "model": "quantum",
            "num_qubits": self.num_qubits,
            "layers": self.num_layers,
            "theta": [float(v) for v in np.asarray(flat_params)],
            "seed": int(seed),
            "epoch": int(epoch),
        }
