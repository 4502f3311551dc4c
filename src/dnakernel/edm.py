"""Ground-truth string metrics: Levenshtein and exact edit distance with moves.

The move operation relocates one contiguous substring to another position in
the string, at unit cost like insert, delete, and substitute. No reversal,
and cost does not scale with block length. Exact EDM is NP-complete in
general; at the sequence lengths used here (<= 10) it is computed exactly by
a bidirectional breadth-first search that meets in the middle.

Levenshtein is the bit-parallel dynamic program of Myers (J. ACM 1999) in
Hyyro's form for global edit distance: one bitmask per letter of the first
string and a few integer operations per letter of the second. The same DP
runs on Python integers for one pair and on numpy uint64 lanes for a batch.

``pair_bounds`` brackets the distance of many pairs in one numpy pass. The
upper bound is Levenshtein tightened by block moves, in the spirit of the
block-move bounds of Cormode & Muthukrishnan (SODA 2002): every single move
m of x gives 1 + levenshtein(m(x), y), and where that leaves the bracket
open, every second move m2 after each of the TWO_MOVE_SEEDS best single
moves m1 gives 2 + levenshtein(m2(m1(x)), y). A move is enumerated as a
swap of two adjacent non-empty blocks, s[i:j] and s[j:k]. The lower bound
counts letters and, after Ukkonen's q-gram distance (TCS 1992), bigrams of
^x$ against ^y$.

``exact_distances`` streams its pairs through one search, ``_Search``: a
pair whose bounds meet has its answer, and the others are searched together,
up to _SEARCH_BLOCK at a time. A string is one int64 key of 2-bit letters, a
BFS level of every open pair, of all lengths at once, is a few numpy passes
over frontier keys, and a node is not expanded when its depth plus the same
lower bound against its target reaches the best. Pairs queued while the
search runs join it at its next level, as slots free up; generation queues
a tie's redraw that way (``dataset._label_chunk``).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from dnakernel.circuits import ALPHABET, check_letters, encode

MAX_EDM_LENGTH = 10
NODE_BUDGET = 20_000_000
BOUNDS_BLOCK = 64  # pairs per numpy pass of pair_bounds at MAX_EDM_LENGTH (_bounds_rows)
TWO_MOVE_SEEDS = 8  # single moves per open pair that pair_bounds moves a second time

# bigram symbols: the letters, then the ^ and $ end markers
_START, _END = len(ALPHABET), len(ALPHABET) + 1
_SYMBOLS = len(ALPHABET) + 2
# set bits of every mask of up to MAX_EDM_LENGTH bits
_POPCOUNT = np.array([v.bit_count() for v in range(1 << MAX_EDM_LENGTH)], np.int64)
# search node keys (``_Search``): letters below bit _NODE_BITS, then side and pair
_NODE_BITS = 4 * MAX_EDM_LENGTH
_NODE_MASK = (1 << _NODE_BITS) - 1
_SIDE = 1 << _NODE_BITS
_SEARCH_BLOCK = 256  # slots of a _Search, its open pairs at once; below 2 ** (62 - _NODE_BITS)
_CHILD_BLOCK = 1 << 14  # children per numpy pass of the search
_SEARCH_KEYS = 1 << 13  # visited nodes of a _Search past which its later open pairs wait
_SENTINELS = 1 << 2 * np.arange(2 * MAX_EDM_LENGTH)  # the least node key of each length
_DIGITS = str.maketrans(ALPHABET, "0123")  # a string's letters as the base-4 digits of its key
_MOVES = np.array([math.comb(n + 1, 3) for n in range(2 * MAX_EDM_LENGTH)])  # of a length-n node


class BudgetExceededError(RuntimeError):
    """Search generated more child strings than NODE_BUDGET allows."""


def _check_length(x: str, y: str) -> None:
    if not (isinstance(x, str) and isinstance(y, str)):
        raise ValueError(f"expected strings, got {type(x).__name__} and {type(y).__name__}")
    if len(x) > MAX_EDM_LENGTH or len(y) > MAX_EDM_LENGTH:
        raise ValueError(
            f"exact search supports lengths up to {MAX_EDM_LENGTH}, "
            f"got {len(x)} and {len(y)}"
        )


def _pair_lists(xs, ys) -> tuple[list, list]:
    """xs and ys as lists of the same length (else ValueError)."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"got {len(xs)} first strings and {len(ys)} second strings")
    return xs, ys


def _lev_columns(eqs, m: int):
    """Last column of the Levenshtein DP between a length-``m`` pattern and a text.

    ``eqs`` holds one mask per letter of the text: the pattern positions
    holding that letter (bit i = pattern[i]). The masks are Python integers
    for one pair or numpy uint64 arrays with one lane per pair; the
    operations are the same. Column j of the DP table is held as vertical
    deltas D[i][j] - D[i-1][j] in two bitmasks: ``pv`` (bits where the delta
    is +1) and ``mv`` (-1). Bits above m - 1 hold junk, but carries and
    shifts only move information upward, so it never reaches the low m bits.
    Returns the last column's (pv, mv), masked to those bits: with n text
    letters, D[m][n] = n + popcount(pv) - popcount(mv), since D[0][n] = n.
    """
    mask = (1 << m) - 1
    pv, mv = mask, 0
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # row 0 of a global distance grows by one per column: carry in a +1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = mh | ~(xv | ph)
        mv = ph & xv
    return pv & mask, mv & mask


def levenshtein(x: str, y: str) -> int:
    """Unit-cost insert/delete/substitute distance by a bit-parallel DP."""
    check_letters(x)
    check_letters(y)
    peq = dict.fromkeys(ALPHABET, 0)
    for i, c in enumerate(x):
        peq[c] |= 1 << i
    pv, mv = _lev_columns([peq[c] for c in y], len(x))
    return len(y) + pv.bit_count() - mv.bit_count()


@functools.cache
def _move_table(n: int) -> np.ndarray:
    """Source positions of the identity (row 0) and of every single move.

    Row r lists, for each position of the moved string, the position of x it
    takes its letter from. A move swaps the adjacent non-empty blocks
    s[i:j] and s[j:k]. One table per length, n <= MAX_EDM_LENGTH.
    """
    rows = [list(range(n))]
    for i in range(n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                rows.append([*range(i), *range(j, k), *range(i, j), *range(k, n)])
    table = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    table.flags.writeable = False
    return table


def _bounds_rows(n: int) -> int:
    """Pairs with length-n first strings per numpy pass of ``pair_bounds``:
    BOUNDS_BLOCK at MAX_EDM_LENGTH, which keeps a pass under ~1 MB, and as
    many more at shorter n as their fewer moves leave room for, up to four
    times as many."""
    moves = len(_move_table(MAX_EDM_LENGTH)) // len(_move_table(n))
    return BOUNDS_BLOCK * min(4, moves)


def _row_counts(codes: np.ndarray, bins: int) -> np.ndarray:
    """Per-row histogram of the values 0..bins-1 in a 2-D code array."""
    rows = len(codes)
    flat = (codes + bins * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, minlength=bins * rows).reshape(rows, bins)


def _lev_lanes(texts: np.ndarray, yc: np.ndarray, repeats: int) -> np.ndarray:
    """levenshtein(text, y) of each lane: ``texts`` is (n, lanes) letter
    codes, one text per column, ``repeats`` lanes per row of ``yc`` in row
    order, and each lane's pattern is y, its row."""
    m = yc.shape[1]
    letters = len(ALPHABET)
    bits = np.uint64(1) << np.arange(m, dtype=np.uint64)
    peq = ((yc[:, :, None] == np.arange(letters)) * bits[:, None]).sum(1).ravel()
    base = np.repeat(np.arange(0, letters * len(yc), letters), repeats)
    pv, mv = _lev_columns((peq[base + column] for column in texts), m)
    return len(texts) + _POPCOUNT[pv] - _POPCOUNT[mv]


def _upper_bounds(xc: np.ndarray, yc: np.ndarray, lower: np.ndarray,
                  lc: np.ndarray) -> np.ndarray:
    """Edit distance with moves from above, in two stages.

    The first stage is min(lev(x, y), 1 + lev(m(x), y)) over every single
    move m of x. The second moves again each of the TWO_MOVE_SEEDS single
    moves m1 with the least lev(m1(x), y), ties going to the earlier move
    of ``_move_table``, and lowers the bound to 2 + lev(m2(m1(x)), y) over
    every move m2. A path of that many moves then edits turns x into y, so
    every term bounds from above. Moves keep letter counts and Levenshtein
    is at least the letter-count bound ``lc``, so a second-stage term is at
    least lc + 2: the stage runs only on pairs whose first-stage bound
    exceeds both that and ``lower``. Each pair's y is the pattern; x and its
    moved strings are uint8 texts, one uint64 lane each, and no pass of the
    second stage runs more lanes than a full first-stage block.
    """
    pairs, n = xc.shape
    if yc.shape[1] == 0 or n == 0:
        return np.full(pairs, n + yc.shape[1], np.int64)
    table = _move_table(n)
    moves = len(table) - 1
    score = _lev_lanes(xc[:, table].reshape(-1, n).T, yc, len(table)).reshape(pairs, -1)
    if not moves:
        return score[:, 0]
    upper = np.minimum(score[:, 0], 1 + score[:, 1:].min(1))
    open_ = np.flatnonzero(upper > np.maximum(lower, lc + 2))
    seeds = 1 + np.argsort(score[open_, 1:], axis=1, kind="stable")[:, :TWO_MOVE_SEEDS]
    del score  # the passes below stay within the first stage's memory
    lanes = seeds.shape[1] * moves  # per open pair
    step = max(1, _bounds_rows(n) * len(table) // lanes)
    for lo in range(0, len(open_), step):
        rows = open_[lo : lo + step]
        first = xc[rows[:, None, None], table[seeds[lo : lo + step]]]  # (rows, seeds, n)
        texts = first[:, :, table[1:]].reshape(-1, n).T
        second = _lev_lanes(texts, yc[rows], lanes).reshape(len(rows), -1).min(1)
        upper[rows] = np.minimum(upper[rows], 2 + second)
    return upper


def _lower_bound(lc, b):
    """lc + ceil(max(0, B - 4 lc) / 6): the lower bound of a pair whose
    letter-count bound is lc and whose bigram gap is B (``_lower_bounds``).

    Only substitutions, insertions and deletions change letter counts, each
    by at most one unit of need and one of surplus, so a path needs
    e >= lc letter operations. A substitution replaces two bigrams of ^s$
    (B changes by at most 4), an insertion or deletion replaces one by two
    or two by one (at most 3), and a move, which re-joins the string at
    three cut points, replaces three (at most 6). A path with e letter
    operations and k moves therefore has 4e + 6k >= B, so it is at least
    e + ceil((B - 4e) / 6) long, which does not decrease with e. Takes ints
    or elementwise integer arrays.
    """
    excess = b - 4 * lc
    return lc + (excess > 0) * ((excess + 5) // 6)


def _profile(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Letter counts and bigram counts of ^s$ of each row s of a 2-D code array."""
    rows, n = codes.shape
    ext = np.empty((rows, n + 2), np.intp)
    ext[:, 0], ext[:, 1:-1], ext[:, -1] = _START, codes, _END
    return (_row_counts(codes, len(ALPHABET)),
            _row_counts(ext[:, :-1] * _SYMBOLS + ext[:, 1:], _SYMBOLS * _SYMBOLS))


def _lower_bounds(n, profile, m, target) -> tuple[np.ndarray, np.ndarray]:
    """``_lower_bound`` of length-n strings against length-m targets, given
    both ``_profile``s, and the letter-count bounds lc = max(need, surplus):
    with c letters in common, need = m - c and surplus = n - c. B, the L1
    gap of the bigram counts of ^s$ and ^t$, is n + m + 2 minus twice the
    bigrams in common."""
    lc = np.maximum(n, m) - np.minimum(profile[0], target[0]).sum(1)
    b = n + m + 2 - 2 * np.minimum(profile[1], target[1]).sum(1)
    return _lower_bound(lc, b), lc


def pair_bounds(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) bounds on the edit distance with moves of each pair.

    Pairs are grouped by their length pair and run through numpy in blocks
    of at most ``_bounds_rows`` pairs; a block takes its lower bounds first, so
    that the upper bound's two-move stage runs only where it can close or
    narrow the bracket.
    Where upper <= lower, upper is the exact distance. Raises ValueError for
    symbols outside the alphabet, for lengths above MAX_EDM_LENGTH, and for
    batches of unequal size.
    """
    xs, ys = _pair_lists(xs, ys)
    groups: dict = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        _check_length(x, y)
        groups.setdefault((len(x), len(y)), []).append(i)
    upper = np.empty(len(xs), np.int64)
    lower = np.empty(len(xs), np.int64)
    for (n, m), members in groups.items():
        rows = _bounds_rows(n)
        for start in range(0, len(members), rows):
            idx = members[start : start + rows]
            xc = encode([xs[i] for i in idx], n)
            yc = encode([ys[i] for i in idx], m)
            lower[idx], lc = _lower_bounds(n, _profile(xc), m, _profile(yc))
            upper[idx] = _upper_bounds(xc, yc, lower[idx], lc)
    return upper, lower


def _slots(keys: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Letters of node keys from the end: slot j of a key is its letter j
    places from the end, at bits 2j, for j below the longest of ``lengths``
    (a shorter key's slots past its string hold its sentinel and zeros)."""
    return keys[:, None] >> 2 * np.arange(lengths.max(initial=0)) & 3


def _key_profile(slots: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_profile`` of node keys of mixed lengths from their ``_slots``: the
    slots and bigrams past a key's string count in a spare bin, dropped."""
    rows, width = slots.shape
    ends = lengths[:, None]
    ext = np.zeros((rows, width + 2), np.int64)  # $, the slots, ^ past the last
    ext[:, 0], ext[:, 1:-1] = _END, slots
    ext[np.arange(rows), lengths + 1] = _START
    # bigram j is (ext[j + 1], ext[j]), for j up to the key's length
    bigrams = np.where(np.arange(width + 1) <= ends, ext[:, 1:] * _SYMBOLS + ext[:, :-1],
                       _SYMBOLS**2)
    letters = np.where(np.arange(width) < ends, slots, len(ALPHABET))
    return (_row_counts(letters, len(ALPHABET) + 1)[:, :-1],
            _row_counts(bigrams, _SYMBOLS**2 + 1)[:, :-1])


@functools.cache
def _move_masks(n: int) -> np.ndarray:
    """Key arithmetic of a length-n node's moves, in ``_move_table``'s order:
    move (i, j, k) keeps the bits under row 0 and shifts s[j:k] (row 1) left
    by row 2 bits and s[i:j] (row 3) right by row 4. Letter q is at bits
    2 (n - 1 - q) + {0, 1}, so s[i:j] fills span(n - j, n - i)."""
    def span(lo, hi):
        return (1 << 2 * hi) - (1 << 2 * lo)
    table = np.array([(~span(n - k, n - i), span(n - k, n - j), 2 * (j - i), span(n - j, n - i),
                       2 * (k - j)) for i, j, k in itertools.combinations(range(n + 1), 3)],
                     np.int64).reshape(-1, 5).T.copy()
    table.flags.writeable = False
    return table


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (not ``np.unique``, which imports ``numpy.ma``)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _inserted(array: np.ndarray, at: np.ndarray, values) -> np.ndarray:
    """``array`` with ``values`` put at the ascending positions ``at`` of the
    result (``np.insert`` without its argument handling)."""
    out = np.empty(len(array) + len(at), array.dtype)
    rest = np.ones(len(out), bool)
    rest[at] = False
    out[at], out[rest] = values, array
    return out


class _Search:
    """Bidirectional BFS of a stream of pairs, one level of many of them at a time.

    ``push`` queues pairs, numbered in the order they come. Each ``step``
    brackets the pairs queued since the last one with ``pair_bounds``, admits
    the open ones, in order, to free slots (_SEARCH_BLOCK of them) while the
    search holds fewer than _SEARCH_KEYS visited nodes, expands one level,
    and returns the numbers and distances of the pairs it finished: those
    their bounds close, and those whose search ended on that level, whose
    slots the next step refills.

    A node is an int64 key: its 2-bit letter codes, first letter highest,
    under a sentinel 1 bit ("" is 1), plus group * _SIDE, group = 2 * slot
    + side (side 0 searches from x, 1 from y). Visited nodes sit in one
    sorted array with their depths, those at each side's current depth in
    another, the frontier. Each level, the open pairs, in order while those
    before hold fewer than _SEARCH_KEYS visited nodes, expand their smaller
    frontier (ties to x) one node at a time in key order: a node whose depth
    plus ``_lower_bound`` against its target reaches the pair's best is
    skipped, and its meetings lower that best before the next node. Chunks
    of nodes run with their pairs' best at the chunk's start; where a node
    lowers it, the pair's later nodes run again: no pair depends on another,
    so each gets the distance and generated count it gets alone."""

    def __init__(self):
        slots = _SEARCH_BLOCK
        self.queued_x, self.queued_y, self.count = [], [], 0  # pairs not yet bracketed
        # open pairs waiting for a slot: x, y, and their numbers and brackets
        self.waiting_x, self.waiting_y = [], []
        self.waiting = np.zeros((3, 0), np.int64)  # number, upper, lower
        self.pair = np.full(slots, -1)  # the number of each slot's pair, -1 when free
        self.target = (np.zeros(2 * slots, np.int64),
                       *(np.zeros((2 * slots, k), np.uint8) for k in (4, _SYMBOLS**2)))
        self.best, self.lower, self.len_lo, self.len_hi, self.generated = np.zeros(
            (5, slots), np.int64)
        self.depth = np.zeros(2 * slots, np.int64)  # of each group's frontier
        self.visited, self.visited_depth, self.frontier = np.zeros((3, 0), np.int64)
        # each slot's ``_open`` as the last step left it
        self.open, self.side = np.zeros(slots, bool), np.zeros(slots, np.intp)

    def push(self, xs, ys) -> None:
        """Queue the pairs (xs[i], ys[i]); they take the next numbers."""
        xs, ys = _pair_lists(xs, ys)
        self.queued_x += xs
        self.queued_y += ys
        self.count += len(xs)

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """Bracket the queued pairs, fill free slots, expand one level, and
        return the (numbers, distances) of the pairs that finished: those
        whose bounds meet and those whose search ended on the level. Raises
        BudgetExceededError once a pair has generated over NODE_BUDGET child
        strings, and ValueError as ``pair_bounds`` does."""
        closed, upper = self._bound()
        started = self._fill()  # one root a side: open while their limit is above 0
        self.open[started], self.side[started] = self.limit()[started] > 0, 0
        held = np.bincount(self.visited >> (_NODE_BITS + 1), minlength=len(self.pair))
        order = np.argsort(self.pair)  # free slots first, which hold no nodes
        before = np.empty_like(held)
        before[order] = np.cumsum(held[order]) - held[order]
        # open pairs expand in the order they came while the pairs before them
        # hold fewer than _SEARCH_KEYS visited nodes; the rest wait
        going = np.flatnonzero(self.open & (before < _SEARCH_KEYS))
        if len(going):
            self._level(2 * going + self.side[going])
        self.open, self.side = self._open()
        ids, distances = self._finish(np.flatnonzero((self.pair >= 0) & ~self.open))
        return np.concatenate([closed, ids]), np.concatenate([upper, distances])

    def _bound(self) -> tuple[np.ndarray, np.ndarray]:
        """Bracket the queued pairs and move the open ones to the waiting
        list. Returns the numbers and distances of those whose bounds meet."""
        xs, ys = self.queued_x, self.queued_y
        ids = np.arange(self.count - len(xs), self.count)
        upper, lower = pair_bounds(xs, ys)
        self.queued_x, self.queued_y = [], []
        at = np.flatnonzero(upper > lower)
        self.waiting_x += [xs[i] for i in at.tolist()]
        self.waiting_y += [ys[i] for i in at.tolist()]
        self.waiting = np.concatenate([self.waiting, np.stack([ids, upper, lower])[:, at]], 1)
        closed = upper <= lower
        return ids[closed], upper[closed]

    def _fill(self) -> np.ndarray:
        """Start the first waiting pairs in free slots while the search holds
        fewer than _SEARCH_KEYS visited nodes; return those slots."""
        free = np.flatnonzero(self.pair < 0)[: len(self.waiting_x)]
        if not len(free) or len(self.visited) >= _SEARCH_KEYS:
            return free[:0]
        k = len(free)
        self._start(free, self.waiting_x[:k], self.waiting_y[:k], *self.waiting[:, :k])
        del self.waiting_x[:k], self.waiting_y[:k]
        self.waiting = self.waiting[:, k:]
        return free

    def _start(self, slots, xs, ys, ids, upper, lower) -> None:
        """Put pair (xs[i], ys[i]), its number and its bracket in slot
        slots[i], its roots x and y visited at depth 0."""
        roots = [s for xy in zip(xs, ys) for s in xy]
        groups = (2 * slots[:, None] + np.arange(2)).ravel()
        lengths = np.array(list(map(len, roots)))
        # the sentinel, then the letters as base-4 digits
        keys = groups * _SIDE + [int("1" + s.translate(_DIGITS), 4) for s in roots]
        # each root is the other side's target
        self.target[0][groups ^ 1] = lengths
        self.target[1][groups ^ 1], self.target[2][groups ^ 1] = _key_profile(
            _slots(keys, lengths), lengths)
        self.pair[slots], self.best[slots], self.lower[slots] = ids, upper, lower
        # any optimal intermediate stays within `best` length steps of both ends
        ends = lengths.reshape(-1, 2)
        self.len_lo[slots] = np.maximum(0, ends.min(1) - self.best[slots])
        self.len_hi[slots] = ends.max(1) + self.best[slots]
        self.depth[groups], self.generated[slots] = 0, 0
        self._insert(np.sort(keys), 0)

    def _open(self) -> tuple[np.ndarray, np.ndarray]:
        """Which slots hold a pair whose search goes on, and each slot's side
        to expand: the smaller frontier, ties to x. A pair whose side has no
        frontier left has its answer."""
        sizes = np.bincount(self.frontier >> _NODE_BITS, minlength=len(self.depth)).reshape(-1, 2)
        side = (sizes[:, 0] > sizes[:, 1]).astype(np.intp)
        return (self.limit() > 0) & (sizes[np.arange(len(side)), side] > 0), side

    def _finish(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Free ``slots`` and drop their nodes; return their pairs' numbers
        and distances."""
        ids, distances = self.pair[slots], self.best[slots]
        self.pair[slots], self.best[slots] = -1, 0  # a free slot's limit is 0
        if len(slots):
            taken = self.pair >= 0
            live = taken[self.visited >> (_NODE_BITS + 1)]
            self.visited, self.visited_depth = self.visited[live], self.visited_depth[live]
            self.frontier = self.frontier[taken[self.frontier >> (_NODE_BITS + 1)]]
        return ids, distances

    def limit(self) -> np.ndarray:
        """Each pair's best while it can still fall, else 0. At depths (dx, dy)
        every node within dx of x and dy of y on a path shorter than best is
        visited (pruning skips no such node), so best is exact once it is at
        most max(lower, dx + dy + 1)."""
        reach = self.depth.reshape(-1, 2).sum(1) + 1
        return np.where(self.best > np.maximum(self.lower, reach), self.best, 0)

    def _level(self, expanding: np.ndarray) -> None:
        """Expand each group of ``expanding`` one level; on its last level
        (best <= dx + dy + 2: the search then stops) a pair adds no nodes.
        Nodes of all lengths go through numpy together, in key order, which
        is each pair's order by length and then letters."""
        last = self.best <= self.depth.reshape(-1, 2).sum(1) + 2
        pick = (np.bincount(expanding, minlength=len(self.depth)) > 0)[self.frontier >> _NODE_BITS]
        nodes = self.frontier[pick]
        self.frontier = self.frontier[np.logical_not(pick, out=pick)]
        lengths = np.searchsorted(_SENTINELS, nodes & _NODE_MASK, "right") - 1
        pairs = nodes >> (_NODE_BITS + 1)
        # each node's depth plus bound, and its most children: 8n + 4 letter edits
        # and its moves where lc lets them (its bigram counts weigh ~32 children)
        bound, cost = np.empty((2, len(nodes)), np.int64)
        step = max(1, _CHILD_BLOCK >> 5)
        for lo in range(0, len(nodes), step):
            at = slice(lo, lo + step)
            depth = self.depth[nodes[at] >> _NODE_BITS]
            lower, lc = self._node_bounds(nodes[at], lengths[at])
            bound[at] = depth + lower
            moves = (depth + 1 + lc < self.best[pairs[at]]) * _MOVES[lengths[at]]
            cost[at] = moves + 8 * lengths[at] + 4
        fresh = []  # children new to their side, merged once they pass a quarter of visited
        todo = np.arange(len(nodes))
        while len(todo):
            todo = todo[bound[todo] < self.limit()[pairs[todo]]]
            held = np.zeros(len(self.best), bool)  # pairs whose best fell in this pass
            again = np.zeros(len(nodes), bool)  # nodes for the next pass
            for chunk in self._chunks(todo, cost):
                again[chunk[held[pairs[chunk]]]] = True
                chunk = chunk[~held[pairs[chunk]]]
                if len(chunk):
                    done, new = self._expand_chunk(nodes[chunk], lengths[chunk], pairs[chunk],
                                                   last, held)
                    again[chunk[~done]] = True
                    fresh.append(new)
                    if sum(map(len, fresh)) > len(self.visited) >> 2:
                        self._merge(fresh)
            todo = np.flatnonzero(again)
        del pick, nodes, lengths, pairs, bound, cost, again  # before the copies below
        self._merge(fresh)
        self.depth[expanding] += 1

    def _merge(self, fresh: list) -> None:
        """Move the nodes of ``fresh`` into the visited set and the frontier, at
        their group's next depth. They are the expanding sides' children, and
        meetings look up the other side, so merging mid-level changes none."""
        if fresh:
            new = _distinct(np.concatenate(fresh))
            fresh.clear()
            self._insert(new, self.depth[new >> _NODE_BITS] + 1)

    def _insert(self, keys: np.ndarray, depth) -> None:
        """Add sorted ``keys``, new to the visited set, to it at ``depth`` and
        to the frontier."""
        at = np.searchsorted(self.visited, keys) + np.arange(len(keys))
        self.visited = _inserted(self.visited, at, keys)
        self.visited_depth = _inserted(self.visited_depth, at, depth)
        at = np.searchsorted(self.frontier, keys) + np.arange(len(keys))
        self.frontier = _inserted(self.frontier, at, keys)

    @staticmethod
    def _chunks(todo: np.ndarray, cost: np.ndarray):
        """``todo`` in runs cut where their ``cost`` passes a multiple of
        _CHILD_BLOCK (none if it is empty)."""
        if not len(todo):
            return
        total = np.cumsum(cost[todo])
        cuts = np.searchsorted(total, np.arange(_CHILD_BLOCK, total[-1], _CHILD_BLOCK), "right")
        for a, b in itertools.pairwise([0, *cuts.tolist(), len(todo)]):
            if b > a:
                yield todo[a:b]

    def _node_bounds(self, keys: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_lower_bounds`` of nodes against their sides' targets."""
        m, counts, bigrams = (t[keys >> _NODE_BITS] for t in self.target)
        return _lower_bounds(lengths, _key_profile(_slots(keys, lengths), lengths), m,
                             (counts, bigrams))

    def _expand_chunk(self, keys, lengths, owner, last, held) -> tuple[np.ndarray, np.ndarray]:
        """Expand nodes of pairs ``owner``; return which count and their
        children new to their side (none on a pair's ``last`` level). A
        pair's nodes count up to the first whose meetings lower its best,
        which marks it ``held``: its later nodes run again with the new best."""
        children, parent = self._children(keys, lengths)
        other = children + (_SIDE - 2 * (keys & _SIDE))[parent]  # the other side's key
        at = np.minimum(np.searchsorted(self.visited, other), len(self.visited) - 1)
        met = np.flatnonzero(self.visited[at] == other)
        length = self.depth[keys[parent[met]] >> _NODE_BITS] + 1 + self.visited_depth[at[met]]
        order = np.argsort(-length, kind="stable")  # of repeated indices, the last write stays
        meet = self.best[owner]
        meet[parent[met][order]] = np.minimum(meet[parent[met][order]], length[order])
        fell = np.flatnonzero(meet < self.best[owner])
        first = np.full(len(self.best), len(keys))
        first[owner[fell[::-1]]] = fell[::-1]
        done = np.arange(len(keys)) <= first[owner]
        lowered = first < len(keys)
        self.best[lowered] = meet[first[lowered]]
        held |= lowered
        self.generated += np.bincount(owner[parent[done[parent]]], minlength=len(self.best))
        if (self.generated > NODE_BUDGET).any():
            raise BudgetExceededError(f"edit-distance search exceeded its budget of {NODE_BUDGET} "
                                      "generated strings without an exact answer")
        new = _distinct(children[(done & ~last[owner])[parent]])
        at = np.minimum(np.searchsorted(self.visited, new), len(self.visited) - 1)
        return done, new[self.visited[at] != new]

    def _children(self, keys: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The children of nodes of the given lengths and each one's parent,
        but none whose depth plus letter-count bound h reaches the best:
        h = max(|s|, m) - c, with c letters in common with the target,
        and c falls with a letter o the target has no fewer of ("spare"),
        rises with a letter it has more of ("short"), and moves keep it.
        Letters are read by slot (``_slots``): slot j sits at bits 2j."""
        groups = keys >> _NODE_BITS
        pairs = groups >> 1
        m, target = self.target[0][groups], self.target[1][groups]
        slots = _slots(keys, lengths)
        cut = 2 * np.arange(slots.shape[1] + 1)  # bits below slot j
        inside = cut[1:] <= 2 * lengths[:, None]
        counts = _row_counts(np.where(inside, slots, len(ALPHABET)), len(ALPHABET) + 1)[:, :-1]
        short, spare = counts < target, counts <= target
        # how far an edit may raise h above the node's own: depth + 1 + h < best
        slack = (self.best[pairs] - self.depth[groups] - 1 - np.maximum(lengths, m)
                 + np.minimum(counts, target).sum(1))
        spare_old = spare[np.arange(len(keys))[:, None], slots]
        head, node = keys & ~_NODE_MASK, keys & _NODE_MASK
        low = (1 << cut) - 1
        children, parents = [], []
        # moves, by length: their tables differ in size
        for n in set(lengths[slack > 0].tolist()):
            at = np.flatnonzero((slack > 0) & (lengths == n))
            keep, left, left_shift, right, right_shift = moves = _move_masks(n)
            moved = keys[at, None]
            children.append(((moved & keep) + ((moved & left) << left_shift)
                             + ((moved & right) >> right_shift)).ravel())
            parents.append(np.repeat(at, moves.shape[1]))
        # slot j becomes c
        at, j, c = np.nonzero((spare_old[:, :, None] < (slack[:, None] + short)[:, None])
                              & (slots[:, :, None] != np.arange(len(ALPHABET)))
                              & inside[:, :, None])
        children.append(keys[at] + ((c - slots[at, j]) << cut[j]))
        parents.append(at)
        # c goes in as slot j, for every j up to the length
        at, c = np.nonzero(((lengths >= m)[:, None] < slack[:, None] + short)
                           & (lengths < self.len_hi[pairs])[:, None])
        joined = head[at, None] + (node[at, None] & low) + ((node[at, None] >> cut) << (cut + 2))
        children.append((joined + (c[:, None] << cut))[cut <= 2 * lengths[at, None]])
        parents.append(np.repeat(at, lengths[at] + 1))
        # slot j goes
        at, j = np.nonzero((spare_old < (slack + (lengths > m))[:, None]) & inside
                           & (lengths > self.len_lo[pairs])[:, None])
        children.append(head[at] + (node[at] & low[j]) + ((node[at] >> cut[j + 1]) << cut[j]))
        parents.append(at)
        return np.concatenate(children), np.concatenate(parents)


def exact_distances(xs, ys) -> np.ndarray:
    """Exact edit distance with moves of each pair (xs[i], ys[i]).

    The pairs stream through one ``_Search``: a pair whose ``pair_bounds``
    meet has its answer, and open pairs are searched together, up to
    _SEARCH_BLOCK at a time. Raises BudgetExceededError once a pair has
    generated over NODE_BUDGET child strings (per expanded node, duplicates
    included), and ValueError as ``pair_bounds`` does.
    """
    search = _Search()
    search.push(xs, ys)
    distances = np.empty(search.count, np.int64)
    left = search.count
    while left:
        ids, found = search.step()
        distances[ids] = found
        left -= len(ids)
    return distances


def edm_exact(x: str, y: str, bounds=None) -> int:
    """Exact edit distance with moves of one pair: ``exact_distances`` of a
    batch of one or, for a caller that already holds it, d from the closed
    bracket ``bounds`` = (d, d), an integer d >= 0 (else ValueError)."""
    if bounds is None:
        return int(exact_distances([x], [y])[0])
    _check_length(x, y)
    check_letters(x)
    check_letters(y)
    upper, lower = bounds
    if not (all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in bounds)
            and 0 <= lower == upper):
        raise ValueError(f"bounds must be integers (d, d) with d >= 0, got {bounds!r}")
    return int(upper)
