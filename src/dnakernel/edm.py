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

``exact_distances`` searches the pairs whose bounds differ, a batch at once:
a string is one int64 key of 2-bit letters, a BFS level of every open pair
is a few numpy passes over frontier keys, and a node is not expanded when
its depth plus the same lower bound against its target reaches the best.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from dnakernel.circuits import ALPHABET, check_letters, encode

MAX_EDM_LENGTH = 10
NODE_BUDGET = 20_000_000
BOUNDS_BLOCK = 64  # pairs per numpy pass of pair_bounds: its memory stays under ~1 MB
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
_SEARCH_BLOCK = 256  # open pairs one _Search holds; below 2 ** (62 - _NODE_BITS)
_CHILD_BLOCK = 1 << 13  # children per numpy pass of the search
_SEARCH_KEYS = 1 << 13  # visited nodes of a _Search past which its later open pairs wait
_SENTINELS = 1 << 2 * np.arange(2 * MAX_EDM_LENGTH)  # the least node key of each length


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
    peq = np.stack([((yc == c) * bits).sum(1) for c in range(letters)], 1).ravel()
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
    step = max(1, BOUNDS_BLOCK * len(table) // lanes)
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
    of at most BOUNDS_BLOCK pairs; a block takes its lower bounds first, so
    that the upper bound's two-move stage runs only where it can close or
    narrow the bracket.
    Where upper <= lower, upper is the exact distance. Raises ValueError for
    symbols outside the alphabet, for lengths above MAX_EDM_LENGTH, and for
    batches of unequal size.
    """
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"got {len(xs)} first strings and {len(ys)} second strings")
    groups: dict = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        _check_length(x, y)
        groups.setdefault((len(x), len(y)), []).append(i)
    upper = np.empty(len(xs), np.int64)
    lower = np.empty(len(xs), np.int64)
    for (n, m), members in groups.items():
        for start in range(0, len(members), BOUNDS_BLOCK):
            idx = members[start : start + BOUNDS_BLOCK]
            xc = encode([xs[i] for i in idx], n)
            yc = encode([ys[i] for i in idx], m)
            lower[idx], lc = _lower_bounds(n, _profile(xc), m, _profile(yc))
            upper[idx] = _upper_bounds(xc, yc, lower[idx], lc)
    return upper, lower


def _letters(keys: np.ndarray, n: int) -> np.ndarray:
    """(len(keys), n) uint8 letter codes of length-n node keys."""
    return (keys[:, None] >> np.arange(2 * n - 2, -1, -2) & 3).astype(np.uint8)


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


class _Search:
    """Bidirectional BFS of a block of open pairs, one level of many of them at a time.

    A node is an int64 key: its 2-bit letter codes, first letter highest,
    under a sentinel 1 bit ("" is 1), plus group * _SIDE, group = 2 * pair
    + side (side 0 searches from x, 1 from y). Visited nodes sit in one
    sorted array with their depths, those at each side's current depth in
    another, the frontier. Each level, the open pairs, in order while those
    before hold fewer than _SEARCH_KEYS visited nodes, expand their smaller
    frontier (ties to x) one node at a time in key order: a node whose depth
    plus ``_lower_bound`` against its target reaches the pair's best is
    skipped, and its meetings lower that best before the next node. Chunks
    of nodes run with their pairs' best at the chunk's start; where a node
    lowers it, the pair's later nodes run again: no pair depends on another."""

    def __init__(self, xs: list, ys: list, upper: np.ndarray, lower: np.ndarray):
        roots = [s for xy in zip(xs, ys) for s in xy]
        lengths = np.array(list(map(len, roots)))
        keys = np.arange(len(roots)) * _SIDE
        counts, bigrams = (np.empty((len(roots), k), np.uint8) for k in (4, _SYMBOLS**2))
        for n in set(lengths.tolist()):
            at = np.flatnonzero(lengths == n)
            codes = encode([roots[i] for i in at], n)
            keys[at] += (codes << np.arange(2 * n - 2, -1, -2)).sum(1) + (1 << 2 * n)
            counts[at], bigrams[at] = _profile(codes)
        swap = np.arange(len(roots)).reshape(-1, 2)[:, ::-1].ravel()  # the other root
        self.target = lengths[swap], counts[swap], bigrams[swap]
        self.best, self.lower = upper.copy(), lower
        # any optimal intermediate stays within `best` length steps of both ends
        self.len_lo = np.maximum(0, lengths.reshape(-1, 2).min(1) - upper)
        self.len_hi = lengths.reshape(-1, 2).max(1) + upper
        self.depth = np.zeros(len(roots), np.int64)  # of each group's frontier
        self.generated = np.zeros(len(xs), np.int64)
        self.visited, self.visited_depth, self.frontier = keys, np.zeros(len(keys), np.int64), keys

    def limit(self) -> np.ndarray:
        """Each pair's best while it can still fall, else 0. At depths (dx, dy)
        every node within dx of x and dy of y on a path shorter than best is
        visited (pruning skips no such node), so best is exact once it is at
        most max(lower, dx + dy + 1)."""
        reach = self.depth.reshape(-1, 2).sum(1) + 1
        return np.where(self.best > np.maximum(self.lower, reach), self.best, 0)

    def run(self) -> np.ndarray:
        pairs = np.arange(len(self.best))
        while True:
            sizes = np.bincount(self.frontier >> _NODE_BITS, minlength=2 * len(pairs))
            side = (sizes[0::2] > sizes[1::2]).astype(np.intp)
            open_ = (self.limit() > 0) & (sizes[2 * pairs + side] > 0)
            if not open_.any():
                return self.best
            live = open_[self.visited >> (_NODE_BITS + 1)]
            if not live.all():
                self.visited, self.visited_depth = self.visited[live], self.visited_depth[live]
                self.frontier = self.frontier[open_[self.frontier >> (_NODE_BITS + 1)]]
            # open pairs expand in order while the pairs before them hold fewer
            # than _SEARCH_KEYS visited nodes; the rest wait for those to finish
            held = np.bincount(self.visited >> (_NODE_BITS + 1), minlength=len(pairs))
            going = open_ & (np.cumsum(held) - held < _SEARCH_KEYS)
            self._level((2 * pairs + side)[going])

    def _level(self, expanding: np.ndarray) -> None:
        """Expand each group of ``expanding`` one level; on its last level
        (best <= dx + dy + 2: the search then stops) a pair adds no nodes."""
        last = self.best <= self.depth.reshape(-1, 2).sum(1) + 2
        pick = (np.bincount(expanding, minlength=len(self.depth)) > 0)[self.frontier >> _NODE_BITS]
        nodes = self.frontier[pick]
        self.frontier = self.frontier[np.logical_not(pick, out=pick)]
        lengths = np.searchsorted(_SENTINELS, nodes & _NODE_MASK, "right") - 1
        order = np.argsort(lengths, kind="stable")  # by length, each pair's in key order
        nodes, lengths = nodes[order], lengths[order]
        pairs = nodes >> (_NODE_BITS + 1)
        # each node's depth plus bound, and its most children: 8n + 4 letter edits
        # and its moves where lc lets them (its bigram counts weigh ~32 children)
        bound, cost = np.empty((2, len(nodes)), np.int64)
        for at, n in self._chunks(np.arange(len(nodes)), lengths, np.full(len(nodes), 32)):
            depth = self.depth[nodes[at] >> _NODE_BITS]
            lower, lc = self._node_bounds(nodes[at], n)
            bound[at] = depth + lower
            moves = (depth + 1 + lc < self.best[pairs[at]]) * _move_masks(n).shape[1]
            cost[at] = moves + 8 * n + 4
        fresh = []  # children new to their side, merged once they pass a quarter of visited
        todo = np.arange(len(nodes))
        while len(todo):
            todo = todo[bound[todo] < self.limit()[pairs[todo]]]
            held = np.zeros(len(self.best), bool)  # pairs whose best fell in this pass
            again = np.zeros(len(nodes), bool)  # nodes for the next pass
            for chunk, n in self._chunks(todo, lengths, cost):
                again[chunk[held[pairs[chunk]]]] = True
                chunk = chunk[~held[pairs[chunk]]]
                if len(chunk):
                    done, new = self._expand_chunk(nodes[chunk], pairs[chunk], n, last, held)
                    again[chunk[~done]] = True
                    fresh.append(new)
                    if sum(map(len, fresh)) > len(self.visited) >> 2:
                        self._merge(fresh)
            todo = np.flatnonzero(again)
        del pick, order, nodes, lengths, pairs, bound, cost, again  # before the copies below
        self._merge(fresh)
        self.depth[expanding] += 1

    def _merge(self, fresh: list) -> None:
        """Move the nodes of ``fresh`` into the visited set and the frontier, at
        their group's next depth. They are the expanding sides' children, and
        meetings look up the other side, so merging mid-level changes none."""
        if fresh:
            new = _distinct(np.concatenate(fresh))
            fresh.clear()
            at = np.searchsorted(self.visited, new)
            self.visited = np.insert(self.visited, at, new)
            self.visited_depth = np.insert(self.visited_depth, at,
                                           self.depth[new >> _NODE_BITS] + 1)
            self.frontier = np.insert(self.frontier, np.searchsorted(self.frontier, new), new)

    @staticmethod
    def _chunks(todo: np.ndarray, lengths: np.ndarray, cost: np.ndarray):
        """(indices, n): ``todo``, sorted by length, in runs of one length n (none
        if it is empty) cut where their ``cost`` passes a multiple of _CHILD_BLOCK."""
        length = lengths[todo]
        for run in np.split(todo, np.flatnonzero(length[1:] != length[:-1]) + 1)[:len(todo)]:
            total = np.cumsum(cost[run])
            for part in np.split(run, np.searchsorted(
                    total, np.arange(_CHILD_BLOCK, total[-1], _CHILD_BLOCK), "right")):
                if len(part):
                    yield part, int(lengths[part[0]])

    def _node_bounds(self, keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``_lower_bounds`` of length-n nodes against their sides' targets."""
        m, counts, bigrams = (t[keys >> _NODE_BITS] for t in self.target)
        return _lower_bounds(n, _profile(_letters(keys, n)), m, (counts, bigrams))

    def _expand_chunk(self, keys, owner, n, last, held) -> tuple[np.ndarray, np.ndarray]:
        """Expand length-n nodes of pairs ``owner``; return which count and
        their children new to their side (none on a pair's ``last`` level).
        A pair's nodes count up to the first whose meetings lower its best,
        which marks it ``held``: its later nodes run again with the new best."""
        children, parent = self._children(keys, n)
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

    def _children(self, keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The children of length-n nodes and each one's parent, but none
        whose depth plus letter-count bound h reaches the best:
        h = max(|s|, m) - c, with c letters in common with the target,
        and c falls with a letter o the target has no fewer of ("spare"),
        rises with a letter it has more of ("short"), and moves keep it."""
        groups = keys >> _NODE_BITS
        pairs = groups >> 1
        m, target = self.target[0][groups], self.target[1][groups]
        letters = _letters(keys, n)
        counts = _row_counts(letters, len(ALPHABET))
        short, spare = counts < target, counts <= target
        # how far an edit may raise h above the node's own: depth + 1 + h < best
        slack = (self.best[pairs] - self.depth[groups] - 1 - np.maximum(n, m)
                 + np.minimum(counts, target).sum(1))
        spare_old = spare[np.arange(len(keys))[:, None], letters]
        head, node = keys & ~_NODE_MASK, keys & _NODE_MASK
        cut = 2 * np.arange(n, -1, -1)  # bits below letter q, q = 0..n
        low = (1 << cut) - 1
        keep, left, left_shift, right, right_shift = moves = _move_masks(n)
        at = np.flatnonzero(slack > 0)
        moved = keys[at, None]
        children = [((moved & keep) + ((moved & left) << left_shift)
                     + ((moved & right) >> right_shift)).ravel()]
        parents = [np.repeat(at, moves.shape[1])]
        # letter q becomes c
        at, q, c = np.nonzero((spare_old[:, :, None] < (slack[:, None] + short)[:, None])
                              & (letters[:, :, None] != np.arange(len(ALPHABET))))
        children.append(keys[at] + ((c - letters[at, q]) << cut[q + 1]))
        parents.append(at)
        # c goes before letter q, for every q
        at, c = np.nonzero(((n >= m)[:, None] < slack[:, None] + short)
                           & (n < self.len_hi[pairs])[:, None])
        joined = head[at, None] + (node[at, None] & low) + ((node[at, None] >> cut) << (cut + 2))
        children.append((joined + (c[:, None] << cut)).ravel())
        parents.append(np.repeat(at, n + 1))
        # letter q goes
        at, q = np.nonzero((spare_old < (slack + (n > m))[:, None])
                           & (n > self.len_lo[pairs])[:, None])
        children.append(head[at] + (node[at] & low[q + 1]) + ((node[at] >> cut[q]) << cut[q + 1]))
        parents.append(at)
        return np.concatenate(children), np.concatenate(parents)


def exact_distances(xs, ys) -> np.ndarray:
    """Exact edit distance with moves of each pair (xs[i], ys[i]).

    A pair whose ``pair_bounds`` meet has its answer; open pairs are searched
    together, _SEARCH_BLOCK at a time (``_Search``). Raises BudgetExceededError
    once a pair has generated over NODE_BUDGET child strings (per expanded node,
    duplicates included), and ValueError as ``pair_bounds`` does.
    """
    xs, ys = list(xs), list(ys)
    upper, lower = pair_bounds(xs, ys)
    open_ = np.flatnonzero(upper > lower)
    for lo in range(0, len(open_), _SEARCH_BLOCK):
        at = open_[lo : lo + _SEARCH_BLOCK]
        upper[at] = _Search([xs[i] for i in at], [ys[i] for i in at], upper[at], lower[at]).run()
    return upper


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
