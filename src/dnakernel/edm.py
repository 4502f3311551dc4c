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
^x$ against ^y$: their gap is B = |^x$| + |^y$| - 2 * shared, where ^x$
holds |x| + 1 bigrams and shared counts the bigrams the two have in common,
with multiplicity.
The search runs only for pairs whose bounds differ, and it prunes with the
same lower bound, B taken by the same formula: a frontier node is not
expanded when its depth plus its bound against the side's target reaches the
best distance found.
"""

from __future__ import annotations

import functools

import numpy as np

from dnakernel.circuits import ALPHABET, check_letters, encode

MAX_EDM_LENGTH = 10
NODE_BUDGET = 20_000_000
BOUNDS_BLOCK = 64  # pairs per numpy pass of pair_bounds: its memory stays under ~1 MB
TWO_MOVE_SEEDS = 8  # single moves per open pair that pair_bounds moves a second time

_LETTER_INDEX = {c: i for i, c in enumerate(ALPHABET)}
# bigram symbols: the letters, then the ^ and $ end markers
_START, _END = len(ALPHABET), len(ALPHABET) + 1
_SYMBOLS = len(ALPHABET) + 2
# set bits of every mask of up to MAX_EDM_LENGTH bits
_POPCOUNT = np.array([v.bit_count() for v in range(1 << MAX_EDM_LENGTH)], np.int64)
_INTEGERS = (int, np.integer)  # the types edm_exact accepts as bounds, bool aside


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
    e >= lc letter operations. A substitution replaces two
    bigrams of ^s$ (B changes by at most 4), an insertion or deletion
    replaces one by two or two by one (at most 3), and a move, which
    re-joins the string at three cut points, replaces three (at most 6). A
    path with e letter operations and k moves therefore has 4e + 6k >= B,
    so it is at least e + ceil((B - 4e) / 6) long, which does not decrease
    with e. Takes ints or elementwise integer arrays.

    The search applies it to every frontier node s at depth d: when d plus
    the bound of s against the side's target is at least the best distance
    found, no path through s is shorter, so s is not expanded. Pruning thus
    drops only nodes that lie on no path shorter than ``best``, which keeps
    the ``best <= dx + dy + 1`` stop rule of ``edm_exact`` exact.
    """
    excess = b - 4 * lc
    return lc + (excess > 0) * ((excess + 5) // 6)


def _lower_bounds(xc: np.ndarray, yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_lower_bound`` of each pair of rows of two code arrays, and the
    pairs' letter-count bounds lc.

    lc = max(need, surplus) is the letter-count bound: with c letters in
    common (multiset intersection), need = |y| - c and surplus = |x| - c. B
    is the L1 distance between the bigram counts of ^x$ and ^y$, which is
    |x| + |y| + 2 minus twice the bigrams in common (as in ``_node_bound``).
    """
    (pairs, n), m = xc.shape, yc.shape[1]
    letters = len(ALPHABET)
    common = np.minimum(_row_counts(xc, letters), _row_counts(yc, letters)).sum(1)
    lc = max(n, m) - common

    def bigrams(codes):
        ext = np.empty((pairs, codes.shape[1] + 2), np.intp)
        ext[:, 0], ext[:, 1:-1], ext[:, -1] = _START, codes, _END
        return _row_counts(ext[:, :-1] * _SYMBOLS + ext[:, 1:], _SYMBOLS * _SYMBOLS)

    b = n + m + 2 - 2 * np.minimum(bigrams(xc), bigrams(yc)).sum(1)
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
            lower[idx], lc = _lower_bounds(xc, yc)
            upper[idx] = _upper_bounds(xc, yc, lower[idx], lc)
    return upper, lower


def _counts(s: str):
    return tuple(map(s.count, ALPHABET))


def _deficits(counts, target):
    """(need, surplus): letters missing from / exceeding the target counts."""
    need = surplus = 0
    for c, t in zip(counts, target):
        if t > c:
            need += t - c
        else:
            surplus += c - t
    return need, surplus


def _bigrams(s: str) -> dict:
    """Bigram counts of ^s$, keyed by letter pairs ("^" and "$" mark the ends)."""
    counts = {}
    for k in zip("^" + s, s + "$"):
        counts[k] = counts.get(k, 0) + 1
    return counts


def _node_bound(s: str, lc: int, target_bigrams: dict, target_total: int) -> int:
    """``_lower_bound`` of s against a target, given their letter-count
    bound lc, the target's ``_bigrams`` and its bigram total |t| + 1.

    The bigram gap is the batch bound's B = |^s$| + |^t$| - 2 * shared. One
    pass over the bigrams of ^s$ counts as shared each one that the target
    still has unmatched, in a copy of the target's counts.
    """
    left = target_bigrams.copy()
    shared = 0
    for k in zip("^" + s, s + "$"):
        c = left.get(k)
        if c:
            left[k] = c - 1
            shared += 1
    return _lower_bound(lc, len(s) + 1 + target_total - 2 * shared)


class _Side:
    """One frontier of the bidirectional search, from ``root`` toward ``target``."""

    def __init__(self, root: str, target: str, root_counts: tuple, target_counts: tuple):
        self.target_counts = target_counts
        self.target_bigrams = _bigrams(target)
        self.target_total = len(target) + 1
        need, surplus = _deficits(root_counts, target_counts)
        self.visited = {root: 0}
        self.frontier = [(root, root_counts, need, surplus)]
        self.depth = 0  # depth of the current (unexpanded) frontier


def _expand(side: _Side, other: _Side, best: int, len_lo: int, len_hi: int, budget: list,
            last: bool = False):
    """Expand one full BFS level of ``side``; return the best bound found.

    A frontier node s at depth d is skipped, generating no children, when
    d + ``_lower_bound`` of s against the side's target is at least
    ``best``: first by its letter-count bound h = max(need, surplus), which
    the frontier carries, then, only if that does not prune, with the
    bigram gap (``_node_bound``). A child at depth d+1 whose letter-count
    bound h cannot beat ``best`` (d+1+h >= best) is not generated. Moves
    never change letter counts, so when the parent already saturates that
    bound the whole move fan-out is skipped at once. Every generated child
    string counts against ``budget``, checked once per expanded node; a
    child already visited on this side is dropped before any state is built
    for it. Every generated child is looked up in the other side's visited
    set where it is generated, so a meeting lowers ``best`` for the node's
    later children. On the ``last`` level, after which the search stops
    whatever it finds, nothing is inserted and no frontier is built.
    """
    depth = side.depth
    depth1 = depth + 1
    visited = side.visited
    other_get = other.visited.get
    tc = side.target_counts
    target_bigrams = side.target_bigrams
    target_total = side.target_total
    new_frontier = []
    append = new_frontier.append
    index = _LETTER_INDEX

    for s, counts, need, surplus in side.frontier:
        lc = need if need > surplus else surplus
        if (depth + lc >= best
                or depth + _node_bound(s, lc, target_bigrams, target_total) >= best):
            continue
        n = len(s)
        generated = 0
        if depth1 + lc < best:
            # moves: swap the adjacent blocks s[i:j] and s[j:k]
            for i in range(n - 1):
                head = s[:i]
                for j in range(i + 1, n):
                    left = s[i:j]
                    for k in range(j + 1, n + 1):
                        cs = head + s[j:k] + left + s[k:]
                        generated += 1
                        d = other_get(cs)
                        if d is not None and depth1 + d < best:
                            best = depth1 + d
                        if not last and cs not in visited:
                            visited[cs] = depth1
                            append((cs, counts, need, surplus))
        for i in range(n):
            old = s[i]
            oi = index[old]
            # removing one `old`
            if counts[oi] > tc[oi]:
                dn_need, dn_sur = need, surplus - 1
            else:
                dn_need, dn_sur = need + 1, surplus
            for ci, c in enumerate(ALPHABET):
                if ci == oi:
                    continue
                if counts[ci] < tc[ci]:
                    need2, sur2 = dn_need - 1, dn_sur
                else:
                    need2, sur2 = dn_need, dn_sur + 1
                if depth1 + (need2 if need2 > sur2 else sur2) >= best:
                    continue
                cs = s[:i] + c + s[i + 1 :]
                generated += 1
                d = other_get(cs)
                if d is not None and depth1 + d < best:
                    best = depth1 + d
                if not last and cs not in visited:
                    cc = list(counts)
                    cc[oi] -= 1
                    cc[ci] += 1
                    visited[cs] = depth1
                    append((cs, tuple(cc), need2, sur2))
        if n < len_hi:
            for ci, c in enumerate(ALPHABET):
                if counts[ci] < tc[ci]:
                    need2, sur2 = need - 1, surplus
                else:
                    need2, sur2 = need, surplus + 1
                if depth1 + (need2 if need2 > sur2 else sur2) >= best:
                    continue
                cc = list(counts)
                cc[ci] += 1
                cc = tuple(cc)
                for i in range(n + 1):
                    cs = s[:i] + c + s[i:]
                    generated += 1
                    d = other_get(cs)
                    if d is not None and depth1 + d < best:
                        best = depth1 + d
                    if not last and cs not in visited:
                        visited[cs] = depth1
                        append((cs, cc, need2, sur2))
        if n > len_lo:
            for i in range(n):
                ci = index[s[i]]
                if counts[ci] > tc[ci]:
                    need2, sur2 = need, surplus - 1
                else:
                    need2, sur2 = need + 1, surplus
                if depth1 + (need2 if need2 > sur2 else sur2) >= best:
                    continue
                cs = s[:i] + s[i + 1 :]
                generated += 1
                d = other_get(cs)
                if d is not None and depth1 + d < best:
                    best = depth1 + d
                if not last and cs not in visited:
                    cc = list(counts)
                    cc[ci] -= 1
                    visited[cs] = depth1
                    append((cs, tuple(cc), need2, sur2))

        budget[0] -= generated
        if budget[0] < 0:
            raise BudgetExceededError(
                f"edit-distance search exceeded its budget of {NODE_BUDGET} "
                "generated strings without an exact answer"
            )
    side.frontier = new_frontier
    side.depth = depth1
    return best


def edm_exact(x: str, y: str, bounds=None) -> int:
    """Exact edit distance with moves between two strings.

    The search starts from the ``pair_bounds`` bracket, computed here as a
    batch of one unless a caller that bounded many pairs at once passes this
    pair's ``(upper, lower)``, integers with 0 <= lower <= upper (else
    ValueError); where the two meet, that is the answer. Else a
    bidirectional uniform-cost search (all operations cost 1, so plain BFS
    levels) runs from both endpoints with visited-set deduplication. Levels
    alternate to whichever frontier is smaller; intermediate strings are
    pruned to lengths within the reachable band, frontier nodes by the
    letter-count and bigram bound to their side's target (``_lower_bound``)
    and children by the letter-count bound, and the search stops as soon as
    the upper bound meets the lower bound or no meeting shorter than it can
    remain. Raises BudgetExceededError once more than NODE_BUDGET child
    strings have been generated (counted per expanded node, before
    duplicates are dropped); the answer, when returned, is exact.
    """
    if bounds is None:
        upper, lower = pair_bounds([x], [y])
        best, lower = int(upper[0]), int(lower[0])
    else:
        _check_length(x, y)
        check_letters(x)
        check_letters(y)
        best, lower = bounds
        if not (all(isinstance(v, _INTEGERS) and not isinstance(v, bool) for v in (best, lower))
                and 0 <= lower <= best):
            raise ValueError(f"bounds must be integers (upper, lower) with "
                             f"0 <= lower <= upper, got {bounds!r}")
    if best <= lower:
        return best
    remaining = [NODE_BUDGET]
    # any optimal intermediate stays within `best` length steps of both ends
    len_lo = max(0, min(len(x), len(y)) - best)
    len_hi = max(len(x), len(y)) + best
    cx, cy = _counts(x), _counts(y)
    sx = _Side(x, y, cx, cy)
    sy = _Side(y, x, cy, cx)
    # after expanding to frontier depths (dx, dy) every node within dx of x
    # and dy of y that lies on a path shorter than `best` has been visited
    # (pruning, of frontier nodes and of children, drops only nodes on no
    # such path), so any true distance D < best with D <= dx + dy has
    # produced a meeting candidate. Hence once dx + dy >= best - 1, every
    # distance up to best - 1 would already have lowered `best`, and `best`
    # is exact: stop while best <= dx + dy + 1. A level that brings the
    # depths there is the last one whatever it finds.
    while best > max(lower, sx.depth + sy.depth + 1):
        side, other = (sx, sy) if len(sx.frontier) <= len(sy.frontier) else (sy, sx)
        if not side.frontier:
            break
        last = best <= sx.depth + sy.depth + 2
        best = _expand(side, other, best, len_lo, len_hi, remaining, last)
    return best
