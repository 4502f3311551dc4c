"""Ground-truth string metrics: Levenshtein and exact edit distance with moves.

The move operation relocates one contiguous substring to another position in
the string, at unit cost like insert, delete, and substitute. No reversal,
and cost does not scale with block length. Exact EDM is NP-complete in
general; at the sequence lengths used here (<= 10) it is computed exactly by
a bidirectional breadth-first search that meets in the middle.

Levenshtein is the bit-parallel dynamic program of Myers (J. ACM 1999) in
Hyyro's form for global edit distance: one bitmask per letter of the first
string and a few integer operations per letter of the second. The search
starts from an upper bound tightened below Levenshtein by one block move:
every single move m of x gives 1 + levenshtein(m(x), y), in the spirit of
the block-move bounds of Cormode & Muthukrishnan (SODA 2002). A move is
enumerated as a swap of two adjacent non-empty blocks, s[i:j] and s[j:k].
"""

from __future__ import annotations

from dnakernel.circuits import ALPHABET

MAX_EDM_LENGTH = 10
NODE_BUDGET = 20_000_000

_LETTER_INDEX = {c: i for i, c in enumerate(ALPHABET)}


class BudgetExceededError(RuntimeError):
    """Search generated more child strings than NODE_BUDGET allows."""


def _check_string(s: str) -> str:
    if not isinstance(s, str):
        raise ValueError(f"expected a string, got {type(s).__name__}")
    bad = set(s) - set(ALPHABET)
    if bad:
        raise ValueError(f"string {s!r} contains symbols outside {ALPHABET}: {sorted(bad)}")
    return s


def _peq(x: str) -> dict:
    """Bitmask of the positions of each letter in ``x`` (bit i = x[i])."""
    peq = dict.fromkeys(ALPHABET, 0)
    for i, c in enumerate(x):
        peq[c] |= 1 << i
    return peq


def _lev_bits(peq: dict, m: int, y: str) -> int:
    """Levenshtein distance between the length-``m`` string behind ``peq`` and ``y``.

    Column j of the DP table is held as vertical deltas D[i][j] - D[i-1][j]
    in two bitmasks: ``pv`` (bits where the delta is +1) and ``mv`` (-1).
    The score tracks the bottom cell D[m][j]. Bits above m - 1 hold junk,
    but carries and shifts only move information upward, so it never
    reaches the low m bits and no masking is needed.
    """
    if m == 0:
        return len(y)
    top = 1 << (m - 1)
    pv, mv, score = (1 << m) - 1, 0, m
    for c in y:
        eq = peq[c]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # row 0 of a global distance grows by one per column: carry in a +1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = mh | ~(xv | ph)
        mv = ph & xv
    return score


def levenshtein(x: str, y: str) -> int:
    """Unit-cost insert/delete/substitute distance by a bit-parallel DP."""
    _check_string(x)
    _check_string(y)
    return _lev_bits(_peq(x), len(x), y)


def _one_move_bound(x: str, y: str) -> int:
    """min over single moves m of x of 1 + levenshtein(m(x), y).

    One move followed by that many edits turns x into y, so this is an upper
    bound on the edit distance with moves.
    """
    peq, m = _peq(y), len(y)
    n = len(x)
    best = n + m + 1
    for i in range(n - 1):
        head = x[:i]
        for j in range(i + 1, n):
            left = x[i:j]
            for k in range(j + 1, n + 1):
                d = _lev_bits(peq, m, head + x[j:k] + left + x[k:])
                if d < best:
                    best = d
    return best + 1


def _counts(s: str):
    return tuple(s.count(c) for c in ALPHABET)


def _deficits(counts, target):
    """(need, surplus): letters missing from / exceeding the target counts."""
    need = sum(t - c for c, t in zip(counts, target) if t > c)
    surplus = sum(c - t for c, t in zip(counts, target) if c > t)
    return need, surplus


class _Side:
    """One frontier of the bidirectional search."""

    def __init__(self, root: str, target: str):
        self.target_counts = _counts(target)
        root_counts = _counts(root)
        need, surplus = _deficits(root_counts, self.target_counts)
        self.visited = {root: 0}
        self.frontier = [(root, root_counts, need, surplus)]
        self.depth = 0  # depth of the current (unexpanded) frontier


def _expand(side: _Side, other: _Side, best: int, len_lo: int, len_hi: int, budget: list):
    """Expand one full BFS level of ``side``; return the best bound found.

    A child at depth d+1 still needing h more operations by the letter-count
    bound h = max(need, surplus) cannot beat ``best`` unless d+1+h < best, so
    it is dropped. Moves never change letter counts, so when the parent
    already saturates the bound the whole move fan-out is skipped at once.
    Every generated child string counts against ``budget``, checked once per
    expanded node; a child already visited on this side is dropped before
    any state is built for it.
    """
    depth1 = side.depth + 1
    visited = side.visited
    other_visited = other.visited
    tc = side.target_counts
    new_frontier = []
    append = new_frontier.append
    index = _LETTER_INDEX

    for s, counts, need, surplus in side.frontier:
        n = len(s)
        generated = 0
        first_child = len(new_frontier)
        if depth1 + (need if need > surplus else surplus) < best:
            # moves: swap the adjacent blocks s[i:j] and s[j:k]
            for i in range(n - 1):
                head = s[:i]
                for j in range(i + 1, n):
                    left = s[i:j]
                    for k in range(j + 1, n + 1):
                        cs = head + s[j:k] + left + s[k:]
                        generated += 1
                        if cs not in visited:
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
                if cs not in visited:
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
                    if cs not in visited:
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
                if cs not in visited:
                    cc = list(counts)
                    cc[ci] -= 1
                    visited[cs] = depth1
                    append((cs, tuple(cc), need2, sur2))

        for child in new_frontier[first_child:]:
            d_other = other_visited.get(child[0])
            if d_other is not None and depth1 + d_other < best:
                best = depth1 + d_other

        budget[0] -= generated
        if budget[0] < 0:
            raise BudgetExceededError(
                f"edit-distance search exceeded its budget of {NODE_BUDGET} "
                "generated strings without an exact answer"
            )
    side.frontier = new_frontier
    side.depth = depth1
    return best


def edm_exact(x: str, y: str) -> int:
    """Exact edit distance with moves between two strings.

    The upper bound starts at Levenshtein (bit-parallel) and, when above 2,
    is lowered by the best single move followed by plain edits. Then a
    bidirectional uniform-cost search (all operations cost 1, so plain BFS
    levels) runs from both endpoints with visited-set deduplication. Levels
    alternate to whichever frontier is smaller; intermediate strings are
    pruned to lengths within the reachable band and by an admissible
    letter-count bound, and the search stops as soon as no meeting shorter
    than the bound can remain. Raises BudgetExceededError once more than
    NODE_BUDGET child strings have been generated (counted per expanded
    node, before duplicates are dropped); the answer, when returned, is
    exact.
    """
    _check_string(x)
    _check_string(y)
    if len(x) > MAX_EDM_LENGTH or len(y) > MAX_EDM_LENGTH:
        raise ValueError(
            f"exact search supports lengths up to {MAX_EDM_LENGTH}, "
            f"got {len(x)} and {len(y)}"
        )
    if x == y:
        return 0
    best = levenshtein(x, y)
    if best <= 1:
        return best
    if best > 2:
        best = min(best, _one_move_bound(x, y))
    remaining = [NODE_BUDGET]
    # any optimal intermediate stays within `best` length steps of both ends
    len_lo = max(0, min(len(x), len(y)) - best)
    len_hi = max(len(x), len(y)) + best
    sx = _Side(x, y)
    sy = _Side(y, x)
    # after expanding to frontier depths (dx, dy) every node within dx of x
    # and dy of y has been visited (pruning drops only nodes that cannot lie
    # on a path shorter than `best`), so any true distance D <= dx + dy has
    # produced a meeting candidate. Hence once dx + dy >= best - 1, every
    # distance up to best - 1 would already have lowered `best`, and `best`
    # is exact: stop while best <= dx + dy + 1
    while best > sx.depth + sy.depth + 1:
        side, other = (sx, sy) if len(sx.frontier) <= len(sy.frontier) else (sy, sx)
        if not side.frontier:
            break
        best = _expand(side, other, best, len_lo, len_hi, remaining)
    return best
