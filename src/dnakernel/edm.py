"""Ground-truth string metrics: Levenshtein and exact edit distance with moves.

The move operation relocates one contiguous substring to another position in
the string, at unit cost like insert, delete, and substitute. No reversal,
and cost does not scale with block length. Exact EDM is NP-complete in
general; at the sequence lengths used here (<= 10) it is computed exactly by
a bidirectional breadth-first search that meets in the middle, with the
Levenshtein distance as the initial upper bound.
"""

from __future__ import annotations

import itertools

from dnakernel.circuits import ALPHABET

MAX_EDM_LENGTH = 10
DEFAULT_NODE_BUDGET = 20_000_000


class BudgetExceededError(RuntimeError):
    """Search generated more nodes than the caller allowed."""


def _check_string(s: str) -> str:
    if not isinstance(s, str):
        raise ValueError(f"expected a string, got {type(s).__name__}")
    bad = set(s) - set(ALPHABET)
    if bad:
        raise ValueError(f"string {s!r} contains symbols outside {ALPHABET}: {sorted(bad)}")
    return s


def levenshtein(x: str, y: str) -> int:
    """Unit-cost insert/delete/substitute distance by dynamic programming."""
    _check_string(x)
    _check_string(y)
    if len(x) < len(y):
        x, y = y, x
    prev = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        cur = [i]
        for j, cy in enumerate(y, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (cx != cy)))
        prev = cur
    return prev[-1]


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
        self.target = target
        self.target_counts = _counts(target)
        root_counts = _counts(root)
        need, surplus = _deficits(root_counts, self.target_counts)
        self.visited = {root: 0}
        self.frontier = [(root, root_counts, need, surplus)]
        self.depth = 0  # depth of the current (unexpanded) frontier


def _expand(side: _Side, other: _Side, best: int, len_lo: int, len_hi: int, budget: list):
    """Expand one full BFS level of ``side``; return the best bound found.

    A child at depth d+1 still needing h more operations by the letter-count
    bound cannot beat ``best`` unless d+1+h < best, so it is dropped. Moves
    never change letter counts, so when the parent already saturates the
    bound the whole move fan-out is skipped at once.
    """
    depth1 = side.depth + 1
    visited = side.visited
    other_visited = other.visited
    tc = side.target_counts
    new_frontier = []
    for s, counts, need, surplus in side.frontier:
        n = len(s)
        h_parent = max(need, surplus)
        children = []
        if depth1 + h_parent < best:
            for i, j in itertools.combinations(range(n + 1), 2):
                block = s[i:j]
                rest = s[:i] + s[j:]
                for k in range(len(rest) + 1):
                    children.append((rest[:k] + block + rest[k:], counts, need, surplus))
        for i in range(n):
            old = s[i]
            oi = ALPHABET.index(old)
            dn_need, dn_sur = need, surplus
            # removing one `old`
            if counts[oi] > tc[oi]:
                dn_sur -= 1
            else:
                dn_need += 1
            for c in ALPHABET:
                if c == old:
                    continue
                ci = ALPHABET.index(c)
                need2, sur2 = dn_need, dn_sur
                if counts[ci] < tc[ci]:
                    need2 -= 1
                else:
                    sur2 += 1
                if depth1 + max(need2, sur2) >= best:
                    continue
                cc = list(counts)
                cc[oi] -= 1
                cc[ci] += 1
                children.append((s[:i] + c + s[i + 1 :], tuple(cc), need2, sur2))
        if n + 1 <= len_hi:
            for ci, c in enumerate(ALPHABET):
                need2, sur2 = need, surplus
                if counts[ci] < tc[ci]:
                    need2 -= 1
                else:
                    sur2 += 1
                if depth1 + max(need2, sur2) >= best:
                    continue
                cc = list(counts)
                cc[ci] += 1
                cc = tuple(cc)
                for i in range(n + 1):
                    children.append((s[:i] + c + s[i:], cc, need2, sur2))
        if n - 1 >= len_lo and n > 0:
            for i in range(n):
                ci = ALPHABET.index(s[i])
                need2, sur2 = need, surplus
                if counts[ci] > tc[ci]:
                    sur2 -= 1
                else:
                    need2 += 1
                if depth1 + max(need2, sur2) >= best:
                    continue
                cc = list(counts)
                cc[ci] -= 1
                children.append((s[:i] + s[i + 1 :], tuple(cc), need2, sur2))

        budget[0] -= len(children)
        if budget[0] < 0:
            raise BudgetExceededError(
                "edit-distance search exceeded its node budget; "
                "pass a larger budget for an exact answer"
            )
        for child in children:
            cs = child[0]
            if cs in visited:
                continue
            if not len_lo <= len(cs) <= len_hi:
                continue
            visited[cs] = depth1
            d_other = other_visited.get(cs)
            if d_other is not None and depth1 + d_other < best:
                best = depth1 + d_other
            new_frontier.append(child)
    side.frontier = new_frontier
    side.depth = depth1
    return best


def edm_exact(x: str, y: str, budget: int | None = None) -> int:
    """Exact edit distance with moves between two strings.

    Bidirectional uniform-cost search (all operations cost 1, so plain BFS
    levels) from both endpoints with visited-set deduplication. Levels
    alternate to whichever frontier is smaller; intermediate strings are
    pruned to lengths within the reachable band and by an admissible
    letter-count bound. Raises BudgetExceededError if more than ``budget``
    child nodes would be generated; the answer, when returned, is exact.
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
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    remaining = [int(budget)]
    # any optimal intermediate stays within `best` length steps of both ends
    len_lo = max(0, min(len(x), len(y)) - best)
    len_hi = max(len(x), len(y)) + best
    sx = _Side(x, y)
    sy = _Side(y, x)
    # after expanding to frontier depths (dx, dy) every node within dx of x
    # and dy of y has been visited, so any true distance D <= dx + dy has
    # produced a meeting candidate; nothing shorter than `best` remains once
    # best <= dx + dy
    while best > sx.depth + sy.depth:
        side, other = (sx, sy) if len(sx.frontier) <= len(sy.frontier) else (sy, sx)
        if not side.frontier:
            break
        best = _expand(side, other, best, len_lo, len_hi, remaining)
    return best
