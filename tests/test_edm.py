"""Edit-distance tests: DP, neighbor enumeration, and exact move-aware search.

Oracles here are deliberately primitive: a memoized recursive Levenshtein, a
brute-force one-operation neighbor enumerator, and a plain unidirectional BFS
for exact EDM. The library must agree with them.
"""

import functools
import itertools
from collections import Counter
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_scripts import load_script

from dnakernel import dataset, edm
from dnakernel.dataset import DatasetError, generate_triplets, load_triplets, save_triplets
from dnakernel.edm import (
    MAX_EDM_LENGTH,
    BudgetExceededError,
    edm_exact,
    exact_distances,
    levenshtein,
    pair_bounds,
)

ALPHABET = "ATGC"
ACCEPT_DIR = Path(__file__).resolve().parents[1] / "results" / "acceptance"

short_strings = st.text(alphabet=ALPHABET, max_size=5)


def lev_oracle(x, y):
    @functools.lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (x[i - 1] != y[j - 1]),
        )

    return rec(len(x), len(y))


def neighbors_oracle(s):
    """Independent re-derivation of the one-operation neighborhood."""
    out = set()
    n = len(s)
    for i in range(n):  # substitutions
        for c in ALPHABET:
            out.add(s[:i] + c + s[i + 1 :])
    for i in range(n + 1):  # insertions
        for c in ALPHABET:
            out.add(s[:i] + c + s[i:])
    for i in range(n):  # deletions
        out.add(s[:i] + s[i + 1 :])
    out |= moves_oracle(s)
    out.discard(s)
    return out


def moves_oracle(s):
    """Every string one block move away: cut s[i:j] out, put it back elsewhere."""
    out = set()
    for i in range(len(s)):
        for j in range(i + 1, len(s) + 1):
            block, rest = s[i:j], s[:i] + s[j:]
            for k in range(len(rest) + 1):
                out.add(rest[:k] + block + rest[k:])
    out.discard(s)
    return out


def ordered_moves_oracle(s):
    """Every single move of s, repeats kept, in the library's move order:
    swap the adjacent blocks s[i:j] and s[j:k] for i < j < k, ascending."""
    n = len(s)
    return [s[:i] + s[j:k] + s[i:j] + s[k:]
            for i in range(n - 1) for j in range(i + 1, n) for k in range(j + 1, n + 1)]


def upper_oracle(x, y):
    """The least of Levenshtein, one move of x then Levenshtein, and two
    moves then Levenshtein, where the first of the two is one of the
    TWO_MOVE_SEEDS single moves with the least Levenshtein to y (a stable
    sort keeps the earlier move on ties)."""
    first = ordered_moves_oracle(x)
    scores = [lev_oracle(m, y) for m in first]
    seeds = sorted(range(len(first)), key=scores.__getitem__)[: edm.TWO_MOVE_SEEDS]
    second = {m2 for r in seeds for m2 in ordered_moves_oracle(first[r])}
    return min([lev_oracle(x, y)] + [1 + d for d in scores]
               + [2 + lev_oracle(m2, y) for m2 in second])


def lc_oracle(x, y):
    """The letter-count bound: letters of x missing from y or in excess."""
    cx, cy = Counter(x), Counter(y)
    return max(sum((cx - cy).values()), sum((cy - cx).values()))


def lower_oracle(x, y):
    """The letter-count bound lc plus the moves that the bigram gap B forces:
    lc + ceil(max(0, B - 4 lc) / 6), counted with collections.Counter."""
    lc = lc_oracle(x, y)
    bx = Counter(zip("^" + x, x + "$"))
    by = Counter(zip("^" + y, y + "$"))
    b = sum(((bx - by) + (by - bx)).values())
    return lc + -(-max(0, b - 4 * lc) // 6)


def searched(xs, ys):
    """(indices, distances, generated children) of the open pairs among
    (xs, ys), searched as one block from their ``pair_bounds`` brackets."""
    upper, lower = pair_bounds(xs, ys)
    at = np.flatnonzero(upper > lower)
    search = edm._Search([xs[i] for i in at], [ys[i] for i in at], upper[at], lower[at])
    return at, search.run().tolist(), search.generated.tolist()


def bfs_edm_oracle(x, y):
    """Exhaustive unidirectional BFS from the shorter string.

    The answer never exceeds Levenshtein, so searching to depth lev-1
    suffices: if no hit is found, the distance is exactly lev. Intermediates
    whose length cannot reach the target in the remaining operations are
    dropped (each operation changes length by at most one).
    """
    if x == y:
        return 0
    upper = lev_oracle(x, y)
    if upper == 1:
        return 1
    src, dst = (x, y) if len(x) <= len(y) else (y, x)
    visited = {src}
    frontier = [src]
    for depth in range(1, upper):
        nxt = []
        for u in frontier:
            for v in neighbors_oracle(u):
                if v == dst:
                    return depth
                if v not in visited and abs(len(v) - len(dst)) <= upper - 1 - depth:
                    visited.add(v)
                    nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return upper


def random_string(rng, length):
    return "".join(rng.choice(list(ALPHABET), size=length)) if length else ""


def mutate(rng, s, ops):
    """Apply ``ops`` random one-step operations, staying within length 10."""
    for _ in range(ops):
        choices = [v for v in sorted(neighbors_oracle(s)) if len(v) <= MAX_EDM_LENGTH]
        s = choices[rng.integers(0, len(choices))]
    return s


def test_mutate_independent_of_hash_seed():
    # the neighbour set iterates in an order set by per-process string
    # hashing; mutate must not inherit it, or test_against_bfs_oracle would
    # check other pairs on every run and a failure would not reproduce
    code = ("import numpy as np; from test_edm import mutate; "
            "rng = np.random.default_rng(0); "
            "print([mutate(rng, 'ATGCA', 3) for _ in range(3)])")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True, timeout=120)
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("ACGT", "ACGT") == 0

    def test_single_substitution(self):
        assert levenshtein("AAAA", "AAAT") == 1

    def test_atgc_gcat(self):
        assert lev_oracle("ATGC", "GCAT") == 4
        assert levenshtein("ATGC", "GCAT") == 4

    def test_empty_strings(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "ATG") == 3
        assert levenshtein("ATG", "") == 3

    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError, match="outside"):
            levenshtein("AXG", "ATG")

    def test_against_recursive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = random_string(rng, int(rng.integers(0, 9)))
            y = random_string(rng, int(rng.integers(0, 9)))
            assert levenshtein(x, y) == lev_oracle(x, y)

    def test_bit_masks_up_to_max_length(self):
        # every pair of lengths 0..MAX_EDM_LENGTH, so the top bit of the
        # masks is exercised at the longest supported strings
        rng = np.random.default_rng(10)
        for lx, ly in itertools.product(range(MAX_EDM_LENGTH + 1), repeat=2):
            for _ in range(3):
                x, y = random_string(rng, lx), random_string(rng, ly)
                assert levenshtein(x, y) == lev_oracle(x, y), (x, y)


class TestEdmNeighbors:
    """Sanity checks of the neighbor oracle that the BFS oracle expands."""

    def test_single_letter(self):
        nb = neighbors_oracle("A")
        assert {"C", "G", "T", ""} <= nb
        for c in ALPHABET:
            assert ("A" + c) in nb and (c + "A") in nb

    def test_move_reaches_gcat(self):
        assert "GCAT" in neighbors_oracle("ATGC")

    def test_self_excluded(self):
        for s in ("A", "AT", "AAAA", "ATGC"):
            assert s not in neighbors_oracle(s)

    def test_homogeneous_string_count(self):
        # AAAA: 12 substitutions, 1 deletion, 16 distinct insertions, no
        # effective moves
        assert len(neighbors_oracle("AAAA")) == 29

    def test_every_neighbor_is_one_away(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_string(rng, int(rng.integers(1, 6)))
            for v in neighbors_oracle(s):
                assert edm_exact(s, v) == 1


class TestEdmExact:
    def test_identical(self):
        assert edm_exact("ACGT", "ACGT") == 0

    def test_single_move(self):
        assert edm_exact("ATGC", "GCAT") == 1

    def test_two_substitutions(self):
        assert edm_exact("ATGCATGC", "TTGCATGA") == 2

    def test_block_move_beats_levenshtein(self):
        # moving "ATT" in one step, where plain edits need several
        x, y = "ATTGGC", "GGCATT"
        assert levenshtein(x, y) > 1
        assert edm_exact(x, y) == 1

    def test_all_letters_differ(self):
        # every operation raises the count of C by at most one
        assert edm_exact("AAAAAA", "CCCCCC") == 6

    def test_empty_versus_nonempty(self):
        assert edm_exact("", "ATG") == 3
        assert edm_exact("ATG", "") == 3

    def test_unequal_lengths(self):
        assert edm_exact("AT", "ATG") == 1
        assert edm_exact("A", "ATGCA") == 4

    def test_length_cap(self):
        with pytest.raises(ValueError, match="lengths up to"):
            edm_exact("A" * 11, "C" * 11)

    def test_budget_error(self, monkeypatch):
        # the bounds leave this pair open (lower 3, upper 5), so it searches
        upper, lower = pair_bounds(["ATGCATGC"], ["GGCCTTAA"])
        assert (upper[0], lower[0]) == (5, 3)
        monkeypatch.setattr(edm, "NODE_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="budget of 10"):
            edm_exact("ATGCATGC", "GGCCTTAA")

    def test_node_pruning_keeps_search_under_budget(self, monkeypatch):
        # line 295 of train.jsonl: d(a, b) = 4 takes 304 generated children
        # with frontier nodes pruned by the bigram bound, 6,849 with the
        # letter-count bound alone
        t = json.loads((ACCEPT_DIR / "train.jsonl").read_text().splitlines()[294])
        assert (t["a"], t["b"], t["d_ab"]) == ("TGAGTGTG", "ACGGGGTT", 4)
        assert searched([t["a"]], [t["b"]])[1:] == ([4], [304])
        budget = edm.NODE_BUDGET
        monkeypatch.setattr(edm, "NODE_BUDGET", 1000)
        assert edm_exact(t["a"], t["b"]) == 4
        node_bounds = edm._Search._node_bounds

        def letter_counts_only(search, keys, n):
            lc = node_bounds(search, keys, n)[1]
            return lc, lc

        monkeypatch.setattr(edm._Search, "_node_bounds", letter_counts_only)
        with pytest.raises(BudgetExceededError, match="budget of 1000"):
            edm_exact(t["a"], t["b"])
        monkeypatch.setattr(edm, "NODE_BUDGET", budget)
        assert searched([t["a"]], [t["b"]])[1:] == ([4], [6849])

    # (line of train.jsonl, pair, children the search generates): eleven
    # pairs whose bracket is open, at distances 3-7, one (line 47) below its
    # upper bound. edm_exact completes on a NODE_BUDGET of exactly that count
    # and raises one below it, so any change to what the search prunes,
    # generates or charges shows here. A meeting lowers the best distance
    # for the pair's next frontier node, not for the rest of the node's own
    # children, so line 47 generates 902 (640 when a meeting also pruned the
    # meeting node's later children)
    BUDGET_PINS = [
        (1, "c", 13577), (2, "b", 20), (4, "b", 322), (5, "b", 1654), (6, "b", 2747),
        (9, "b", 9011), (10, "b", 771), (12, "b", 13906), (14, "b", 280), (17, "b", 212),
        (47, "c", 902),
    ]

    def test_generated_children_are_pinned(self, monkeypatch):
        lines = (ACCEPT_DIR / "train.jsonl").read_text().splitlines()
        for line, other, generated in self.BUDGET_PINS:
            t = json.loads(lines[line - 1])
            x, y, d = t["a"], t[other], t["d_a" + other]
            upper, lower = pair_bounds([x], [y])
            assert lower[0] < upper[0], line
            assert (d < upper[0]) == (line == 47), line
            monkeypatch.setattr(edm, "NODE_BUDGET", generated)
            assert edm_exact(x, y) == d, line
            monkeypatch.setattr(edm, "NODE_BUDGET", generated - 1)
            with pytest.raises(BudgetExceededError):
                edm_exact(x, y)

    @pytest.mark.parametrize("x, y, bounds", [
        ("A", "T", (0, 5)),  # lower above upper: returned 0
        ("ACGT", "TGCA", (-3, 0)),  # negative: returned -3
        ("A", "T", (2.5, 1)),  # not integers: returned 2.5
        ("ATGC", "ATGG", (True, True)),  # bools: returned True
        ("ACGT", "TGCA", (3, 1)),  # open: exact_distances searches it
    ])
    def test_rejects_bad_bounds(self, x, y, bounds):
        # only a closed bracket passes: exact_distances searches open ones
        with pytest.raises(ValueError, match="bounds must be integers"):
            edm_exact(x, y, bounds=bounds)

    def test_closed_numpy_bracket_returns_a_python_int(self):
        # as bounds=None does: json.dumps refuses numpy.int64
        d = edm_exact("ACG", "ACG", bounds=(np.int64(0), np.int64(0)))
        assert type(d) is int and json.dumps(d) == "0"

    def test_against_bfs_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(60):
            x = random_string(rng, int(rng.integers(1, 6)))
            if trial % 2:
                y = random_string(rng, int(rng.integers(1, 6)))
            else:
                y = mutate(rng, x, int(rng.integers(1, 4)))
                if len(y) > 5:
                    y = y[:5]
            assert edm_exact(x, y) == bfs_edm_oracle(x, y), (x, y)

    def test_near_pairs_against_bfs_oracle(self):
        # one or two operations apart at lengths 6-8: the one-move upper
        # bound and the early stop decide these, and the oracle stops by
        # depth 2
        rng = np.random.default_rng(11)
        for _ in range(60):
            x = random_string(rng, int(rng.integers(6, 9)))
            y = mutate(rng, x, int(rng.integers(1, 3)))
            assert edm_exact(x, y) == bfs_edm_oracle(x, y), (x, y)

    def test_unequal_lengths_against_bfs_oracle(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 40:
            x = random_string(rng, int(rng.integers(0, 6)))
            y = random_string(rng, int(rng.integers(0, 6)))
            if len(x) == len(y):
                continue
            assert edm_exact(x, y) == bfs_edm_oracle(x, y), (x, y)
            checked += 1
        for _ in range(20):
            x = random_string(rng, int(rng.integers(6, 9)))
            y = mutate(rng, x, int(rng.integers(1, 3)))
            if len(x) != len(y):
                assert edm_exact(x, y) == bfs_edm_oracle(x, y), (x, y)

    @pytest.mark.parametrize("name", ["train", "test", "fresh"])
    def test_committed_labels(self, name, monkeypatch):
        # the committed length-8 labels were written by an earlier search;
        # recompute every 20th line (load_triplets raises on a mismatch)
        monkeypatch.setattr(dataset, "VERIFY_STRIDE", 20)
        triplets = load_triplets(ACCEPT_DIR / f"{name}.jsonl")
        assert len(triplets) == 3200

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = random_string(rng, int(rng.integers(1, 7)))
            y = random_string(rng, int(rng.integers(1, 7)))
            assert edm_exact(x, y) == edm_exact(y, x)

    def test_upper_bounded_by_levenshtein(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = random_string(rng, int(rng.integers(0, 8)))
            y = random_string(rng, int(rng.integers(0, 8)))
            assert edm_exact(x, y) <= levenshtein(x, y)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y, z = (random_string(rng, int(rng.integers(1, 6))) for _ in range(3))
            assert edm_exact(x, z) <= edm_exact(x, y) + edm_exact(y, z)

    def test_pairwise_swap_insensitivity(self):
        # applying one position swap to both strings moves EDM by at most 2
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y = random_string(rng, n), random_string(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            xs, ys = list(x), list(y)
            xs[i], xs[j] = xs[j], xs[i]
            ys[i], ys[j] = ys[j], ys[i]
            d0 = edm_exact(x, y)
            d1 = edm_exact("".join(xs), "".join(ys))
            assert abs(d0 - d1) <= 2, (x, y, i, j, d0, d1)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = random_string(rng, int(rng.integers(1, 7)))
            y = random_string(rng, int(rng.integers(1, 7)))
            assert (edm_exact(x, y) == 0) == (x == y)


class TestExactDistances:
    """The batched search: one call answers many pairs, each as if alone."""

    @staticmethod
    def pinned_pairs(lines=None):
        """(x, y) of the BUDGET_PINS pairs of train.jsonl, with their counts."""
        rows = (ACCEPT_DIR / "train.jsonl").read_text().splitlines()
        pins = [p for p in TestEdmExact.BUDGET_PINS if lines is None or p[0] in lines]
        pairs = [(json.loads(rows[line - 1]), other) for line, other, _ in pins]
        return [(t["a"], t[other]) for t, other in pairs], [g for _, _, g in pins]

    def test_mixed_lengths_match_bfs_oracle(self):
        # one call over lengths 1-6: 60 pairs whose bracket is open (random
        # up to length 5, two or three operations apart at lengths 5-6) and
        # 30 random pairs, most of them closed by their bounds
        rng = np.random.default_rng(21)
        xs, ys = [], []
        while len(xs) < 60:
            n = int(rng.integers(1, 7))
            x = random_string(rng, n)
            if n >= 5:
                y = mutate(rng, x, int(rng.integers(2, 4)))[:6]
            else:
                y = random_string(rng, int(rng.integers(1, 6)))
            upper, lower = pair_bounds([x], [y])
            if upper[0] > lower[0]:
                xs.append(x)
                ys.append(y)
        xs += [random_string(rng, int(rng.integers(1, 4))) for _ in range(30)]
        ys += [random_string(rng, int(rng.integers(1, 4))) for _ in range(30)]
        assert {len(s) for s in xs + ys} == set(range(1, 7))
        assert exact_distances(xs, ys).tolist() == [bfs_edm_oracle(x, y) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("n, count", [(9, 100), (10, 40)])
    def test_metamorphic_relations_past_the_bfs_oracle(self, n, count):
        # EDM is unchanged by swapping the two strings, reversing both, and
        # relabeling both by one letter permutation (here a transposition,
        # a 3-cycle and a 4-cycle); each variant sends the search down
        # other paths, at lengths exhaustive BFS cannot check
        rng = np.random.default_rng(30 + n)
        xs = [random_string(rng, n) for _ in range(count)]
        ys = [random_string(rng, n) for _ in range(count)]
        expected = exact_distances(xs, ys).tolist()
        variants = [(ys, xs), ([x[::-1] for x in xs], [y[::-1] for y in ys])]
        for perm in ("TAGC", "TGAC", "TGCA"):
            table = str.maketrans(ALPHABET, perm)
            variants.append(([x.translate(table) for x in xs], [y.translate(table) for y in ys]))
        for vx, vy in variants:
            assert exact_distances(vx, vy).tolist() == expected

    def test_generated_counts_do_not_depend_on_the_batch(self):
        # each pinned pair, and random length-7 and length-8 pairs, generates
        # as many children and gets the same distance alone, in one block and
        # in a shuffled block
        pairs, pinned = self.pinned_pairs()
        rng = np.random.default_rng(22)
        pairs += [(random_string(rng, n), random_string(rng, n)) for n in (7, 8) for _ in range(12)]
        pairs = [(x, y) for x, y in pairs if len(searched([x], [y])[0])]  # open brackets
        alone = [searched([x], [y])[1:] for x, y in pairs]
        assert [g for _, (g,) in alone[: len(pinned)]] == pinned
        xs, ys = map(list, zip(*pairs))
        at, distances, generated = searched(xs, ys)
        assert at.tolist() == list(range(len(pairs)))
        assert list(zip(distances, generated)) == [(d, g) for (d,), (g,) in alone]
        order = rng.permutation(len(pairs))
        at, distances, generated = searched([xs[i] for i in order], [ys[i] for i in order])
        assert list(zip(distances, generated)) == [(d, g) for (d,), (g,) in
                                                    (alone[i] for i in order)]

    @pytest.mark.parametrize("keys", [1, 1 << 40])
    def test_waiting_pairs_get_the_same_counts(self, monkeypatch, keys):
        # one pair expanding per level (later pairs wait once one visited
        # node is held) or every open pair at once: each pinned pair gets
        # the same distance and generated count as with the default cap
        pairs, pinned = self.pinned_pairs()
        xs, ys = map(list, zip(*pairs))
        _, distances, generated = searched(xs, ys)
        assert generated == pinned
        monkeypatch.setattr(edm, "_SEARCH_KEYS", keys)
        assert searched(xs, ys)[1:] == (distances, generated)

    @pytest.mark.parametrize("block", [16, 1 << 20])
    def test_counts_do_not_depend_on_the_chunk_size(self, monkeypatch, block):
        # a pair's later nodes run again when one of them lowers its best, so
        # cutting a level into chunks of 16 children or not cutting it at all
        # gives each pinned pair the default's distance and generated count
        pairs, pinned = self.pinned_pairs()
        xs, ys = map(list, zip(*pairs))
        _, distances, generated = searched(xs, ys)
        assert generated == pinned
        monkeypatch.setattr(edm, "_CHILD_BLOCK", block)
        assert searched(xs, ys)[1:] == (distances, generated)

    @pytest.mark.parametrize("where", [0, 3, 8])
    def test_over_budget_pair_in_a_batch_raises(self, monkeypatch, where):
        # line 1 generates 13,577 children; on a budget one below that it
        # raises wherever it sits in a batch of pairs that fit the budget
        pairs, pinned = self.pinned_pairs(lines={2, 4, 5, 6, 9, 10, 14, 17})
        over, (count,) = self.pinned_pairs(lines={1})
        assert max(pinned) < count - 1
        monkeypatch.setattr(edm, "NODE_BUDGET", count - 1)
        xs, ys = map(list, zip(*pairs))
        assert exact_distances(xs, ys).tolist()
        xs.insert(where, over[0][0])
        ys.insert(where, over[0][1])
        with pytest.raises(BudgetExceededError, match=f"budget of {count - 1}"):
            exact_distances(xs, ys)


class TestPairBounds:
    def test_lower_bound_below_bfs_oracle_up_to_length_3(self):
        # every ordered pair of strings of length 0-3 (85 strings, 7,225 pairs)
        strings = ["".join(p) for n in range(4) for p in itertools.product(ALPHABET, repeat=n)]
        pairs = list(itertools.product(strings, repeat=2))
        upper, lower = pair_bounds([x for x, _ in pairs], [y for _, y in pairs])
        for (x, y), lo, up in zip(pairs, lower.tolist(), upper.tolist()):
            assert lo <= bfs_edm_oracle(x, y) <= up, (x, y, lo, up)

    def test_bounds_bracket_exact_on_random_pairs(self):
        rng = np.random.default_rng(13)
        xs = [random_string(rng, int(rng.integers(4, 9))) for _ in range(120)]
        ys = [random_string(rng, int(rng.integers(4, 9))) for _ in range(60)]
        ys += [mutate(rng, x, int(rng.integers(1, 4)))[:8] for x in xs[60:]]
        upper, lower = pair_bounds(xs, ys)
        assert (lower < upper).any() and (lower == upper).any()
        for x, y, lo, up in zip(xs, ys, lower.tolist(), upper.tolist()):
            assert lo <= edm_exact(x, y) <= up, (x, y, lo, up)

    def test_mixed_batch_matches_scalar_oracles(self, monkeypatch):
        # empty strings, identical pairs and unequal lengths 0-10 in one
        # batch, cut into blocks of 3 so that groups span several blocks
        monkeypatch.setattr(edm, "BOUNDS_BLOCK", 3)
        rng = np.random.default_rng(14)
        xs = ["", "", "A", "ATGC", "GATTACA", "ATGCATGCAT"]
        ys = ["", "TTG", "", "ATGC", "GATTACA", "TACGTACGTA"]
        for _ in range(40):
            xs.append(random_string(rng, int(rng.integers(0, MAX_EDM_LENGTH + 1))))
            ys.append(random_string(rng, int(rng.integers(0, MAX_EDM_LENGTH + 1))))
        for n in (6, 7):
            xs += [random_string(rng, n) for _ in range(4)]
            ys += [random_string(rng, n) for _ in range(4)]
        upper, lower = pair_bounds(xs, ys)
        assert upper.tolist() == [upper_oracle(x, y) for x, y in zip(xs, ys)]
        assert lower.tolist() == [lower_oracle(x, y) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("seeds", [1, 2, 8])
    def test_two_move_stage_matches_oracle(self, monkeypatch, seeds):
        # pairs three random block moves apart at lengths 7-9, where the
        # one-move bound is often too high: with one, two and eight seed
        # moves the second stage lowers different pairs, so its seed count
        # and tie rule show here
        monkeypatch.setattr(edm, "TWO_MOVE_SEEDS", seeds)
        rng = np.random.default_rng(19)
        xs = [random_string(rng, int(rng.integers(7, 10))) for _ in range(24)]
        ys = []
        for y in xs:
            for _ in range(3):
                i, j, k = sorted(rng.choice(len(y) + 1, size=3, replace=False))
                y = y[:i] + y[j:k] + y[i:j] + y[k:]
            ys.append(y)
        upper, _ = pair_bounds(xs, ys)
        assert upper.tolist() == [upper_oracle(x, y) for x, y in zip(xs, ys)]

    def test_open_block_stays_within_its_memory(self):
        # one BOUNDS_BLOCK of length-10 pairs whose final upper bound still
        # exceeds both the lower bound and lc + 2, so every pair runs both
        # stages of the upper bound: the peak of numpy and Python
        # allocations stays under the ~1 MB that BOUNDS_BLOCK documents (one
        # second-stage pass over all 64 pairs read 7.6 MB)
        rng = np.random.default_rng(18)
        xs, ys = [], []
        while len(xs) < edm.BOUNDS_BLOCK:
            x, y = random_string(rng, 10), random_string(rng, 10)
            upper, lower = pair_bounds([x], [y])
            if upper[0] > max(lower[0], lc_oracle(x, y) + 2):
                xs.append(x)
                ys.append(y)
        tracemalloc.start()
        try:
            pair_bounds(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @staticmethod
    def node_bounds(xs, ys):
        """The search's (bound, lc) of each x as a node key against its y,
        from the roots of one ``_Search`` block."""
        search = edm._Search(xs, ys, *pair_bounds(xs, ys))
        roots = search.visited[0::2]  # the x side's root keys, in pair order
        bound, lc = np.empty((2, len(xs)), np.int64)
        for n in set(map(len, xs)):
            at = np.flatnonzero([len(x) == n for x in xs])
            bound[at], lc[at] = search._node_bounds(roots[at], n)
        return bound.tolist(), lc.tolist()

    def test_node_bound_matches_batch_bound(self):
        # the search's bound of a node key against its side's target is the
        # batch lower bound of that pair, at lengths 0-10
        rng = np.random.default_rng(16)
        xs, ys = ["", "", "GCA", "ATGC"], ["", "ATG", "", "ATGC"]
        for _ in range(300):
            xs.append(random_string(rng, int(rng.integers(0, MAX_EDM_LENGTH + 1))))
            ys.append(random_string(rng, int(rng.integers(0, MAX_EDM_LENGTH + 1))))
        _, lower = pair_bounds(xs, ys)
        bound, lc = self.node_bounds(xs, ys)
        assert bound == lower.tolist()
        assert lc == [lc_oracle(x, y) for x, y in zip(xs, ys)]

    def test_node_bound_matches_counter_gap(self):
        # the shared-bigram form gives the L1 gap between the Counter bigrams
        # of ^s$ and ^t$, at lengths 0-10 against targets of unequal and of
        # equal length
        rng = np.random.default_rng(17)
        targets = ["", "A", "GATTACA", "ATGCATGC", "TTTTTTTTTT"]
        targets += [random_string(rng, n) for n in range(MAX_EDM_LENGTH + 1)]
        for t in targets:
            bt = Counter(zip("^" + t, t + "$"))
            strings = [random_string(rng, n) for n in range(MAX_EDM_LENGTH + 1) for _ in range(6)]
            strings += [t, t[::-1], t[1:] + t[:1]]
            bound, lc = self.node_bounds(strings, [t] * len(strings))
            for s, got, lc_s in zip(strings, bound, lc):
                bs = Counter(zip("^" + s, s + "$"))
                gap = sum(((bs - bt) + (bt - bs)).values())
                assert lc_s == lc_oracle(s, t), (s, t)
                assert got == edm._lower_bound(lc_s, gap), (s, t)

    def test_bounds_argument_gives_the_same_distance(self):
        # the search started from pair_bounds' brackets, as one block, gives
        # each pair's edm_exact
        rng = np.random.default_rng(15)
        xs = [random_string(rng, int(rng.integers(1, 8))) for _ in range(80)]
        ys = [random_string(rng, int(rng.integers(1, 8))) for _ in range(80)]
        at, distances, _ = searched(xs, ys)
        assert len(at) > 20
        assert distances == [edm_exact(xs[i], ys[i]) for i in at]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="outside"):
            pair_bounds(["ATG"], ["AXG"])
        with pytest.raises(ValueError, match="lengths up to"):
            pair_bounds(["A" * 11], ["A"])
        with pytest.raises(ValueError, match="second strings"):
            pair_bounds(["A", "T"], ["A"])
        with pytest.raises(ValueError, match="expected strings"):
            pair_bounds([1], ["A"])


class TestSimilarity:
    """The normalized label (N - EDM)/N, as the dataset loader checks it."""

    @staticmethod
    def load_one(tmp_path, a, b, c, s_ab, s_ac):
        """Load a one-triplet file with exact distances and the given labels
        (line 1 is always verified)."""
        row = dict(a=a, b=b, c=c, d_ab=edm_exact(a, b), d_ac=edm_exact(a, c))
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(dict(row, s_ab=s_ab, s_ac=s_ac)) + "\n")
        (t,) = load_triplets(path)
        return t

    def test_identical(self, tmp_path):
        t = self.load_one(tmp_path, "ATGCATGC", "ATGCATGC", "TTGCATGA", 1.0, 0.75)
        assert t.d_ab == 0 and t.s_ab == 1.0
        with pytest.raises(DatasetError, match="do not match"):
            self.load_one(tmp_path, "ATGCATGC", "ATGCATGC", "TTGCATGA", 0.875, 0.75)

    def test_one_move_length_four(self, tmp_path):
        t = self.load_one(tmp_path, "ATGC", "GCAT", "ATGC", 0.75, 1.0)
        assert t.d_ab == 1 and t.s_ab == 0.75
        with pytest.raises(DatasetError, match="do not match"):
            self.load_one(tmp_path, "ATGC", "GCAT", "ATGC", 0.5, 1.0)


@pytest.mark.slow
def test_generation_matches_committed_prefix(tmp_path):
    # each triplet draws from its own SeedSequence child, so the first 400
    # triplets of a seed are the first 400 lines of its committed file;
    # this reaches the tie-redraw path that per-pair checks do not
    datasets = load_script("run_comparison").DATASETS
    for name, seed in datasets.items():
        save_triplets(generate_triplets(seed, 400, 8), tmp_path / name)
        committed = (ACCEPT_DIR / f"{name}.jsonl").read_bytes().splitlines(keepends=True)
        assert (tmp_path / name).read_bytes() == b"".join(committed[:400]), name


@settings(max_examples=60, deadline=None)
@given(x=short_strings, y=short_strings)
def test_edm_properties_hypothesis(x, y):
    d = edm_exact(x, y)
    assert 0 <= d <= levenshtein(x, y)
    upper, lower = pair_bounds([x], [y])
    assert lower[0] <= d <= upper[0]
    assert (d == 0) == (x == y)
    assert edm_exact(y, x) == d


@st.composite
def two_moves_apart(draw):
    """(x, y), y two random block moves from x, at lengths 2-10."""
    n = draw(st.integers(2, MAX_EDM_LENGTH))
    x = y = draw(st.text(alphabet=ALPHABET, min_size=n, max_size=n))
    for _ in range(2):
        i, j, k = sorted(draw(st.lists(st.integers(0, n), min_size=3, max_size=3, unique=True)))
        y = y[:i] + y[j:k] + y[i:j] + y[k:]
    return x, y


@settings(max_examples=150, deadline=None)
@given(pair=two_moves_apart())
def test_bounds_bracket_two_moves_apart(pair):
    # the two-move stage lowers the upper bound toward 2 on such pairs; it
    # must never pass below the distance (the BFS oracle's, up to length 5)
    x, y = pair
    upper, lower = pair_bounds([x], [y])
    d = edm_exact(x, y)
    if len(x) <= 5:
        assert d == bfs_edm_oracle(x, y)
    assert lower[0] <= d <= upper[0]
    assert d <= 2
