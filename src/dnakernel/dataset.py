"""Labeled triplet datasets: random sequences with exact EDM ground truth.

A triplet (a, b, c) carries the two distances d(a,b) and d(a,c) with their
normalized similarities. Triplets whose two distances tie are rejected and
redrawn, because the ordering metric needs a strict ground truth. Files are
line-delimited JSON, deterministic byte for byte given the seed.

A set of triplets is a ``TripletSet``: a (count, 3, n) uint8 array of the
a, b and c of each triplet in ``circuits`` letter codes and a (count, 2)
int64 array of d(a, b) and d(a, c). Generation, loading and the pair
layout of training all work on those two arrays; a ``LabeledTriplet`` is
built only when one triplet is indexed or the set is iterated.

Labels come in batches: one ``edm.exact_distances`` call per batch brackets
every pair with ``pair_bounds`` and searches all pairs whose bracket is open
together, a BFS level of many of them per step. Each distance then passes
through ``edm_exact`` as a closed bracket, one call per pair.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import index, itemgetter

import numpy as np

from dnakernel.circuits import ALPHABET, LETTER_BYTES, encode, validate_sequence
from dnakernel.edm import MAX_EDM_LENGTH, edm_exact, exact_distances


BATCH_LINES = 128  # lines load_triplets decodes as one JSON array
_FIELDS = itemgetter("a", "b", "c", "d_ab", "d_ac", "s_ab", "s_ac")


class DatasetError(ValueError):
    """Malformed or inconsistent dataset content."""


@dataclass(frozen=True, slots=True)
class LabeledTriplet:
    """Sequences a, b, c with their exact distances d(a, b) and d(a, c).

    The similarity labels s = (N - d)/N are derived from the distances, not
    stored, so a triplet holds five fields.
    """

    a: str
    b: str
    c: str
    d_ab: int
    d_ac: int

    @property
    def length(self) -> int:
        return len(self.a)

    @property
    def s_ab(self) -> float:
        return (len(self.a) - self.d_ab) / len(self.a)

    @property
    def s_ac(self) -> float:
        return (len(self.a) - self.d_ac) / len(self.a)


class TripletSet(Sequence):
    """A read-only sequence of labeled triplets held as two arrays.

    ``codes[i]`` holds the letter codes (``circuits.encode``) of a, b and c
    of triplet i, one row each, and ``distances[i]`` its d(a, b) and
    d(a, c). An integer index builds that triplet's ``LabeledTriplet``, a
    slice is a TripletSet over views of both arrays, and iteration decodes
    the whole set once. A set pickles as its two arrays.
    """

    __slots__ = ("codes", "distances")

    def __init__(self, codes, distances):
        codes, distances = np.asarray(codes, np.uint8), np.asarray(distances, np.int64)
        if codes.ndim != 3 or codes.shape[1] != 3 or distances.shape != (len(codes), 2):
            raise ValueError(f"expected (count, 3, n) codes and (count, 2) distances, "
                             f"got {codes.shape} and {distances.shape}")
        for name, array in (("codes", codes), ("distances", distances)):
            view = array.view()  # read-only without touching the caller's array
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def of(cls, triplets) -> TripletSet:
        """The set of an iterable of LabeledTriplet, every sequence checked
        by one ``encode`` call to be over ALPHABET with the first a's length."""
        triplets = list(triplets)
        n = len(validate_sequence(triplets[0].a)) if triplets else 0
        codes = encode([s for t in triplets for s in (t.a, t.b, t.c)], n)
        distances = np.fromiter((d for t in triplets for d in (t.d_ab, t.d_ac)), np.int64,
                                count=2 * len(triplets))
        return cls(codes.reshape(len(triplets), 3, n), distances.reshape(-1, 2))

    def __setattr__(self, name, value):
        raise AttributeError(f"TripletSet is read-only: cannot set {name!r}")

    def __reduce__(self):
        return TripletSet, (self.codes, self.distances)

    @property
    def length(self) -> int:
        """The sequence length n shared by every triplet of the set."""
        return self.codes.shape[2]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TripletSet(self.codes[i], self.distances[i])
        i = range(len(self))[index(i)]  # IndexError past either end
        return next(iter(self[i : i + 1]))

    def __iter__(self):
        n = self.length
        text = LETTER_BYTES[self.codes].tobytes().decode("ascii")
        for i, (d_ab, d_ac) in enumerate(self.distances.tolist()):
            at = 3 * n * i
            yield LabeledTriplet(text[at : at + n], text[at + n : at + 2 * n],
                                 text[at + 2 * n : at + 3 * n], d_ab, d_ac)

    def __eq__(self, other):
        if not isinstance(other, TripletSet):
            return NotImplemented
        return (np.array_equal(self.codes, other.codes)
                and np.array_equal(self.distances, other.distances))


def random_sequence(rng: np.random.Generator, length: int) -> str:
    """Draw each position independently and uniformly from the alphabet."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    codes = rng.integers(0, len(ALPHABET), size=length)
    return LETTER_BYTES[codes].tobytes().decode("ascii")


def _distances(triples) -> list:
    """Exact (d(a, b), d(a, c)) of each (a, b, c): all pairs are searched in
    one ``exact_distances`` call, then each distance goes through
    ``edm_exact`` as a closed bracket, which returns it. That per-pair call
    is where the benchmark's tracer counts labels and its label check
    perturbs them; it searches nothing."""
    xs = [a for a, _, _ in triples for _ in range(2)]
    ys = [y for _, b, c in triples for y in (b, c)]
    d = [edm_exact(x, y, bounds=(e, e))
         for x, y, e in zip(xs, ys, exact_distances(xs, ys).tolist())]
    return list(zip(d[::2], d[1::2]))


def _label_chunk(children: list, length: int) -> list:
    """Label one triplet per SeedSequence child, in attempt rounds.

    A round draws (a, b, c) for every triplet still open, each from its own
    stream, and labels all of them in one batch; a triplet whose distances
    tie draws again in the next round, so every stream sees the same draws
    as when triplets are labelled one at a time. An attempt draws its three
    strings as one sequence of 3 * length letters: the generator hands out
    the same values to one call of size 3n as to three calls of size n.
    """
    rngs = [np.random.default_rng(ss) for ss in children]
    triplets = [None] * len(rngs)
    open_ = list(range(len(rngs)))
    while open_:
        draws = []
        for i in open_:
            abc = random_sequence(rngs[i], 3 * length)
            draws.append((abc[:length], abc[length : 2 * length], abc[2 * length :]))
        still_open = []
        for i, (a, b, c), (d_ab, d_ac) in zip(open_, draws, _distances(draws)):
            if d_ab == d_ac:
                still_open.append(i)
            else:
                triplets[i] = LabeledTriplet(a, b, c, d_ab, d_ac)
        open_ = still_open
    return triplets


def generate_triplets(seed: int, count: int, length: int, jobs: int = 1):
    """Generate a TripletSet of ``count`` labeled triplets of the given
    sequence length.

    Each triplet consumes its own child of the seed's SeedSequence, so the
    result is identical no matter how the work is split across workers;
    tie rejection redraws stay inside the triplet's own stream. The triplets
    are split into min(jobs, count) contiguous chunks, one task each.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if length > MAX_EDM_LENGTH:
        raise ValueError(
            f"length {length} exceeds the exact-distance cap of {MAX_EDM_LENGTH}; "
            "labels would be unverifiable"
        )
    children = np.random.SeedSequence(seed).spawn(count)
    parts = min(jobs, count)
    cuts = [count * k // parts for k in range(parts + 1)]
    chunks = [(children[lo:hi], length) for lo, hi in zip(cuts, cuts[1:])]
    return TripletSet.of(t for chunk in pool_starmap(_label_chunk, chunks, jobs) for t in chunk)


def pool_starmap(func, args: list, jobs: int) -> list:
    """``[func(*a) for a in args]``, over min(jobs, len(args)) worker
    processes when jobs > 1; results keep the order of ``args`` either way.
    """
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(min(jobs, len(args))) as pool:
            return pool.starmap(func, args)
    return [func(*a) for a in args]


def write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_triplets(triplets, path) -> None:
    """Write one JSON object per line, atomically (write then rename)."""
    lines = (
        json.dumps({"a": t.a, "b": t.b, "c": t.c, "d_ab": t.d_ab, "d_ac": t.d_ac,
                    "s_ab": t.s_ab, "s_ac": t.s_ac}, sort_keys=True) + "\n"
        for t in triplets
    )
    write_atomic(path, "".join(lines))


def _parse_line(line: str, lineno: int) -> LabeledTriplet:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetError(f"line {lineno}: invalid JSON ({e.msg})") from None
    try:
        a, b, c = obj["a"], obj["b"], obj["c"]
        d_ab, d_ac = obj["d_ab"], obj["d_ac"]
        s_ab, s_ac = obj["s_ab"], obj["s_ac"]
    except (KeyError, TypeError) as e:
        raise DatasetError(f"line {lineno}: missing field {e}") from None
    for name, seq in (("a", a), ("b", b), ("c", c)):
        try:
            validate_sequence(seq)
        except ValueError as e:
            raise DatasetError(f"line {lineno}: field {name}: {e}") from None
    if not (len(a) == len(b) == len(c)):
        raise DatasetError(f"line {lineno}: sequences have unequal lengths")
    n = len(a)
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if not (type(d_ab) is int and type(d_ac) is int):
        raise DatasetError(f"line {lineno}: distances must be integers")
    if not {type(s_ab), type(s_ac)} <= {int, float}:
        raise DatasetError(f"line {lineno}: similarity labels must be numbers")
    if not (0 <= d_ab <= n and 0 <= d_ac <= n):
        raise DatasetError(f"line {lineno}: distance out of range 0..{n}")
    if d_ab == d_ac:
        raise DatasetError(f"line {lineno}: tied distances d_ab = d_ac = {d_ab}")
    if s_ab != (n - d_ab) / n or s_ac != (n - d_ac) / n:
        raise DatasetError(
            f"line {lineno}: similarity labels do not match (N - d)/N"
        )
    return LabeledTriplet(a, b, c, d_ab, d_ac)


def _line_triplets(lines) -> list:
    """The triplets of a file's lines, parsed and checked one line at a
    time: the statement of every refusal and its wording."""
    triplets = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise DatasetError(f"line {lineno}: empty line")
        triplet = _parse_line(line, lineno)
        if triplets and triplet.length != triplets[0].length:
            raise DatasetError(
                f"line {lineno}: sequence length {triplet.length} differs "
                f"from {triplets[0].length} on line 1"
            )
        triplets.append(triplet)
    return triplets


def _batch_triplets(lines):
    """The TripletSet of a file's nonempty list of lines if ``_line_triplets``
    accepts them, decoded BATCH_LINES lines at a time with column checks;
    None (or any exception) where a block fails one, for the per-line loop
    to say why.

    A block decodes as one JSON array of its lines. With one "{" and one
    "}" on every line, an array of len(lines) objects has no brace to
    spare: the k-th object holds the k-th pair, so it lies on line k and is
    what that line alone decodes to.
    """
    codes, distances, n = [], [], None
    for lo in range(0, len(lines), BATCH_LINES):
        block = lines[lo : lo + BATCH_LINES]
        if {*map(str.count, block, repeat("{")), *map(str.count, block, repeat("}"))} != {1}:
            return None
        objs = json.loads(f"[{','.join(block)}]")
        if len(objs) != len(block):
            return None
        a, b, c, d_ab, d_ac, s_ab, s_ac = zip(*map(_FIELDS, objs))
        n = len(a[0]) if n is None else n
        # ValueError unless strings over ALPHABET of length n
        abc = encode(a + b + c, n).reshape(3, len(block), n)
        if (set(map(type, d_ab + d_ac)) != {int}
                or not set(map(type, s_ab + s_ac)) <= {int, float}):
            return None
        d = np.array([d_ab, d_ac])
        # n = 0 leaves no pair of distances in range and untied
        if not ((0 <= d) & (d <= n)).all() or (d[0] == d[1]).any():
            return None
        if not np.array_equal(np.array([s_ab, s_ac], dtype=np.float64), (n - d) / n):
            return None
        codes.append(abc.transpose(1, 0, 2))
        distances.append(d.T)
    return TripletSet(np.concatenate(codes), np.concatenate(distances))


def load_triplets(path, verify_fraction: float = 0.01) -> TripletSet:
    """Load and validate a triplet file.

    Every line is checked for format and label consistency; on top of that,
    a deterministic stride of about ``verify_fraction`` of the lines has its
    distances recomputed against the exact oracle; 0 verifies none. The
    file is read once, so a pipe loads like a regular file. Its lines go
    through the batch pass first; lines it does not accept go through the
    per-line loop, which accepts the same files and names the first bad
    line.
    """
    if not 0 <= verify_fraction <= 1:
        raise ValueError(f"verify_fraction must be in [0, 1], got {verify_fraction}")
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise DatasetError(f"{path}: no triplets found")
    try:
        triplets = _batch_triplets(lines)
    except Exception:  # _line_triplets says why
        triplets = None
    if triplets is None:
        triplets = TripletSet.of(_line_triplets(lines))
    if verify_fraction > 0:
        # a stride past the last line verifies line 1 alone, so capping it
        # there changes nothing, and keeps 1 / verify_fraction (inf for a
        # subnormal fraction) out of round
        stride = max(1, round(min(1 / verify_fraction, len(triplets))))
        checked = list(triplets[::stride])
        exact = _distances([(t.a, t.b, t.c) for t in checked])
        for k, (t, d) in enumerate(zip(checked, exact)):
            if d != (t.d_ab, t.d_ac):
                raise DatasetError(
                    f"line {k * stride + 1}: stored distances fail recomputation"
                )
    return triplets
