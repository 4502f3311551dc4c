"""Labeled triplet datasets: random sequences with exact EDM ground truth.

A triplet (a, b, c) carries the two distances d(a,b) and d(a,c) with their
normalized similarities. Triplets whose two distances tie are rejected and
redrawn, because the ordering metric needs a strict ground truth. Files are
line-delimited JSON, deterministic byte for byte given the seed.

A set of triplets is a ``TripletSet``: a (count, 3, n) uint8 array of the
a, b and c of each triplet in ``circuits`` letter codes and a (count, 2)
int64 array of d(a, b) and d(a, c). Generation and both loaders (the batch
pass and the per-line loop) build a set from those two arrays alone, and
the pair layout of training reads them; a ``LabeledTriplet`` is an output
only, built when the set is iterated.

Each chunk of triplets is labelled through one streaming search
(``edm._Search``): it brackets the pairs queued into it with ``pair_bounds``
and searches those whose bracket is open together, a BFS level of many of
them per step, and a tie's redraw joins it at its next level. Each distance
then passes through ``edm_exact`` as a closed bracket (d, d), one call per
pair, which returns d. Verification labels its pairs in one
``edm.exact_distances`` call, which streams a fixed list the same way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from dnakernel.circuits import ALPHABET, LETTER_BYTES, encode, validate_sequence
from dnakernel.edm import MAX_EDM_LENGTH, _Search, edm_exact, exact_distances


BATCH_LINES = 128  # lines load_triplets decodes as one JSON array
VERIFY_STRIDE = 100  # load_triplets recomputes lines 1, 1 + stride, ...
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


class TripletSet:
    """A read-only set of labeled triplets held as two arrays.

    ``codes[i]`` holds the letter codes (``circuits.encode``) of a, b and c
    of triplet i, one row each, and ``distances[i]`` its d(a, b) and
    d(a, c). A set has a length, a slice is a TripletSet over views of both
    arrays, and iteration decodes the whole set once (``strings``) into
    ``LabeledTriplet``s. A set pickles as its two arrays.
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

    def __getitem__(self, i: slice):
        if not isinstance(i, slice):
            raise TypeError(f"TripletSet indices must be slices, not {type(i).__name__}")
        return TripletSet(self.codes[i], self.distances[i])

    def strings(self) -> list:
        """The (a, b, c) strings of every triplet, the codes decoded at once."""
        n = self.length
        text = LETTER_BYTES[self.codes].tobytes().decode("ascii")
        return [(text[at : at + n], text[at + n : at + 2 * n], text[at + 2 * n : at + 3 * n])
                for at in (3 * n * i for i in range(len(self)))]

    def __iter__(self):
        for abc, (d_ab, d_ac) in zip(self.strings(), self.distances.tolist()):
            yield LabeledTriplet(*abc, d_ab, d_ac)


def random_sequence(rng: np.random.Generator, length: int) -> str:
    """Draw each position independently and uniformly from the alphabet."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    codes = rng.integers(0, len(ALPHABET), size=length)
    return LETTER_BYTES[codes].tobytes().decode("ascii")


def _distances(triples) -> np.ndarray:
    """The (count, 2) array of each (a, b, c)'s exact d(a, b) and d(a, c): all
    pairs are labelled in one ``exact_distances`` call, then each distance d
    goes through ``edm_exact`` as the closed bracket (d, d), which returns d.
    That per-pair call, which ``_label_chunk`` makes too, is where the
    benchmark's tracer counts labels and its label check perturbs them; it
    searches nothing."""
    xs = [a for a, _, _ in triples for _ in range(2)]
    ys = [y for _, b, c in triples for y in (b, c)]
    d = [edm_exact(x, y, bounds=(e, e))
         for x, y, e in zip(xs, ys, exact_distances(xs, ys).tolist())]
    return np.array(d, np.int64).reshape(-1, 2)


def _label_chunk(children: list, length: int) -> tuple:
    """Label one triplet per SeedSequence child: returns each triplet's a, b
    and c as one string of 3 * length letters, and its (d(a, b), d(a, c)) as
    a row of a (count, 2) array.

    Every triplet draws its first attempt, and the attempts' pairs stream
    through one ``edm._Search``. Once both distances of an attempt are out,
    each goes through ``edm_exact`` as the closed bracket (d, d), and the
    values it returns decide: a triplet whose distances tie draws its next
    attempt from its own stream, whose pairs join the running search. So
    every stream sees the same draws as when triplets are labelled one at a
    time. An attempt draws its three strings as one sequence of 3 * length
    letters: the generator hands out the same values to one call of size 3n
    as to three calls of size n.
    """
    rngs = [np.random.default_rng(ss) for ss in children]
    letters = [random_sequence(rng, 3 * length) for rng in rngs]
    distances = np.empty((len(rngs), 2), np.int64)
    search, attempts, out = _Search(), [], {}  # attempt k's pairs are numbers 2k and 2k + 1

    def draw(triplets):
        """Queue the pairs (a, b) and (a, c) of each triplet's attempt."""
        abc = [letters[i] for i in triplets]
        search.push([a for s in abc for a in (s[:length],) * 2],
                    [y for s in abc for y in (s[length : 2 * length], s[2 * length :])])
        attempts.extend(triplets)

    draw(range(len(rngs)))
    left = len(rngs)
    while left:
        ties = []
        for pair, d in zip(*(found.tolist() for found in search.step())):
            other = out.pop(pair ^ 1, None)
            if other is None:  # the attempt's other distance is still to come
                out[pair] = d
                continue
            i = attempts[pair >> 1]
            a, b, c = (letters[i][lo : lo + length] for lo in range(0, 3 * length, length))
            d_ab, d_ac = (other, d) if pair & 1 else (d, other)
            d_ab, d_ac = edm_exact(a, b, bounds=(d_ab, d_ab)), edm_exact(a, c, bounds=(d_ac, d_ac))
            if d_ab == d_ac:
                letters[i] = random_sequence(rngs[i], 3 * length)
                ties.append(i)
            else:
                distances[i] = d_ab, d_ac
                left -= 1
        if ties:
            draw(ties)
    return letters, distances


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
    labelled = pool_starmap(_label_chunk, chunks, jobs)
    codes = encode([abc for letters, _ in labelled for abc in letters], 3 * length)
    return TripletSet(codes.reshape(count, 3, length), np.concatenate([d for _, d in labelled]))


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


def save_triplets(triplets: TripletSet, path) -> None:
    """Write one JSON object per line, atomically (write then rename): the
    line ``json.dumps(..., sort_keys=True)`` writes for each triplet, formatted
    from the set's arrays (floats by repr, as JSON writes them)."""
    n, d = triplets.length, triplets.distances
    lines = (f'{{"a": "{a}", "b": "{b}", "c": "{c}", "d_ab": {d_ab}, "d_ac": {d_ac}, '
             f'"s_ab": {s_ab!r}, "s_ac": {s_ac!r}}}\n'
             for (a, b, c), (d_ab, d_ac), (s_ab, s_ac)
             in zip(triplets.strings(), d.tolist(), ((n - d) / n).tolist()))
    write_atomic(path, "".join(lines))


def _line_triplets(lines) -> TripletSet:
    """The TripletSet of a file's nonempty lines, parsed and checked one line
    at a time: the statement of every refusal and its wording. Each line's
    strings and distances are kept, and encoded at once at the end."""
    strings, distances = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise DatasetError(f"line {lineno}: empty line")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetError(f"line {lineno}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise DatasetError(f"line {lineno}: expected a JSON object")
        try:
            a, b, c, d_ab, d_ac, s_ab, s_ac = _FIELDS(obj)
        except KeyError as e:
            raise DatasetError(f"line {lineno}: missing field {e}") from None
        for name, seq in zip("abc", (a, b, c)):
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
            raise DatasetError(f"line {lineno}: similarity labels do not match (N - d)/N")
        if strings and 3 * n != len(strings[0]):
            raise DatasetError(f"line {lineno}: sequence length {n} differs "
                               f"from {len(strings[0]) // 3} on line 1")
        strings.append(a + b + c)
        distances.append((d_ab, d_ac))
    return TripletSet(encode(strings, 3 * n).reshape(len(strings), 3, n), distances)


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


def load_triplets(path) -> TripletSet:
    """Load and validate a triplet file.

    Every line is checked for format and label consistency; on top of that,
    every VERIFY_STRIDE-th line from line 1 has its distances recomputed
    against the exact oracle. The file is read once, so a pipe loads like a
    regular file. Its lines go through the batch pass first; lines it does
    not accept go through the per-line loop, which accepts the same files
    and names the first bad line.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise DatasetError(f"{path}: no triplets found")
    try:
        triplets = _batch_triplets(lines)
    except Exception:  # _line_triplets says why
        triplets = None
    if triplets is None:
        triplets = _line_triplets(lines)
    checked = triplets[::VERIFY_STRIDE]
    bad = np.flatnonzero((_distances(checked.strings()) != checked.distances).any(axis=1))
    if len(bad):
        raise DatasetError(f"line {bad[0] * VERIFY_STRIDE + 1}: stored distances fail recomputation")
    return triplets
