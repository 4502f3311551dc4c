"""Labeled triplet datasets: random sequences with exact EDM ground truth.

A triplet (a, b, c) carries the two distances d(a,b) and d(a,c) with their
normalized similarities. Triplets whose two distances tie are rejected and
redrawn, because the ordering metric needs a strict ground truth. Files are
line-delimited JSON, deterministic byte for byte given the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from dnakernel.circuits import ALPHABET, validate_sequence
from dnakernel.edm import MAX_EDM_LENGTH, edm_exact


class DatasetError(ValueError):
    """Malformed or inconsistent dataset content."""


@dataclass(frozen=True)
class LabeledTriplet:
    a: str
    b: str
    c: str
    d_ab: int
    d_ac: int
    s_ab: float
    s_ac: float

    @property
    def length(self) -> int:
        return len(self.a)


def random_sequence(rng: np.random.Generator, length: int) -> str:
    """Draw each position independently and uniformly from the alphabet."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=length))


def _make_triplet(seedseq: np.random.SeedSequence, length: int) -> LabeledTriplet:
    rng = np.random.default_rng(seedseq)
    while True:
        a = random_sequence(rng, length)
        b = random_sequence(rng, length)
        c = random_sequence(rng, length)
        d_ab = edm_exact(a, b)
        d_ac = edm_exact(a, c)
        if d_ab == d_ac:
            continue
        return LabeledTriplet(
            a, b, c, d_ab, d_ac, (length - d_ab) / length, (length - d_ac) / length
        )


def generate_triplets(seed: int, count: int, length: int, jobs: int = 1):
    """Generate ``count`` labeled triplets of the given sequence length.

    Each triplet consumes its own child of the seed's SeedSequence, so the
    result is identical no matter how the work is split across workers;
    tie rejection redraws stay inside the triplet's own stream.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if length > MAX_EDM_LENGTH:
        raise ValueError(
            f"length {length} exceeds the exact-distance cap of {MAX_EDM_LENGTH}; "
            "labels would be unverifiable"
        )
    children = np.random.SeedSequence(seed).spawn(count)
    return pool_starmap(_make_triplet, [(ss, length) for ss in children], jobs)


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
    lines = (json.dumps(vars(t), sort_keys=True) + "\n" for t in triplets)
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
    return LabeledTriplet(a, b, c, d_ab, d_ac, s_ab, s_ac)


def load_triplets(path, verify_fraction: float = 0.01):
    """Load and validate a triplet file.

    Every line is checked for format and label consistency; on top of that,
    a deterministic stride of about ``verify_fraction`` of the lines has its
    distances recomputed against the exact oracle.
    """
    triplets = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                raise DatasetError(f"line {lineno}: empty line")
            triplet = _parse_line(line, lineno)
            if triplets and triplet.length != triplets[0].length:
                raise DatasetError(
                    f"line {lineno}: sequence length {triplet.length} differs "
                    f"from {triplets[0].length} on line 1"
                )
            triplets.append(triplet)
    if not triplets:
        raise DatasetError(f"{path}: no triplets found")
    if verify_fraction > 0:
        stride = max(1, int(round(1 / verify_fraction)))
        for idx in range(0, len(triplets), stride):
            t = triplets[idx]
            if edm_exact(t.a, t.b) != t.d_ab or edm_exact(t.a, t.c) != t.d_ac:
                raise DatasetError(
                    f"line {idx + 1}: stored distances fail recomputation"
                )
    return triplets
