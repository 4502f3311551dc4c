"""Dataset generation, serialization, and validation-on-load."""

import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from dnakernel.dataset import (
    DatasetError,
    LabeledTriplet,
    generate_triplets,
    load_triplets,
    random_sequence,
    save_triplets,
)
from dnakernel.edm import edm_exact

ACCEPT_DIR = Path(__file__).resolve().parents[1] / "results" / "acceptance"


class TestRandomSequence:
    def test_length_and_alphabet(self):
        rng = np.random.default_rng(0)
        s = random_sequence(rng, 8)
        assert len(s) == 8 and set(s) <= set("ATGC")

    def test_determinism(self):
        a = random_sequence(np.random.default_rng(7), 20)
        b = random_sequence(np.random.default_rng(7), 20)
        assert a == b

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="length"):
            random_sequence(np.random.default_rng(0), 0)

    def test_letter_frequencies_uniform(self):
        # 100k letters: each frequency within 1% of 0.25
        rng = np.random.default_rng(12345)
        letters = "".join(random_sequence(rng, 10) for _ in range(10_000))
        for c in "ATGC":
            assert abs(letters.count(c) / len(letters) - 0.25) < 0.01


class TestGenerateTriplets:
    def test_count_and_shape(self):
        trips = generate_triplets(seed=1, count=12, length=5)
        assert len(trips) == 12
        for t in trips:
            assert len(t.a) == len(t.b) == len(t.c) == 5

    def test_no_ties(self):
        trips = generate_triplets(seed=2, count=25, length=4)
        assert all(t.d_ab != t.d_ac for t in trips)

    def test_labels_match_oracle(self):
        trips = generate_triplets(seed=3, count=10, length=5)
        for t in trips:
            d_ab, d_ac = edm_exact(t.a, t.b), edm_exact(t.a, t.c)
            labels = (d_ab, d_ac, (5 - d_ab) / 5, (5 - d_ac) / 5)
            assert (t.d_ab, t.d_ac, t.s_ab, t.s_ac) == labels

    def test_determinism(self):
        assert generate_triplets(seed=4, count=8, length=4) == generate_triplets(
            seed=4, count=8, length=4
        )
        assert generate_triplets(seed=4, count=8, length=4) != generate_triplets(
            seed=5, count=8, length=4
        )

    def test_prefix_stability(self):
        # per-triplet seed streams: a longer run starts with the same triplets
        short = generate_triplets(seed=6, count=5, length=4)
        long = generate_triplets(seed=6, count=9, length=4)
        assert long[:5] == short

    def test_length_cap(self):
        with pytest.raises(ValueError, match="length"):
            generate_triplets(seed=0, count=1, length=11)

    def test_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            generate_triplets(seed=0, count=0, length=4)
        with pytest.raises(ValueError, match="jobs"):
            generate_triplets(seed=0, count=2, length=4, jobs=0)

    def test_matches_committed_prefix(self, tmp_path):
        # train.jsonl is seed 101 at length 8; its first 40 lines include
        # tie redraws and pairs that the bounds leave to the search
        save_triplets(generate_triplets(101, 40, 8), tmp_path / "train.jsonl")
        with open(ACCEPT_DIR / "train.jsonl", "rb") as fh:
            committed = b"".join(fh.readline() for _ in range(40))
        assert (tmp_path / "train.jsonl").read_bytes() == committed

    def test_real_pool_matches_serial(self):
        # 10 triplets over 3 workers: chunks of 3, 3 and 4
        serial = generate_triplets(seed=12, count=10, length=5)
        assert generate_triplets(seed=12, count=10, length=5, jobs=3) == serial

    def test_worker_pool_capped_at_count(self, monkeypatch):
        sizes = []

        class FakePool:
            """Records the requested size and maps in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, func, items):
                return [func(*item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        trips = generate_triplets(seed=7, count=4, length=4, jobs=64)
        assert sizes == [4]
        assert trips == generate_triplets(seed=7, count=4, length=4)


class TestSaveLoadRoundTrip:
    def test_round_trip(self, tmp_path):
        trips = generate_triplets(seed=8, count=15, length=5)
        path = tmp_path / "trips.jsonl"
        save_triplets(trips, path)
        assert load_triplets(path, verify_fraction=1.0) == trips

    def test_byte_identical_rewrites(self, tmp_path):
        trips = generate_triplets(seed=9, count=10, length=4)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_triplets(trips, p1)
        save_triplets(trips, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_line_count(self, tmp_path):
        trips = generate_triplets(seed=10, count=7, length=4)
        path = tmp_path / "t.jsonl"
        save_triplets(trips, path)
        assert len(path.read_text().splitlines()) == 7


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def _valid_line(length=4, seed=11):
    t = generate_triplets(seed=seed, count=1, length=length)[0]
    return json.dumps(
        {
            "a": t.a,
            "b": t.b,
            "c": t.c,
            "d_ab": t.d_ab,
            "d_ac": t.d_ac,
            "s_ab": t.s_ab,
            "s_ac": t.s_ac,
        },
        sort_keys=True,
    )


def _forged_line():
    """A length-5 line with consistent labels (s matches d) whose d_ab
    disagrees with the oracle."""
    obj = json.loads(_valid_line(length=5, seed=13))
    n = len(obj["a"])
    true_d = edm_exact(obj["a"], obj["b"])
    forged = true_d + 1 if true_d + 1 <= n else true_d - 1
    if forged == obj["d_ac"]:
        forged = true_d - 1
    obj["d_ab"] = forged
    obj["s_ab"] = (n - forged) / n
    return json.dumps(obj, sort_keys=True)


class TestLoadValidation:
    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [_valid_line(), "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_triplets(path)

    def test_bad_symbol(self, tmp_path):
        line = _valid_line().replace("A", "X", 1)
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [line])
        with pytest.raises(DatasetError, match="line 1"):
            load_triplets(path)

    def test_wrong_similarity(self, tmp_path):
        obj = json.loads(_valid_line())
        obj["s_ab"] = 0.123
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [json.dumps(obj, sort_keys=True)])
        with pytest.raises(DatasetError, match="similarity"):
            load_triplets(path)

    def test_tied_distances_rejected(self, tmp_path):
        obj = json.loads(_valid_line())
        n = len(obj["a"])
        obj["d_ac"] = obj["d_ab"]
        obj["s_ac"] = (n - obj["d_ac"]) / n
        obj["s_ab"] = (n - obj["d_ab"]) / n
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [json.dumps(obj, sort_keys=True)])
        with pytest.raises(DatasetError, match="tied"):
            load_triplets(path)

    def test_missing_field(self, tmp_path):
        obj = json.loads(_valid_line())
        del obj["d_ab"]
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [json.dumps(obj, sort_keys=True)])
        with pytest.raises(DatasetError, match="missing field"):
            load_triplets(path)

    def test_spot_check_catches_wrong_distance(self, tmp_path):
        path = tmp_path / "forged.jsonl"
        _write_lines(path, [_forged_line()])
        with pytest.raises(DatasetError, match="recomputation"):
            load_triplets(path, verify_fraction=1.0)

    def test_subnormal_verify_fraction_checks_line_one(self, tmp_path):
        # 1 / 5e-324 is inf, which round cannot take; any positive fraction
        # verifies line 1, and a tiny one nothing else
        path = tmp_path / "forged.jsonl"
        _write_lines(path, [_forged_line(), _valid_line(length=5, seed=12)])
        with pytest.raises(DatasetError, match="line 1: stored distances fail recomputation"):
            load_triplets(path, verify_fraction=5e-324)
        _write_lines(path, [_valid_line(length=5, seed=12), _forged_line()])
        assert len(load_triplets(path, verify_fraction=5e-324)) == 2

    @pytest.mark.parametrize("fraction", [float("nan"), -0.5, 1.5])
    def test_verify_fraction_outside_unit_interval_refused(self, tmp_path, fraction):
        # a NaN or negative fraction must not skip verification silently;
        # 0 is the explicit "verify none"
        path = tmp_path / "one.jsonl"
        _write_lines(path, [_valid_line(length=5, seed=13)])
        with pytest.raises(ValueError, match="verify_fraction"):
            load_triplets(path, verify_fraction=fraction)
        assert len(load_triplets(path, verify_fraction=0)) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="no triplets"):
            load_triplets(path)

    def test_distance_type_check(self, tmp_path):
        obj = json.loads(_valid_line())
        obj["d_ab"] = float(obj["d_ab"])
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [json.dumps(obj, sort_keys=True)])
        with pytest.raises(DatasetError, match="integers"):
            load_triplets(path)

    def test_boolean_distance_rejected(self, tmp_path):
        # json true is an int subclass equal to 1, so it would pass the label
        # and recomputation checks as distance 1 without a type check
        a, b, c = "ATGC", "ATGG", "CCAA"
        d_ac = edm_exact(a, c)
        assert edm_exact(a, b) == 1 and d_ac != 1
        line = json.dumps({"a": a, "b": b, "c": c, "d_ab": True, "d_ac": d_ac,
                           "s_ab": 0.75, "s_ac": (4 - d_ac) / 4}, sort_keys=True)
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [_valid_line(), line])
        with pytest.raises(DatasetError, match="line 2: distances must be integers"):
            load_triplets(path, verify_fraction=1.0)

    def test_boolean_similarity_rejected(self, tmp_path):
        # json true equals 1.0, the label of distance 0, so only a type check
        # refuses it
        a, c = "ATGC", "CCAA"
        d_ac = edm_exact(a, c)
        line = json.dumps({"a": a, "b": a, "c": c, "d_ab": 0, "d_ac": d_ac,
                           "s_ab": True, "s_ac": (4 - d_ac) / 4}, sort_keys=True)
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [_valid_line(), line])
        with pytest.raises(DatasetError, match="line 2: similarity labels must be numbers"):
            load_triplets(path, verify_fraction=1.0)

    def test_mixed_sequence_lengths_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        _write_lines(path, [_valid_line(length=8), _valid_line(length=8, seed=12),
                            _valid_line(length=3)])
        with pytest.raises(DatasetError, match="line 3: sequence length 3"):
            load_triplets(path)


def test_labeled_triplet_length():
    t = LabeledTriplet("ATGC", "GCAT", "AAAA", 1, 3)
    assert (t.length, t.s_ab, t.s_ac) == (4, 0.75, 0.25)
