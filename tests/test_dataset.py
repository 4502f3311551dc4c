"""Dataset generation, serialization, and validation-on-load."""

import json
import multiprocessing
import os
import pickle
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnakernel import dataset, edm
from dnakernel.circuits import encode
from dnakernel.dataset import (
    BATCH_LINES,
    DatasetError,
    LabeledTriplet,
    TripletSet,
    generate_triplets,
    load_triplets,
    random_sequence,
    save_triplets,
)
from dnakernel.edm import edm_exact, exact_distances

ACCEPT_DIR = Path(__file__).resolve().parents[1] / "results" / "acceptance"


def same_triplets(s, t) -> bool:
    """Whether two TripletSets hold equal codes and equal distances; any
    other pair of values (a loader's refusal message) compares with ==."""
    if isinstance(s, TripletSet) and isinstance(t, TripletSet):
        return np.array_equal(s.codes, t.codes) and np.array_equal(s.distances, t.distances)
    return s == t


def round_by_round_labels(seed, count, length):
    """Reference labelling, round by round: every open triplet draws an
    attempt (a, b, c) from its own stream, one exact_distances call labels
    the round's pairs, and the triplets whose distances tie draw again in
    the next round. Returns the (count, 3, length) codes and the (count, 2)
    distances that generate_triplets must give at any jobs."""
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(count)]
    letters = [""] * count
    distances = np.empty((count, 2), np.int64)
    open_ = np.arange(count)
    while len(open_):
        for i in open_:
            letters[i] = random_sequence(rngs[i], 3 * length)
        xs = [letters[i][:length] for i in open_ for _ in range(2)]
        ys = [letters[i][lo : lo + length] for i in open_ for lo in (length, 2 * length)]
        distances[open_] = exact_distances(xs, ys).reshape(-1, 2)
        open_ = open_[distances[open_, 0] == distances[open_, 1]]
    return encode(letters, 3 * length).reshape(count, 3, length), distances


@pytest.fixture
def verify_every_line(monkeypatch):
    """load_triplets recomputes the distances of every line."""
    monkeypatch.setattr(dataset, "VERIFY_STRIDE", 1)


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
        assert same_triplets(generate_triplets(seed=4, count=8, length=4),
                             generate_triplets(seed=4, count=8, length=4))
        assert not same_triplets(generate_triplets(seed=4, count=8, length=4),
                                 generate_triplets(seed=5, count=8, length=4))

    def test_prefix_stability(self):
        # per-triplet seed streams: a longer run starts with the same triplets
        short = generate_triplets(seed=6, count=5, length=4)
        long = generate_triplets(seed=6, count=9, length=4)
        assert same_triplets(long[:5], short)

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

    def test_builds_no_labeled_triplet(self, monkeypatch):
        # generation holds strings and distance arrays, and builds its set
        # with one encode: no triplet object is made
        expected = generate_triplets(seed=13, count=9, length=5)

        def refuse(self, *args, **kwargs):
            raise AssertionError("generate_triplets built a LabeledTriplet")

        monkeypatch.setattr(LabeledTriplet, "__init__", refuse)
        assert same_triplets(generate_triplets(seed=13, count=9, length=5), expected)

    @pytest.mark.parametrize("seed, count, length, jobs", [
        (31, 1, 1, 1), (32, 300, 2, 1), (33, 150, 3, 2), (34, 200, 4, 1), (35, 97, 5, 2),
        (36, 120, 6, 1), (37, 60, 7, 2), (38, 30, 8, 1), (39, 64, 8, 2),
    ])
    def test_matches_round_by_round_labelling(self, seed, count, length, jobs):
        # tie redraws join the running search instead of waiting for a
        # round; every triplet still sees the same draws and distances
        codes, distances = round_by_round_labels(seed, count, length)
        got = generate_triplets(seed, count, length, jobs)
        assert got.codes.tobytes() == codes.tobytes()
        assert got.distances.tobytes() == distances.tobytes()

    def test_one_search_per_chunk(self, monkeypatch):
        # a chunk labels all its triplets, redraws included, through one
        # streaming search; labelling round by round started five searches
        # on this seed, one per round
        starts = []
        start = edm._Search.__init__

        def counted(search):
            starts.append(search)
            start(search)

        monkeypatch.setattr(edm._Search, "__init__", counted)
        generate_triplets(seed=40, count=100, length=6)
        assert len(starts) == 1

    def test_real_pool_matches_serial(self):
        # 10 triplets over 3 workers: chunks of 3, 3 and 4
        serial = generate_triplets(seed=12, count=10, length=5)
        assert same_triplets(generate_triplets(seed=12, count=10, length=5, jobs=3), serial)

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
        assert same_triplets(trips, generate_triplets(seed=7, count=4, length=4))


class TestSaveLoadRoundTrip:
    def test_round_trip(self, tmp_path, verify_every_line):
        trips = generate_triplets(seed=8, count=15, length=5)
        path = tmp_path / "trips.jsonl"
        save_triplets(trips, path)
        assert same_triplets(load_triplets(path), trips)

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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lines_are_json_dumps_lines(self, tmp_path, n):
        # every pair of distances 0..n, so s = 1.0 and s = 0.0 both appear
        rng = np.random.default_rng(n)
        d = np.array([(d_ab, d_ac) for d_ab in range(n + 1) for d_ac in range(n + 1)])
        trips = TripletSet(rng.integers(0, 4, (len(d), 3, n)), d)
        save_triplets(trips, tmp_path / "t.jsonl")
        want = "".join(json.dumps({"a": t.a, "b": t.b, "c": t.c, "d_ab": t.d_ab, "d_ac": t.d_ac,
                                   "s_ab": t.s_ab, "s_ac": t.s_ac}, sort_keys=True) + "\n"
                       for t in trips)
        assert (tmp_path / "t.jsonl").read_text() == want

    def test_save_and_verified_load_build_no_labeled_triplet(self, tmp_path, monkeypatch,
                                                             verify_every_line):
        # saving writes from the set's arrays, and verification recomputes
        # the distances of a slice of the loaded set
        def refuse(self, *args, **kwargs):
            raise AssertionError("a LabeledTriplet was built")

        monkeypatch.setattr(LabeledTriplet, "__init__", refuse)
        trips = generate_triplets(seed=8, count=15, length=5)
        save_triplets(trips, tmp_path / "t.jsonl")
        assert same_triplets(load_triplets(tmp_path / "t.jsonl"), trips)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def _valid_line(length=4, seed=11):
    (t,) = generate_triplets(seed=seed, count=1, length=length)
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
            load_triplets(path)

    def test_spot_check_names_a_later_stride_line(self, tmp_path):
        # VERIFY_STRIDE verifies every 100th line: lines 1 and 101 of 150
        path = tmp_path / "forged.jsonl"
        save_triplets(generate_triplets(seed=7, count=150, length=5), path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[100])
        forged = next(d for d in range(6) if d not in (obj["d_ab"], obj["d_ac"]))
        obj["d_ab"], obj["s_ab"] = forged, (5 - forged) / 5
        lines[100] = json.dumps(obj, sort_keys=True)
        _write_lines(path, lines)
        with pytest.raises(DatasetError, match="line 101: stored distances fail recomputation"):
            load_triplets(path)

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

    def test_boolean_distance_rejected(self, tmp_path, verify_every_line):
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
            load_triplets(path)

    def test_boolean_similarity_rejected(self, tmp_path, verify_every_line):
        # json true equals 1.0, the label of distance 0, so only a type check
        # refuses it
        a, c = "ATGC", "CCAA"
        d_ac = edm_exact(a, c)
        line = json.dumps({"a": a, "b": a, "c": c, "d_ab": 0, "d_ac": d_ac,
                           "s_ab": True, "s_ac": (4 - d_ac) / 4}, sort_keys=True)
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [_valid_line(), line])
        with pytest.raises(DatasetError, match="line 2: similarity labels must be numbers"):
            load_triplets(path)

    def test_mixed_sequence_lengths_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        _write_lines(path, [_valid_line(length=8), _valid_line(length=8, seed=12),
                            _valid_line(length=3)])
        with pytest.raises(DatasetError, match="line 3: sequence length 3"):
            load_triplets(path)


def loaded(path):
    """What load_triplets makes of a file: its triplets, or its refusal."""
    try:
        return load_triplets(path)
    except DatasetError as e:
        return str(e)


def line_by_line(path):
    """What load_triplets makes of a file with every line left to the
    per-line loop: its triplets, or its refusal."""
    with mock.patch.object(dataset, "_batch_triplets", lambda lines: None):
        return loaded(path)


VALID = [_valid_line(length=5, seed=s) for s in (21, 22, 23)]
NUMBER_FIELDS = ("d_ab", "d_ac", "s_ab", "s_ac")


def _with(field, value):
    def corrupt(obj):
        obj[field] = value
    return corrupt


def _shifted(field, by):
    def corrupt(obj):
        obj[field] += by
    return corrupt


def _relabelled(pair, d):
    """Distance d for the pair, with its matching label."""
    def corrupt(obj):
        n = len(obj["a"])
        obj[f"d_{pair}"], obj[f"s_{pair}"] = d, (n - d) / n
    return corrupt


def _tied(obj):
    n = len(obj["a"])
    obj["d_ac"], obj["s_ac"] = obj["d_ab"], obj["s_ab"]
    assert obj["s_ab"] == (n - obj["d_ab"]) / n


# each edits one parsed line, which is written back with json.dumps
FIELD_CORRUPTIONS = st.one_of(
    st.builds(lambda f: lambda obj: obj.pop(f), st.sampled_from(sorted(json.loads(VALID[0])))),
    st.builds(_with, st.sampled_from(NUMBER_FIELDS),
              st.sampled_from([True, False, 2.0, float("nan"), float("inf"), 10**400, -1, 6,
                               None, "1"])),
    st.builds(_shifted, st.sampled_from(NUMBER_FIELDS), st.sampled_from([1, -1, 1e-9])),
    st.builds(_relabelled, st.sampled_from(["ab", "ac"]), st.integers(-2, 7)),
    st.just(_tied),
    st.builds(_with, st.sampled_from("abc"),
              st.sampled_from(["", "ATGX", "ATGCA", "ATG", "atgca", "ATGÇA", 12345, None])),
    st.builds(_with, st.just("extra"), st.sampled_from([{"x": 1}, [1, 2], "}{", "[", 0])),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), where=st.integers(0, 2))
def test_corrupt_line_loads_as_line_by_line(tmp_path_factory, data, where):
    # the batch pass accepts only what the per-line loop accepts, and on
    # anything else the per-line loop's own message is what load_triplets raises
    lines = list(VALID)
    kind = data.draw(st.sampled_from(["field", "join", "split", "blank"]))
    if kind == "field":
        obj = json.loads(lines[where])
        data.draw(FIELD_CORRUPTIONS)(obj)
        lines[where] = json.dumps(obj, sort_keys=True)
    elif kind == "join":  # two objects on one line
        other = lines.pop((where + 1) % 3)
        lines[lines.index(VALID[where])] += data.draw(st.sampled_from(["", " ", ",", ", "])) + other
    elif kind == "split":  # one line split in two
        cut = data.draw(st.integers(1, len(lines[where]) - 1))
        lines[where : where + 1] = [lines[where][:cut], lines[where][cut:]]
    else:
        lines.insert(where, data.draw(st.sampled_from(["", " ", "\t"])))
    path = tmp_path_factory.mktemp("corrupt") / "t.jsonl"
    _write_lines(path, lines)
    assert same_triplets(loaded(path), line_by_line(path))


@pytest.mark.parametrize("name", ["train", "test", "fresh"])
def test_committed_dataset_loads_as_line_by_line(name):
    path = ACCEPT_DIR / f"{name}.jsonl"
    triplets = load_triplets(path)
    assert len(triplets) == 3200 and same_triplets(triplets, line_by_line(path))


def test_committed_train_set_takes_the_batch_pass(monkeypatch):
    def refuse(lines):
        raise AssertionError("the lines were parsed one at a time")

    monkeypatch.setattr(dataset, "_line_triplets", refuse)
    assert len(load_triplets(ACCEPT_DIR / "train.jsonl")) == 3200


def test_padded_train_set_loads_line_by_line_as_the_plain_file(tmp_path):
    # a quoted "}" on every line leaves every block to the per-line loop
    plain = ACCEPT_DIR / "train.jsonl"
    lines = ['{"pad": "}", ' + line[1:] for line in plain.read_text().splitlines()]
    path = tmp_path / "padded.jsonl"
    _write_lines(path, lines)
    assert dataset._batch_triplets(lines) is None
    assert same_triplets(load_triplets(path), load_triplets(plain))


def _split_with_quoted_braces():
    """VALID[2] split over two lines that hold one "{" and one "}" each,
    one of the two in a string."""
    text = json.dumps({"pad": "}", **json.loads(VALID[2]), "tail": "{"})
    return text.split(', "d_ab"', 1)[0], '"d_ab"' + text.split(', "d_ab"', 1)[1]


@pytest.mark.parametrize("lines, message", [
    # two objects on line 1 and one split over lines 2 and 3 still make
    # one JSON array of three objects
    ([VALID[0] + "," + VALID[1], *VALID[2].split(", ", 1)], "line 1: invalid JSON (Extra data)"),
    # one brace per line, but two lines for one object
    ([VALID[0], *_split_with_quoted_braces()],
     "line 2: invalid JSON (Expecting ',' delimiter)"),
    # every sequence empty: one length for the file, but none of it valid
    ([json.dumps({"a": "", "b": "", "c": "", "d_ab": 0, "d_ac": 1, "s_ab": 0.0, "s_ac": 0.0})],
     "line 1: field a: sequence must be a nonempty string, got ''"),
])
def test_refusals_that_column_checks_alone_would_miss(tmp_path, lines, message):
    path = tmp_path / "t.jsonl"
    _write_lines(path, lines)
    assert loaded(path) == line_by_line(path) == message


def test_later_block_refusal_names_its_line(tmp_path):
    # a bad line past the first block, one whose length differs from line
    # 1's, and one that decodes to no object are named as the per-line loop
    # names them
    with open(ACCEPT_DIR / "train.jsonl") as fh:
        lines = [fh.readline().rstrip("\n") for _ in range(BATCH_LINES + 100)]
    path = tmp_path / "t.jsonl"
    for bad, message in [(_valid_line(length=5), f"line {BATCH_LINES + 50}: sequence length 5 "
                                                 "differs from 8 on line 1"),
                         ("{}", f"line {BATCH_LINES + 50}: missing field 'a'"),
                         ("[1, 2]", f"line {BATCH_LINES + 50}: expected a JSON object"),
                         ("null", f"line {BATCH_LINES + 50}: expected a JSON object")]:
        _write_lines(path, lines[: BATCH_LINES + 49] + [bad] + lines[BATCH_LINES + 49 :])
        assert loaded(path) == line_by_line(path) == message


def test_labeled_triplet_length():
    t = LabeledTriplet("ATGC", "GCAT", "AAAA", 1, 3)
    assert (t.length, t.s_ab, t.s_ac) == (4, 0.75, 0.25)


class TestTripletSet:
    def test_sequence_of_labeled_triplets(self):
        s = generate_triplets(seed=14, count=6, length=5)
        objs = list(s)
        assert (len(s), s.length, s.codes.shape, s.distances.shape) == (6, 5, (6, 3, 5), (6, 2))
        assert list(s) == objs and len(set(objs)) == 6
        assert list(s[1:4]) == objs[1:4] and list(s[::2]) == objs[::2]
        assert same_triplets(s[1:4], TripletSet(s.codes[1:4].copy(), s.distances[1:4].copy()))
        assert np.shares_memory(s[1:4].codes, s.codes)

    @pytest.mark.parametrize("index", [0, np.int64(2), np.array([0, 2])], ids=repr)
    def test_integer_index_refused(self, index):
        # a set slices and iterates; one triplet is list(s[i : i + 1])[0]
        s = generate_triplets(seed=14, count=6, length=5)
        with pytest.raises(TypeError, match="must be slices"):
            s[index]

    def test_read_only(self):
        s = generate_triplets(seed=14, count=3, length=5)
        with pytest.raises(ValueError, match="read-only"):
            s.codes[0, 0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            s[:2].distances[0] = 0
        with pytest.raises(AttributeError, match="read-only"):
            s.codes = s.codes.copy()

    def test_constructor_leaves_caller_arrays_writable(self):
        codes, distances = np.zeros((2, 3, 4), np.uint8), np.array([[0, 1], [2, 1]])
        s = TripletSet(codes, distances)
        assert codes.flags.writeable and distances.flags.writeable
        assert list(s)[1] == LabeledTriplet("AAAA", "AAAA", "AAAA", 2, 1)
        with pytest.raises(ValueError, match="expected"):
            TripletSet(codes, distances[:1])

    def test_pickles_as_its_two_arrays(self):
        s = load_triplets(ACCEPT_DIR / "train.jsonl")
        back = pickle.loads(pickle.dumps(s))
        assert same_triplets(back, s) and list(back[:3]) == list(s[:3])
        assert not (back.codes.flags.writeable or back.distances.flags.writeable)
        # a slice pickles its own rows, not the arrays it views
        assert len(pickle.dumps(s[:10])) < len(pickle.dumps(s)) // 100


def test_loaded_train_set_retains_little_memory():
    path = ACCEPT_DIR / "train.jsonl"
    load_triplets(path)  # first calls fill module-level caches
    tracemalloc.start()
    try:
        triplets = load_triplets(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 3,200 triplets: 76,800 bytes of codes and 51,200 of distances
    assert len(triplets) == 3200 and retained <= 200 * 1024


@pytest.mark.parametrize("name", ["train", "test", "fresh"])
def test_committed_dataset_saves_byte_identical(tmp_path, name):
    path = ACCEPT_DIR / f"{name}.jsonl"
    save_triplets(load_triplets(path), tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("lines", [VALID, [VALID[0], json.dumps({"a": "ATGCA"}), VALID[2]]])
def test_pipe_loads_like_a_regular_file(tmp_path, lines):
    # a pipe cannot rewind, so the per-line loop must not need to re-read it
    regular, pipe = tmp_path / "t.jsonl", tmp_path / "pipe"
    _write_lines(regular, lines)
    os.mkfifo(pipe)
    writer = threading.Thread(target=_write_lines, args=(pipe, lines), daemon=True)
    writer.start()
    try:
        got = loaded(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert same_triplets(got, loaded(regular))
    assert isinstance(got, TripletSet) if lines == VALID else got == "line 2: missing field 'b'"
