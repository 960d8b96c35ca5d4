import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evhash import index
from evhash.errors import (
    BadMagic,
    DataError,
    DuplicateId,
    EmptyDatabase,
    EmptyEntry,
    LengthMismatch,
    ModeMismatch,
    ShapeMismatch,
    TruncatedFile,
)
from evhash.hashing import VideoHash
from evhash.index import (
    DbEntry,
    HashDatabase,
    db_add,
    db_load,
    db_save,
    pack_codes,
    query_topk,
    unpack_codes,
)
from tests._reference import event_min_distance, video_distance


def make_hash(rng, vid, L, n_events, mode="events"):
    events = (rng.random((n_events, L)) > 0.5).astype(np.uint8)
    return VideoHash(video_id=vid, L=L, events=events,
                     end_steps=np.arange(1, n_events + 1) * 3,
                     mode=mode, duration_seconds=float(n_events))


def hamming_oracle(a_bits, b_bits):
    return int(sum(1 for x, y in zip(a_bits, b_bits) if x != y))


def video_distance_oracle(q_events, e_events):
    total = 0.0
    for q in q_events:
        total += min(hamming_oracle(q, e) for e in e_events)
    return total / len(q_events)


def ranking_oracle(db, q):
    """Every entry as (id, distance), by distance then id."""
    scored = sorted((video_distance_oracle(q.events,
                                           unpack_codes(e.packed, db.L)), v)
                    for v, e in db.entries.items())
    return [(v, d) for d, v in scored]


# code lengths of one word or several, with and without padding bits; at
# L=300 one event's distance no longer fits in a byte
SCAN_LS = (1, 7, 8, 63, 64, 65, 128, 130, 300)


def vhdb_bytes(tmp_path):
    """A valid two-entry VHDB file (L=16) with the ids "id" and "other"."""
    rng = np.random.default_rng(30)
    db = HashDatabase(16, "events")
    db_add(db, make_hash(rng, "id", 16, 2))
    db_add(db, make_hash(rng, "other", 16, 3))
    path = tmp_path / "valid.vhdb"
    db_save(db, path)
    return path.read_bytes()


def vhdb_without_events():
    """A VHDB file whose one entry (L=16) has an event count of 0."""
    return (struct.pack("<4sBBII", b"VHDB", 1, 0, 16, 1)
            + struct.pack("<H", 1) + b"e" + struct.pack("<fI", 1.0, 0))


class TestPacking:
    def test_roundtrip_various_L(self):
        rng = np.random.default_rng(0)
        for L in (1, 7, 8, 9, 63, 64, 65):
            bits = (rng.random((5, L)) > 0.5).astype(np.uint8)
            packed = pack_codes(bits)
            assert packed.shape == (5, (L + 7) // 8)
            np.testing.assert_array_equal(unpack_codes(packed, L), bits)

    def test_lsb_first(self):
        bits = np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1]], dtype=np.uint8)
        packed = pack_codes(bits)
        assert packed[0, 0] == 1  # bit 0 in the low position
        assert packed[0, 1] == 1

    def test_packed_hamming_equals_bit_count(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            L = int(rng.integers(1, 70))
            a = (rng.random(L) > 0.5).astype(np.uint8)
            b = (rng.random((3, L)) > 0.5).astype(np.uint8)
            entry = DbEntry(pack_codes(b), 1.0)
            got = event_min_distance(a, entry)
            want = min(hamming_oracle(a, row) for row in b)
            assert got == want


class TestDatabase:
    def test_add_and_size(self):
        rng = np.random.default_rng(2)
        db = HashDatabase(16, "events")
        db_add(db, make_hash(rng, "a", 16, 3))
        assert len(db) == 1

    def test_duplicate_id(self):
        rng = np.random.default_rng(3)
        db = HashDatabase(16, "events")
        db_add(db, make_hash(rng, "a", 16, 3))
        with pytest.raises(DuplicateId):
            db_add(db, make_hash(rng, "a", 16, 2))

    def test_length_mismatch(self):
        rng = np.random.default_rng(4)
        db = HashDatabase(64, "events")
        with pytest.raises(LengthMismatch):
            db_add(db, make_hash(rng, "a", 32, 2))

    def test_mode_mismatch(self):
        rng = np.random.default_rng(5)
        db = HashDatabase(16, "sample")
        with pytest.raises(ModeMismatch):
            db_add(db, make_hash(rng, "a", 16, 2, mode="events"))

    def test_empty_roundtrip(self, tmp_path):
        db = HashDatabase(64, "sample_and_events")
        path = tmp_path / "db.vhdb"
        db_save(db, path)
        back = db_load(path)
        assert back == db

    def test_random_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        db = HashDatabase(24, "sample")
        for i in range(100):
            db_add(db, make_hash(rng, f"video-{i:03d}", 24,
                                 int(rng.integers(1, 12)), mode="sample"))
        path = tmp_path / "db.vhdb"
        db_save(db, path)
        back = db_load(path)
        assert back == db
        db_save(back, tmp_path / "db2.vhdb")
        assert path.read_bytes() == (tmp_path / "db2.vhdb").read_bytes()

    def test_save_rejects_bad_width_before_writing(self, tmp_path):
        rng = np.random.default_rng(11)
        db = HashDatabase(16, "events")
        db_add(db, make_hash(rng, "a", 16, 3))
        db_add(db, make_hash(rng, "b", 16, 2))
        db.entries["b"].packed = np.zeros((2, 3), dtype=np.uint8)
        path = tmp_path / "db.vhdb"
        with pytest.raises(ShapeMismatch):
            db_save(db, path)
        assert not path.exists()
        path.write_bytes(b"old")
        with pytest.raises(ShapeMismatch):
            db_save(db, path)
        assert path.read_bytes() == b"old"

    def test_bad_width_hash_leaves_database_unchanged(self):
        rng = np.random.default_rng(13)
        db = HashDatabase(16, "events")
        db_add(db, make_hash(rng, "a", 16, 3))
        for width in (24, 8):
            with pytest.raises(ShapeMismatch):
                db_add(db, VideoHash("bad", 16, np.ones((2, width), np.uint8),
                                     np.array([1, 2]), "events", 1.0))
        with pytest.raises(ShapeMismatch):
            db_add(db, VideoHash("flat", 16, np.ones(16, np.uint8),
                                 np.array([1]), "events", 1.0))
        assert list(db.entries) == ["a"]
        q = make_hash(rng, "q", 16, 2)
        assert query_topk(db, q, 2) == ranking_oracle(db, q)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "db.vhdb"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(BadMagic):
            db_load(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(7)
        db = HashDatabase(16, "events")
        db_add(db, make_hash(rng, "a", 16, 4))
        path = tmp_path / "db.vhdb"
        db_save(db, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncatedFile):
            db_load(path)

    def test_load_rejects_entry_without_events(self, tmp_path):
        path = tmp_path / "db.vhdb"
        path.write_bytes(vhdb_without_events())
        with pytest.raises(EmptyEntry):
            db_load(path)

    def test_load_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "db.vhdb"
        path.write_bytes(vhdb_bytes(tmp_path) + b"\0")
        with pytest.raises(DataError):
            db_load(path)

    def test_load_rejects_non_utf8_id(self, tmp_path):
        path = tmp_path / "db.vhdb"
        path.write_bytes(vhdb_bytes(tmp_path).replace(b"id", b"\xff\xfe"))
        with pytest.raises(DataError):
            db_load(path)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0,
                                         1e40])
    def test_add_rejects_duration_vhdb_cannot_store(self, seconds):
        db = HashDatabase(16, "events")
        vh = make_hash(np.random.default_rng(14), "a", 16, 2)
        vh.duration_seconds = seconds
        with pytest.raises(DataError):
            db_add(db, vh)
        assert len(db) == 0

    def test_save_rejects_bad_duration_before_writing(self, tmp_path):
        db = HashDatabase(16, "events")
        db_add(db, make_hash(np.random.default_rng(15), "a", 16, 2))
        db.entries["a"].duration_seconds = 1e40
        path = tmp_path / "db.vhdb"
        with pytest.raises(DataError):
            db_save(db, path)
        assert not path.exists()

    @pytest.mark.parametrize("seconds", [4.3, 0.0, 1e-50, 3.4028234e38])
    def test_duration_roundtrip(self, tmp_path, seconds):
        db = HashDatabase(16, "events")
        vh = make_hash(np.random.default_rng(16), "a", 16, 2)
        vh.duration_seconds = seconds
        db_add(db, vh)
        db_save(db, tmp_path / "db.vhdb")
        assert db_load(tmp_path / "db.vhdb") == db

    def test_save_rejects_entry_without_events(self, tmp_path):
        db = HashDatabase(16, "events")
        db_add(db, make_hash(np.random.default_rng(12), "a", 16, 2))
        db_add(db, make_hash(np.random.default_rng(13), "empty", 16, 1))
        db.entries["empty"].packed = np.zeros((0, 2), dtype=np.uint8)
        path = tmp_path / "out.vhdb"
        with pytest.raises(EmptyEntry):
            db_save(db, path)
        assert not path.exists()


class TestDistances:
    def test_exact_match_zero(self):
        rng = np.random.default_rng(8)
        vh = make_hash(rng, "a", 16, 4)
        entry = DbEntry(pack_codes(vh.events), 1.0)
        assert event_min_distance(vh.events[2], entry) == 0
        assert video_distance(vh, entry) == 0.0

    def test_hand_case(self):
        q = np.array([1, 0, 1, 0], dtype=np.uint8)
        entry = DbEntry(pack_codes(np.array(
            [[0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)), 1.0)
        assert event_min_distance(q, entry) == 2

    def test_mean_of_min(self):
        entry = DbEntry(pack_codes(np.array([[0, 0, 0, 0]], dtype=np.uint8)),
                        1.0)
        q = VideoHash("q", 4, np.array(
            [[1, 1, 0, 0], [1, 1, 1, 1]], dtype=np.uint8),
            np.array([1, 2]), "events", 1.0)
        assert video_distance(q, entry) == pytest.approx(3.0)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(9)
        Ls = [int(rng.integers(1, 40)) for _ in range(30)] + list(SCAN_LS)
        for L in Ls:
            q = make_hash(rng, "q", L, int(rng.integers(1, 8)))
            e = make_hash(rng, "e", L, int(rng.integers(1, 8)))
            entry = DbEntry(pack_codes(e.events), 1.0)
            got = video_distance(q, entry)
            assert got == video_distance_oracle(q.events, e.events)
            assert 0 <= got <= L
            assert event_min_distance(q.events[0], entry) == min(
                hamming_oracle(q.events[0], row) for row in e.events)

    def test_empty_entry(self):
        q = make_hash(np.random.default_rng(15), "q", 8, 2)
        empty = DbEntry(np.zeros((0, 1), dtype=np.uint8), 1.0)
        with pytest.raises(EmptyEntry):
            video_distance(q, empty)
        with pytest.raises(EmptyEntry):
            event_min_distance(q.events[0], empty)


class TestQueryTopk:
    def test_rank_by_distance(self):
        db = HashDatabase(4, "events")
        for vid, bits in (("v1", [1, 1, 0, 0]), ("v2", [1, 0, 0, 0]),
                          ("v3", [1, 1, 1, 1])):
            vh = VideoHash(vid, 4, np.array([bits], dtype=np.uint8),
                           np.array([1]), "events", 1.0)
            db_add(db, vh)
        q = VideoHash("q", 4, np.array([[0, 0, 0, 0]], dtype=np.uint8),
                      np.array([1]), "events", 1.0)
        got = query_topk(db, q, 2)
        assert [vid for vid, _ in got] == ["v2", "v1"]

    def test_self_retrieval(self):
        rng = np.random.default_rng(10)
        db = HashDatabase(32, "events")
        hashes = [make_hash(rng, f"v{i}", 32, 5) for i in range(10)]
        for vh in hashes:
            db_add(db, vh)
        got = query_topk(db, hashes[3], 1)
        assert got[0][0] == "v3"
        assert got[0][1] == 0.0

    def test_matches_naive_full_scan(self):
        rng = np.random.default_rng(11)
        Ls = [int(rng.integers(4, 40)) for _ in range(10)] + list(SCAN_LS)
        for L in Ls:
            db = HashDatabase(L, "events")
            hashes = [make_hash(rng, f"v{i:02d}", L, int(rng.integers(1, 10)))
                      for i in range(int(rng.integers(2, 50)))]
            for vh in hashes:
                db_add(db, vh)
            q = make_hash(rng, "q", L, int(rng.integers(1, 10)))
            want = ranking_oracle(db, q)
            for k in (1, 3, len(hashes), len(hashes) + 2):
                assert query_topk(db, q, k) == want[:k]

    def test_tie_group_cut_by_k(self):
        # six entries at distance 1 from the query, added in shuffled
        # order, between two nearer and two farther entries
        rng = np.random.default_rng(16)
        L = 65
        q_bits = np.zeros((1, L), dtype=np.uint8)
        q = VideoHash("q", L, q_bits, np.array([1]), "events", 1.0)

        def code(ones):
            bits = q_bits.copy()
            bits[0, ones] = 1
            return bits

        db = HashDatabase(L, "events")
        tied = [f"t{c}" for c in "fbdaec"]
        specs = ([(vid, code([64])) for vid in tied]
                 + [("z-near", code([])), ("y-near", code([])),
                    ("a-far", code([0, 1])), ("b-far", code([0, 1, 2]))])
        for i in rng.permutation(len(specs)):
            vid, bits = specs[i]
            db_add(db, VideoHash(vid, L, bits, np.array([1]), "events", 1.0))
        got = query_topk(db, q, 5)
        assert got == [("y-near", 0.0), ("z-near", 0.0), ("ta", 1.0),
                       ("tb", 1.0), ("tc", 1.0)]
        assert query_topk(db, q, 9) == ranking_oracle(db, q)[:9]

    def test_unrelated_entry_does_not_move_distances(self):
        rng = np.random.default_rng(12)
        db = HashDatabase(16, "events")
        a = make_hash(rng, "a", 16, 4)
        db_add(db, a)
        q = make_hash(rng, "q", 16, 4)
        before = video_distance(q, db.entries["a"])
        db_add(db, make_hash(rng, "zzz", 16, 6))
        assert video_distance(q, db.entries["a"]) == before

    def test_empty_database(self):
        db = HashDatabase(8, "events")
        q = make_hash(np.random.default_rng(13), "q", 8, 2)
        with pytest.raises(EmptyDatabase):
            query_topk(db, q, 1)

    def test_wide_or_narrow_query_raises(self):
        rng = np.random.default_rng(17)
        db = HashDatabase(16, "events")
        db_add(db, make_hash(rng, "a", 16, 3))
        for width in (24, 8):
            with pytest.raises(ShapeMismatch):
                q = VideoHash("q", 16, np.zeros((2, width), np.uint8),
                              np.array([1, 2]), "events", 1.0)
                query_topk(db, q, 1)

    def test_k_clamps_to_size(self):
        rng = np.random.default_rng(14)
        db = HashDatabase(8, "events")
        db_add(db, make_hash(rng, "only", 8, 2))
        assert len(query_topk(db, make_hash(rng, "q", 8, 2), 10)) == 1


def _replace(db, new):
    db.entries["a03"] = new


def _setitem(db, new):
    db.entries["c"] = new


def _del(db, new):
    del db.entries["a03"]


def _ior(db, new):
    db.entries |= {"a05": new, "c": new}


# every way a dict can change, applied to ``db.entries``
MUTATORS = {
    "replace": _replace,
    "setitem": _setitem,
    "del": _del,
    "pop": lambda db, new: db.entries.pop("a03"),
    "popitem": lambda db, new: db.entries.popitem(),
    "clear": lambda db, new: db.entries.clear(),
    "update": lambda db, new: db.entries.update({"a03": new, "c": new}),
    "setdefault": lambda db, new: db.entries.setdefault("c", new),
    "ior": _ior,
}


class TestScanStore:
    """query_topk keeps a scan store of the database between queries; it
    must follow every add, and ``db.entries`` admits no other change."""

    L = 70

    def fill(self, rng, db, prefix, n):
        for i in range(n):
            db_add(db, make_hash(rng, f"{prefix}{i:02d}", self.L,
                                 int(rng.integers(1, 6))))

    def check(self, rng, db):
        q = make_hash(rng, "q", self.L, int(rng.integers(1, 5)))
        assert query_topk(db, q, len(db) + 1) == ranking_oracle(db, q)

    def test_adds_between_queries(self):
        rng = np.random.default_rng(20)
        db = HashDatabase(self.L, "events")
        self.fill(rng, db, "a", 5)
        self.check(rng, db)
        for step in range(40):  # grows the matrix several times
            self.fill(rng, db, f"b{step:02d}-", int(rng.integers(1, 4)))
            self.check(rng, db)

    def test_replaced_entry(self):
        # an id can neither be written over nor added again; the store
        # keeps the first entry and goes on taking adds
        rng = np.random.default_rng(21)
        db = HashDatabase(self.L, "events")
        self.fill(rng, db, "a", 8)
        self.check(rng, db)
        first = db.entries["a03"]
        with pytest.raises(TypeError):
            db.entries["a03"] = DbEntry(
                pack_codes(make_hash(rng, "x", self.L, 3).events), 1.0)
        with pytest.raises(DuplicateId):
            db_add(db, make_hash(rng, "a03", self.L, 3))
        assert db.entries["a03"] is first and len(db) == 8
        self.check(rng, db)
        self.fill(rng, db, "b", 2)
        with pytest.raises(DuplicateId):
            db_add(db, make_hash(rng, "b01", self.L, 1))  # the last entry
        self.check(rng, db)

    def test_deleted_entry(self):
        rng = np.random.default_rng(22)
        db = HashDatabase(self.L, "events")
        self.fill(rng, db, "a", 8)
        self.check(rng, db)
        ids = list(db.entries)
        with pytest.raises(TypeError):
            del db.entries["a02"]
        with pytest.raises(TypeError):
            del db.entries["a07"]  # the last entry
        assert list(db.entries) == ids
        self.check(rng, db)
        self.fill(rng, db, "b", 1)
        assert list(db.entries) == ids + ["b00"]
        self.check(rng, db)

    def test_renamed_last_entry(self):
        rng = np.random.default_rng(23)
        db = HashDatabase(self.L, "events")
        self.fill(rng, db, "a", 4)
        self.check(rng, db)
        with pytest.raises(AttributeError):
            db.entries.pop("a03")
        assert list(db.entries) == ["a00", "a01", "a02", "a03"]
        self.check(rng, db)
        # a copy under a new id is a new entry; the old one stays
        packed = db.entries["a03"].packed
        db_add(db, VideoHash("0-renamed", self.L, unpack_codes(packed, self.L),
                             np.arange(1, len(packed) + 1), "events", 1.0))
        assert list(db.entries)[-2:] == ["a03", "0-renamed"]
        self.check(rng, db)

    def test_two_databases_alternately(self):
        rng = np.random.default_rng(24)
        dbs = [HashDatabase(self.L, "events"), HashDatabase(self.L, "events")]
        for step in range(6):
            for j, db in enumerate(dbs):
                self.fill(rng, db, f"{j}-{step}-", j + 1)
                self.check(rng, db)

    @pytest.mark.parametrize("mutator", MUTATORS)
    def test_mutator(self, mutator):
        rng = np.random.default_rng(26)
        db = HashDatabase(self.L, "events")
        self.fill(rng, db, "a", 8)
        q = make_hash(rng, "q", self.L, 3)
        ranking = query_topk(db, q, len(db))
        items = list(db.entries.items())
        new = DbEntry(pack_codes(make_hash(rng, "x", self.L, 7).events), 1.0)
        with pytest.raises((TypeError, AttributeError)):
            MUTATORS[mutator](db, new)
        assert list(db.entries.items()) == items
        assert query_topk(db, q, len(db)) == ranking == ranking_oracle(db, q)
        self.fill(rng, db, "b", 2)
        self.check(rng, db)

    def test_entries_cannot_be_reassigned(self):
        db = HashDatabase(self.L, "events")
        with pytest.raises(AttributeError):
            db.entries = {}

    def test_first_query_after_load(self, tmp_path):
        rng = np.random.default_rng(27)
        db = HashDatabase(self.L, "events")
        self.fill(rng, db, "a", 12)
        db_save(db, tmp_path / "db.vhdb")
        loaded = db_load(tmp_path / "db.vhdb")
        self.check(rng, loaded)
        self.fill(rng, loaded, "b", 3)
        self.check(rng, loaded)

    @pytest.mark.parametrize("L", SCAN_LS)
    def test_growth_across_event_counts(self, L):
        rng = np.random.default_rng(28 + L)
        db = HashDatabase(L, "events")
        for step in range(10):  # buckets are added and grown between queries
            for i in range(int(rng.integers(1, 7))):
                db_add(db, make_hash(rng, f"{step}-{i}", L,
                                     int(rng.integers(1, 21))))
            q = make_hash(rng, "q", L, int(rng.integers(1, 4)))
            assert query_topk(db, q, len(db) + 2) == ranking_oracle(db, q)

    def test_new_region_has_room_for_more_entries(self):
        # its next adds fill spare slots instead of laying the store out
        rng = np.random.default_rng(31)
        db = HashDatabase(64, "events")
        q = make_hash(rng, "q", 64, 2)
        db_add(db, make_hash(rng, "a", 64, 3))
        query_topk(db, q, 1)
        words = db._store.words
        for i in range(4):
            db_add(db, make_hash(rng, f"b{i}", 64, 3))
            assert query_topk(db, q, 9) == ranking_oracle(db, q)[:9]
        assert db._store.words is words

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None)
    @given(L=st.sampled_from(SCAN_LS), seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.tuples(
               st.sampled_from(("add", "query", "reload")),
               st.integers(0, 63), st.integers(1, 20)), max_size=25),
           block=st.sampled_from((index._BLOCK_WORDS, 48)))
    def test_random_changes_rank_as_oracle(self, L, seed, ops, block):
        # "reload" saves and loads the database, which later ops go on with;
        # 48-word chunks split regions and query events over many chunks
        rng = np.random.default_rng(seed)
        db = HashDatabase(L, "events")
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(index, "_BLOCK_WORDS", block):
            path = Path(tmp) / "db.vhdb"
            for step, (op, pick, n) in enumerate(ops + [("query", 0, 3)]):
                if op == "add":
                    db_add(db, make_hash(rng, f"v{step:02d}", L, n))
                elif op == "reload":
                    db_save(db, path)
                    db = db_load(path)
                elif len(db):
                    q = make_hash(rng, "q", L, n)
                    k = 1 + pick % (len(db) + 2)
                    assert query_topk(db, q, k) == ranking_oracle(db, q)[:k]


def _query_scratch(counts):
    """Peak bytes a 16-event query allocates on an L=64 database whose
    entries have ``counts`` events, the scan store already built."""
    rng = np.random.default_rng(29)
    bits = unpack_codes(rng.integers(0, 256, size=(counts.sum(), 8),
                                     dtype=np.uint8), 64)
    db = HashDatabase(64, "events")
    for i, (a, b) in enumerate(zip(np.cumsum(counts) - counts,
                                   np.cumsum(counts))):
        db_add(db, VideoHash(f"v{i:05d}", 64, bits[a:b],
                             np.arange(1, b - a + 1), "events", 1.0))
    q = make_hash(rng, "q", 64, 16)
    want = query_topk(db, q, 10)  # builds the scan store
    tracemalloc.start()
    try:
        got = query_topk(db, q, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    return peak


class TestScratch:
    def test_query_scratch_does_not_grow_with_database(self):
        # about 70k L=64 events, 1 to 20 per entry
        peak = _query_scratch(np.tile(np.arange(1, 21), 333))
        assert peak < 1 << 20, f"query scratch peaked at {peak} bytes"

    def test_one_large_region_is_scanned_in_bounded_chunks(self):
        # 70k L=64 events, 7 per entry: one region of 10k entries
        peak = _query_scratch(np.full(10_000, 7))
        assert peak < 1 << 20, f"query scratch peaked at {peak} bytes"
