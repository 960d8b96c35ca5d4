"""Persistent hash database and Hamming-distance retrieval.

A video's distance to an entry is the mean over the query's events of the
minimum Hamming distance to any of the entry's events; every entry holds
at least one event. Codes are stored bit-packed (least significant bit
first within each byte), one ``DbEntry`` per video id.

``query_topk`` scans the whole database at once. The database keeps its
events in one contiguous (N_events, ceil(L/64)) uint64 word matrix, the
packed bytes of each event zero-padded to whole words, with each entry's
first row beside it in insertion order; ids are read from ``db.entries``
at each query. The matrix is built on the first query and extended in
place on later ones with the entries added since; it is rebuilt when
``db.entries`` changed in any other way, which is detected by the
identity of the ``DbEntry`` objects (so replace an entry rather than
mutating its arrays). A query XORs each of its events
against every row, popcounts and sums the words, takes the minimum over
each entry's rows with ``np.minimum.reduceat`` and adds it to an int64
per-entry total. ``video_distance`` and ``event_min_distance`` run the
same kernel over a single entry.

VHDB file (little-endian): magic "VHDB", version u8=1, mode u8
(0=events, 1=sample, 2=sample_and_events), L u32, video_count u32;
per video: id_len u16 + UTF-8 id, duration_s f32, event_count u32 (at
least 1), then event_count * ceil(L/8) packed code bytes; nothing after
the last video.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DuplicateId,
    EmptyDatabase,
    EmptyEntry,
    EmptyQuery,
    LengthMismatch,
    MalformedFile,
    ModeMismatch,
    ShapeMismatch,
    TruncatedFile,
    UnsupportedVersion,
)
from .hashing import MODES, VideoHash


def pack_codes(bits: np.ndarray) -> np.ndarray:
    """(E, L) {0,1} -> (E, ceil(L/8)) packed bytes, LSB first."""
    return np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")


def unpack_codes(packed: np.ndarray, L: int) -> np.ndarray:
    return np.unpackbits(packed, axis=-1, bitorder="little", count=L)


# Equality is identity, which the scan store relies on to notice a replaced
# entry in one C-level list comparison.
@dataclass(eq=False)
class DbEntry:
    packed: np.ndarray  # (E, ceil(L/8)) uint8
    duration_seconds: float


def _word_count(L: int) -> int:
    return (L + 63) // 64


def _check_packed(vid, packed: np.ndarray, L: int) -> None:
    nbytes = (L + 7) // 8
    if packed.ndim != 2 or packed.shape[1] != nbytes:
        raise ShapeMismatch(f"{vid!r}: packed codes {packed.shape}, L={L} "
                            f"needs {nbytes} bytes per event")
    if len(packed) < 1:
        raise EmptyEntry(f"{vid!r} has no events")


class _WordStore:
    """Every entry's events as rows of one (rows, W) uint64 word matrix.

    ``words[:rows]`` holds the events, entry after entry; ``entries[i]``
    starts at row ``starts[i]``. Both arrays grow to 1.25 times what they
    must hold, so appends are amortised copies; spare rows are left
    unwritten, so their pages stay out of memory until used.
    """

    GROWTH = 1.25

    def __init__(self, L: int):
        self.L = L
        self.words = np.zeros((0, _word_count(L)), np.uint64)
        self.rows = 0
        self._starts = np.zeros(0, np.intp)
        self.entries: list[DbEntry] = []

    @property
    def starts(self) -> np.ndarray:
        return self._starts[:len(self.entries)]

    def extend(self, ids: list[str], entries: list[DbEntry]) -> None:
        """Append ``entries``; ``ids`` name them in error messages."""
        packed = [e.packed for e in entries]
        for vid, p in zip(ids, packed):
            _check_packed(vid, p, self.L)
        counts = np.fromiter(map(len, packed), np.intp, len(packed))
        rows = self.rows + int(counts.sum())
        n = len(self.entries) + len(entries)
        if rows > len(self.words):
            grown = np.empty((int(rows * self.GROWTH), self.words.shape[1]),
                             np.uint64)
            grown[:self.rows] = self.words[:self.rows]
            self.words = grown
        if n > len(self._starts):
            grown = np.empty(int(n * self.GROWTH), np.intp)
            grown[:len(self.entries)] = self.starts
            self._starts = grown
        added = self.words[self.rows:rows]
        added[:, -1] = 0  # the last word holds every padding byte
        np.concatenate(packed,
                       out=added.view(np.uint8)[:, :packed[0].shape[1]])
        self._starts[len(self.entries):n] = \
            self.rows + np.cumsum(counts) - counts
        self.rows = rows
        self.entries += entries


class HashDatabase:
    """In-memory store of packed event codes, one entry per video id."""

    def __init__(self, L: int, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown hash mode {mode!r}")
        self.L = int(L)
        self.mode = mode
        self.entries: dict[str, DbEntry] = {}
        self._store: _WordStore | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashDatabase):
            return NotImplemented
        return (self.L == other.L and self.mode == other.mode
                and list(self.entries) == list(other.entries)
                and all(np.array_equal(a.packed, b.packed)
                        and a.duration_seconds == b.duration_seconds
                        for a, b in zip(self.entries.values(),
                                        other.entries.values())))

    def _scan_store(self) -> tuple[_WordStore, list[str]]:
        """The word matrix of ``entries`` and the ids of its entries, in
        order. The matrix is extended by the entries appended since the
        last call and rebuilt after any other change; renamed keys need
        neither, as the ids are read afresh."""
        ids = list(self.entries)
        entries = list(self.entries.values())
        store = self._store
        n = len(store.entries) if store is not None else 0
        new = entries[n:]
        del entries[n:]  # compare the prefix without copying it
        if store is None or store.entries != entries:
            store = self._store = _WordStore(self.L)
            new, n = entries + new, 0
        if new:
            store.extend(ids[n:], new)
        return store, ids


def db_add(db: HashDatabase, vh: VideoHash) -> None:
    if vh.L != db.L:
        raise LengthMismatch(f"hash L={vh.L}, database L={db.L}")
    if vh.mode != db.mode:
        raise ModeMismatch(f"hash mode {vh.mode!r}, database {db.mode!r}")
    if vh.video_id in db.entries:
        raise DuplicateId(f"{vh.video_id!r} already stored")
    db.entries[vh.video_id] = DbEntry(pack_codes(vh.events),
                                      float(vh.duration_seconds))


_VHDB_HEADER = struct.Struct("<4sBBII")
_MODE_CODE = {m: i for i, m in enumerate(MODES)}


def db_save(db: HashDatabase, path) -> None:
    """Write ``db`` as VHDB. Every entry is checked before the file is
    opened, so a bad entry leaves no partial file behind."""
    for vid, entry in db.entries.items():
        _check_packed(vid, entry.packed, db.L)
    with open(path, "wb") as f:
        f.write(_VHDB_HEADER.pack(b"VHDB", 1, _MODE_CODE[db.mode], db.L,
                                  len(db.entries)))
        for vid, entry in db.entries.items():
            raw = vid.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<fI", entry.duration_seconds,
                                len(entry.packed)))
            f.write(entry.packed.tobytes())


def db_load(path) -> HashDatabase:
    data = Path(path).read_bytes()
    if len(data) < _VHDB_HEADER.size:
        raise TruncatedFile(f"{path}: header incomplete")
    magic, version, mode_code, L, count = _VHDB_HEADER.unpack_from(data)
    if magic != b"VHDB":
        raise BadMagic(f"{path}: expected VHDB, found {magic!r}")
    if version != 1:
        raise UnsupportedVersion(f"{path}: VHDB version {version}")
    if mode_code >= len(MODES):
        raise UnsupportedVersion(f"{path}: unknown mode byte {mode_code}")
    db = HashDatabase(L, MODES[mode_code])
    nbytes = (L + 7) // 8
    pos = _VHDB_HEADER.size

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise TruncatedFile(f"{path}: entry payload is short")
        out = data[pos:pos + n]
        pos += n
        return out

    for _ in range(count):
        (id_len,) = struct.unpack("<H", take(2))
        try:
            vid = take(id_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedFile(f"{path}: video id is not UTF-8 ({e})") \
                from None
        duration, n_events = struct.unpack("<fI", take(8))
        if n_events < 1:
            raise EmptyEntry(f"{path}: {vid!r} has no events")
        packed = np.frombuffer(take(n_events * nbytes), dtype=np.uint8)
        if vid in db.entries:
            raise DuplicateId(f"{path}: duplicate id {vid!r}")
        db.entries[vid] = DbEntry(packed.reshape(n_events, nbytes).copy(),
                                  duration)
    if pos != len(data):
        raise MalformedFile(f"{path}: {len(data) - pos} bytes after the "
                            f"last entry")
    return db


# -- distances ---------------------------------------------------------------

_CHUNK_ROWS = 1 << 14  # rows XORed at a time: bounds the scan's scratch


def _words(packed: np.ndarray, L: int) -> np.ndarray:
    """(E, ceil(L/8)) packed bytes -> (E, ceil(L/64)) zero-padded words."""
    words = np.zeros((len(packed), _word_count(L)), np.uint64)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


def _entry_totals(q_words: np.ndarray, words: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """Per entry, the sum over query events of the minimum Hamming distance
    to the entry's events (int64).

    ``words`` holds each entry's events as consecutive rows from
    ``starts[i]``; every entry has at least one row, as ``reduceat`` gives
    an empty segment the value of its neighbour.
    """
    rows, W = words.shape
    dist = np.empty(rows, np.min_scalar_type(64 * W))
    xor = np.empty(min(rows, _CHUNK_ROWS), np.uint64)
    count = np.empty(len(xor), np.uint8)
    total = np.zeros(len(starts), np.int64)
    for q in q_words:
        for r0 in range(0, rows, _CHUNK_ROWS):
            r1 = min(r0 + _CHUNK_ROWS, rows)
            x, c, d = xor[:r1 - r0], count[:r1 - r0], dist[r0:r1]
            np.bitwise_count(np.bitwise_xor(words[r0:r1, 0], q[0], out=x),
                             out=d)
            for w in range(1, W):
                np.bitwise_count(np.bitwise_xor(words[r0:r1, w], q[w], out=x),
                                 out=c)
                d += c
        total += np.minimum.reduceat(dist, starts)
    return total


def _single_entry_total(q_bits: np.ndarray, entry: DbEntry) -> int:
    L = q_bits.shape[1]
    _check_packed("entry", entry.packed, L)
    return int(_entry_totals(_words(pack_codes(q_bits), L),
                             _words(entry.packed, L), np.zeros(1, np.intp))[0])


def event_min_distance(query_event: np.ndarray, entry: DbEntry) -> int:
    """Min Hamming distance from one L-bit query event to the entry's events."""
    return _single_entry_total(query_event[None, :], entry)


def video_distance(query: VideoHash, entry: DbEntry) -> float:
    """Mean over query events of the per-event minimum Hamming distance."""
    if query.E < 1:
        raise EmptyQuery(f"{query.video_id}: query has no events")
    return _single_entry_total(query.events, entry) / query.E


def query_topk(db: HashDatabase, query: VideoHash, k: int):
    """k nearest entries as (video_id, distance), distance ascending.

    Ties break lexicographically on the id, so rankings are reproducible.
    """
    if len(db.entries) == 0:
        raise EmptyDatabase("cannot query an empty database")
    if query.L != db.L:
        raise LengthMismatch(f"query L={query.L}, database L={db.L}")
    if k < 1:
        raise ValueError("k must be at least 1")
    store, ids = db._scan_store()
    total = _entry_totals(_words(pack_codes(query.events), db.L),
                          store.words[:store.rows], store.starts)
    k = min(k, len(total))
    kth = np.partition(total, k - 1)[k - 1]
    near = np.nonzero(total <= kth)[0]
    scored = sorted(zip((total[near] / query.E).tolist(),
                        [ids[i] for i in near.tolist()]))
    return [(vid, dist) for dist, vid in scored[:k]]
