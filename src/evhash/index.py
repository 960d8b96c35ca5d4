"""Persistent hash database and Hamming-distance retrieval.

A video's distance to an entry is the mean over the query's events of the
minimum Hamming distance to any of the entry's events; every entry holds
at least one event. Codes are stored bit-packed (least significant bit
first within each byte), one ``DbEntry`` per video id.

``query_topk`` scans the whole database at once, from a scan store that
the database keeps between queries. The store groups the entries by event
count: bucket ``e`` holds the events of every entry with ``e`` events as
one (e, n_e, ceil(L/64)) uint64 word array, event-major, each event's
packed bytes zero-padded to whole words; beside it lies each entry's
insertion position, and the store keeps the ids in insertion order.
Bucket arrays grow 1.25-fold, and their spare room is left unwritten.

Per bucket and per block of its entries, a query XORs all its events
against the block at once, popcounts and sums the words, takes the
minimum over the bucket's event axis, sums over the query's events and
writes the int64 totals at the entries' insertion positions. A block
XORs at most 2**15 words (one entry's events against one query event,
when that is more), so a query's scratch does not grow with the database;
its only per-entry arrays are the totals and the top-k selection.
``video_distance`` and ``event_min_distance`` run the same kernel on a
one-entry store.

``db.entries`` is a dict that tracks its own changes. When ids were only
added since the last query, the next query extends the store with the
newest entries, with no work per stored entry. Any other change (replace,
``del``, ``pop``, ``popitem``, ``clear``, ``update``, ``setdefault``,
``|=``) rebuilds the store at the next query. A change to an entry's
arrays in place goes unnoticed: replace the entry, never mutate it.

VHDB file, read with :class:`evhash.binfile.Reader` (little-endian):
magic "VHDB", version u8=1, mode u8 (0=events, 1=sample,
2=sample_and_events), L u32, video_count u32; per video: id_len u16 +
UTF-8 id, duration_s f32, event_count u32 (at least 1), then
event_count * ceil(L/8) packed code bytes; nothing after the last video.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import reduce
from itertools import islice

import numpy as np

from .binfile import U8, Reader
from .errors import (
    DuplicateId,
    EmptyDatabase,
    EmptyEntry,
    EmptyQuery,
    LengthMismatch,
    ModeMismatch,
    ShapeMismatch,
    UnsupportedVersion,
)
from .hashing import MODES, VideoHash


def pack_codes(bits: np.ndarray) -> np.ndarray:
    """(E, L) {0,1} -> (E, ceil(L/8)) packed bytes, LSB first."""
    return np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")


def unpack_codes(packed: np.ndarray, L: int) -> np.ndarray:
    return np.unpackbits(packed, axis=-1, bitorder="little", count=L)


# Equality is identity: a field-wise comparison of the arrays would have no
# single truth value.
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


class _Bucket:
    """The entries with ``e`` events each, as words, event-major.

    ``words[j, i]`` holds event j of the bucket's i-th entry for ``i < n``,
    and ``pos[i]`` that entry's insertion position. Both arrays grow to
    1.25 times what they must hold, so appends are amortised copies; spare
    room is left unwritten, so its pages stay out of memory until used.
    """

    GROWTH = 1.25

    def __init__(self, e: int, W: int):
        self.words = np.empty((e, 0, W), np.uint64)
        self.pos = np.empty(0, np.intp)
        self.n = 0

    def extend(self, pos: list[int], packed: list[np.ndarray]) -> None:
        n = self.n + len(pos)
        if n > len(self.pos):
            e, _, W = self.words.shape
            grown = np.empty((e, int(n * self.GROWTH), W), np.uint64)
            grown[:, :self.n] = self.words[:, :self.n]
            self.words = grown
            grown = np.empty(grown.shape[1], np.intp)
            grown[:self.n] = self.pos[:self.n]
            self.pos = grown
        added = self.words[:, self.n:n]
        added[..., -1] = 0  # the last word holds every padding byte
        rows = np.concatenate(packed).reshape(len(pos), len(added), -1)
        added.view(np.uint8)[..., :rows.shape[2]] = rows.transpose(1, 0, 2)
        self.pos[self.n:n] = pos
        self.n = n


class _Store:
    """What ``query_topk`` scans: every entry's events, bucketed by event
    count, and the ids of the entries in insertion order. ``changes`` is
    the change count of the ``_Entries`` the store was built from."""

    def __init__(self, L: int, changes: int = 0):
        self.L = L
        self.changes = changes
        self.ids: list[str] = []
        self.buckets: dict[int, _Bucket] = {}

    def extend(self, ids: list[str], entries: list[DbEntry]) -> None:
        """Append ``entries`` under ``ids``. Every entry is checked first,
        so a bad one leaves the store as it was."""
        groups: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        for i, (vid, entry) in enumerate(zip(ids, entries), len(self.ids)):
            _check_packed(vid, entry.packed, self.L)
            pos, packed = groups.setdefault(len(entry.packed), ([], []))
            pos.append(i)
            packed.append(entry.packed)
        for e, (pos, packed) in groups.items():
            bucket = self.buckets.get(e)
            if bucket is None:
                bucket = self.buckets[e] = _Bucket(e, _word_count(self.L))
            bucket.extend(pos, packed)
        self.ids += ids


class _Entries(dict):
    """``HashDatabase.entries``: a dict that counts every change other
    than adding a new key, so the scan store can tell when extending it
    by the newest keys is enough."""

    changes = 0
    # for a key the caller has checked is new: adding one is no change
    _add_new = dict.__setitem__

    def __setitem__(self, key, value):
        if key in self:
            self.changes += 1
        dict.__setitem__(self, key, value)

    def _counted(method):
        def counted(self, *args, **kwargs):
            self.changes += 1
            return method(self, *args, **kwargs)
        return counted

    __delitem__ = _counted(dict.__delitem__)
    pop = _counted(dict.pop)
    popitem = _counted(dict.popitem)
    clear = _counted(dict.clear)
    update = _counted(dict.update)
    setdefault = _counted(dict.setdefault)
    __ior__ = _counted(dict.__ior__)
    del _counted


class HashDatabase:
    """In-memory store of packed event codes, one entry per video id."""

    def __init__(self, L: int, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown hash mode {mode!r}")
        self.L = int(L)
        self.mode = mode
        self._entries = _Entries()
        self._store: _Store | None = None

    @property
    def entries(self) -> dict[str, DbEntry]:
        """Entries by video id, in insertion order. To change an entry,
        replace it; never mutate its arrays in place."""
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashDatabase):
            return NotImplemented
        return (self.L == other.L and self.mode == other.mode
                and list(self.entries) == list(other.entries)
                and all(np.array_equal(a.packed, b.packed)
                        and a.duration_seconds == b.duration_seconds
                        for a, b in zip(self.entries.values(),
                                        other.entries.values())))

    def _scan_store(self) -> _Store:
        """The scan store of ``entries``: extended by the entries added
        since the last call when nothing else changed, rebuilt otherwise."""
        entries, store = self._entries, self._store
        if store is None or store.changes != entries.changes:
            store = _Store(self.L, entries.changes)
            store.extend(list(entries), list(entries.values()))
        elif len(entries) > len(store.ids):
            new = list(islice(reversed(entries),
                              len(entries) - len(store.ids)))[::-1]
            store.extend(new, [entries[vid] for vid in new])
        self._store = store
        return store


def db_add(db: HashDatabase, vh: VideoHash) -> None:
    if vh.L != db.L:
        raise LengthMismatch(f"hash L={vh.L}, database L={db.L}")
    if vh.mode != db.mode:
        raise ModeMismatch(f"hash mode {vh.mode!r}, database {db.mode!r}")
    entries = db._entries
    if vh.video_id in entries:
        raise DuplicateId(f"{vh.video_id!r} already stored")
    entries._add_new(vh.video_id, DbEntry(pack_codes(vh.events),
                                          float(vh.duration_seconds)))


_VHDB_HEADER = struct.Struct("<4sBBII")
_ID_LEN = struct.Struct("<H")
_ENTRY = struct.Struct("<fI")
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
    r = Reader(path, b"VHDB", _VHDB_HEADER)
    mode_code, L, count = r.fields
    if mode_code >= len(MODES):
        raise UnsupportedVersion(f"{path}: unknown mode byte {mode_code}")
    db = HashDatabase(L, MODES[mode_code])
    entries = db._entries
    nbytes = (L + 7) // 8
    for _ in range(count):
        (id_len,) = r.unpack(_ID_LEN)
        vid = r.text(id_len)
        duration, n_events = r.unpack(_ENTRY)
        if n_events < 1:
            raise EmptyEntry(f"{path}: {vid!r} has no events")
        packed = r.array(U8, (n_events, nbytes))
        if vid in entries:
            raise DuplicateId(f"{path}: duplicate id {vid!r}")
        entries._add_new(vid, DbEntry(packed.copy(), duration))
    r.close()
    return db


# -- distances ---------------------------------------------------------------

# words XORed at a time (or one entry's events, if more): bounds the scratch
_BLOCK_WORDS = 1 << 15


def _words(packed: np.ndarray, L: int) -> np.ndarray:
    """(E, ceil(L/8)) packed bytes -> (E, ceil(L/64)) zero-padded words."""
    words = np.zeros((len(packed), _word_count(L)), np.uint64)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


def _entry_totals(q_words: np.ndarray, store: _Store) -> np.ndarray:
    """Per entry of ``store``, in insertion order, the sum over query events
    of the minimum Hamming distance to the entry's events (int64)."""
    E_q, W = q_words.shape
    total = np.empty(len(store.ids), np.int64)
    for e, b in store.buckets.items():
        # query events and entries per block: qn * e * W * step words, at
        # most _BLOCK_WORDS unless one entry against one event is more
        qn = min(E_q, max(1, _BLOCK_WORDS // (e * W)))
        step = max(1, _BLOCK_WORDS // (qn * e * W))
        for i0 in range(0, b.n, step):
            i1 = min(i0 + step, b.n)
            total[b.pos[i0:i1]] = reduce(np.add, (
                _min_sums(q_words[q0:q0 + qn], b.words[:, i0:i1])
                for q0 in range(0, E_q, qn)))
    return total


def _min_sums(q_words: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Per entry of an (e, B, W) ``block``, the sum over the query events of
    the minimum Hamming distance to the entry's e events (int64)."""
    count = np.bitwise_count(q_words[:, None, None] ^ block)
    W = block.shape[-1]
    dist = (count[..., 0] if W == 1
            else count.sum(axis=-1, dtype=np.min_scalar_type(64 * W)))
    return dist.min(axis=1).sum(axis=0, dtype=np.int64)


def _single_entry_total(q_bits: np.ndarray, entry: DbEntry) -> int:
    L = q_bits.shape[1]
    store = _Store(L)
    store.extend(["entry"], [entry])
    return int(_entry_totals(_words(pack_codes(q_bits), L), store)[0])


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
    store = db._scan_store()
    total = _entry_totals(_words(pack_codes(query.events), db.L), store)
    k = min(k, len(total))
    kth = np.partition(total, k - 1)[k - 1]
    near = np.nonzero(total <= kth)[0]
    scored = sorted(zip((total[near] / query.E).tolist(),
                        [store.ids[i] for i in near.tolist()]))
    return [(vid, dist) for dist, vid in scored[:k]]
