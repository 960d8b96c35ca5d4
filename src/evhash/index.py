"""Persistent hash database and Hamming-distance retrieval.

A video's distance to an entry is the mean over the query's events of the
minimum Hamming distance to any of the entry's events; every entry holds
at least one event. Codes are stored bit-packed (least significant bit
first within each byte), one ``DbEntry`` per video id.

``query_topk`` scans the whole database at once, from a scan store that
the database keeps between queries. The store holds every event as one
column of a (W, columns) uint64 array, W = ceil(L/64): word w of an event,
its packed bytes zero-padded, lies in row w. The columns form one region
per event count e, in ascending order of e: e event-major rows of the
region's slots, so the i-th entry with e events keeps its event j in
column j * slots + i of its region. Slots past a region's entries are
spare and left unwritten. When a region runs out of slots, the whole
array is laid out again, each region with 1.25 times its entries plus 4
spare slots. Per slot, the store keeps the entry's id.

A query scans the array in chunks of at most ``_BLOCK_WORDS`` words: a run
of whole regions, or a slot range of a larger region. Per chunk and query
event it XORs the event against the chunk and popcounts each column into
an (E_q, columns) count table; per region, a minimum over the e rows
gives an (E_q, slots) table; a sum over the query's events gives each slot
its total. Spare slots then get E_q * (L + 1), above any entry's total,
so the top-k never picks them. The scratch, one chunk's XORed words and
two count tables of E_q small counts per chunk column, grows with the
query's events, not with the database.

The database is append-only: ``db.entries`` is a read-only view, and
``db_add`` and ``db_load`` are its only writers. So the store is never
rebuilt: a query first extends it with the entries added since the last
one, with no work per stored entry unless a region must grow. An entry
must not change once added: the store holds its own copy of the entry's
events.

VHDB file, read with :class:`evhash.binfile.Reader` (little-endian):
magic "VHDB", version u8=1, mode u8 (0=events, 1=sample,
2=sample_and_events), L u32, video_count u32; per video: id_len u16 +
UTF-8 id, duration_s f32, event_count u32 (at least 1), then
event_count * ceil(L/8) packed code bytes; nothing after the last video.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby, islice
from types import MappingProxyType

import numpy as np

from .binfile import U8, Reader
from .errors import (
    DuplicateId,
    EmptyDatabase,
    EmptyEntry,
    LengthMismatch,
    ModeMismatch,
    OutOfRange,
    ShapeMismatch,
    UnsupportedVersion,
)
from .hashing import MODES, VideoHash, pack_codes
from .hashing import unpack_codes  # noqa: F401 (part of this module's API)


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


# the longest duration a VHDB file can hold: float32's largest value
MAX_SECONDS = float(np.finfo(np.float32).max)
_F32 = struct.Struct("<f")


def _f32_seconds(vid, seconds: float) -> float:
    """``seconds``, in [0, MAX_SECONDS], rounded to VHDB's float32."""
    if not 0 <= seconds <= MAX_SECONDS:
        raise OutOfRange(f"{vid!r}: duration {seconds} s is not a finite "
                         f"float32 >= 0")
    return _F32.unpack(_F32.pack(seconds))[0]


def _to_words(packed: np.ndarray, W: int) -> np.ndarray:
    """(n, ceil(L/8)) packed bytes -> (n, W) words, zero-padded."""
    words = np.zeros((len(packed), W), np.uint64)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


# words a query XORs per chunk, unless one slot's events are more
_BLOCK_WORDS = 1 << 15
# a re-layout gives each region this many times its entries, plus 4 slots
_GROWTH = 1.25


@dataclass
class _Region:
    """The stored entries with e events: e rows of ``slots`` columns from
    column ``col``, at slots [slot, slot + slots); the first n are used."""

    e: int
    col: int
    slot: int
    slots: int
    n: int

    def of(self, words: np.ndarray) -> np.ndarray:
        """The region's (W, e, slots) part of a (W, columns) word array."""
        return words[:, self.col:self.col + self.e * self.slots].reshape(
            len(words), self.e, self.slots)


class _Store:
    """What ``query_topk`` scans: every entry's events as word columns in
    regions by event count, ``n`` entries in all, and each slot's id (None
    at a spare slot).

    ``chunks``, the scan plan, changes only with the layout: per chunk its
    (W, rows, columns) words, first column, slots [s0, s1) and regions.
    """

    def __init__(self, L: int):
        self.L = L
        self.n = 0
        self.ids: list[str | None] = []
        self.words = np.empty((_word_count(L), 0), np.uint64)
        self.regions: dict[int, _Region] = {}
        self.chunks: list = []
        self.scratch = 0  # the largest chunk's columns
        self.dist = np.min_scalar_type(64 * len(self.words))  # one event's

    def extend(self, ids: list[str], entries: list[DbEntry]) -> None:
        """Append ``entries`` under ``ids``. Every entry is checked first,
        so a bad one leaves the store as it was."""
        packed = [entry.packed for entry in entries]
        try:
            counts = np.fromiter(map(len, packed), np.intp, len(packed))
            # the new entries by event count, each group in insertion order
            order = np.argsort(counts, kind="stable").tolist()
            rows = np.concatenate([packed[i] for i in order])
            valid = counts.all() and rows.shape[1:] == ((self.L + 7) // 8,)
        except (TypeError, ValueError):  # unsized or mismatched arrays
            valid = False
        if not valid:  # raise for the first bad entry
            for vid, p in zip(ids, packed):
                _check_packed(vid, p, self.L)
        groups = [(e, len(list(g)))
                  for e, g in groupby(np.sort(counts).tolist())]
        if any(e not in self.regions or m > self.regions[e].slots
               - self.regions[e].n for e, m in groups):
            self._lay_out(dict(groups))
        rows, row, a = _to_words(rows, len(self.words)), 0, 0
        ids = [ids[i] for i in order]
        for e, m in groups:
            r = self.regions[e]
            r.of(self.words)[:, :, r.n:r.n + m] = \
                rows[row:row + m * e].reshape(m, e, -1).T
            self.ids[r.slot + r.n:r.slot + r.n + m] = ids[a:a + m]
            r.n, row, a = r.n + m, row + m * e, a + m
        self.n += len(ids)

    def _lay_out(self, added: dict[int, int]) -> None:
        """Move every region into new arrays, sized for ``added`` more
        entries per event count, and plan the scan anew."""
        old, words, ids = self.regions, self.words, self.ids
        W, col, slot, self.regions = len(words), 0, 0, {}
        for e in sorted(old.keys() | added.keys()):
            n = old[e].n if e in old else 0
            slots = int((n + added.get(e, 0)) * _GROWTH) + 4
            self.regions[e] = _Region(e, col, slot, slots, n)
            col, slot = col + e * slots, slot + slots
        self.words = np.empty((W, col), np.uint64)
        self.ids = [None] * slot
        for e, r in old.items():
            new = self.regions[e]
            new.of(self.words)[:, :, :r.n] = r.of(words)[:, :, :r.n]
            self.ids[new.slot:new.slot + r.n] = ids[r.slot:r.slot + r.n]
        # chunks: runs of whole regions, or slot ranges of a larger region
        runs = []  # per chunk, its (region, first slot, slots)
        for r in self.regions.values():
            step = max(1, _BLOCK_WORDS // (W * r.e))
            if r.slots > step:
                runs += [[(r, a, min(step, r.slots - a))]
                         for a in range(0, r.slots, step)]
            elif (runs and runs[-1][0][2] == runs[-1][0][0].slots and W
                  * (r.col + r.e * r.slots - runs[-1][0][0].col)
                  <= _BLOCK_WORDS):
                runs[-1].append((r, 0, r.slots))
            else:
                runs.append([(r, 0, r.slots)])
        self.chunks = []
        for run in runs:
            (r, a, w), (z, b, v) = run[0], run[-1]
            self.chunks.append((
                r.of(self.words)[:, :, a:a + w] if len(run) == 1
                else self.words[:, None, r.col:z.col + z.e * z.slots],
                r.col, r.slot + a, z.slot + b + v, [q for q, _, _ in run]))
        self.scratch = max(block[0].size for block, *_ in self.chunks)


class HashDatabase:
    """Append-only, in-memory store of packed event codes, one entry per
    video id."""

    def __init__(self, L: int, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown hash mode {mode!r}")
        self.L = int(L)
        self.mode = mode
        self._entries: dict[str, DbEntry] = {}
        self._store = _Store(self.L)

    @property
    def entries(self) -> Mapping[str, DbEntry]:
        """Entries by video id, in insertion order, as a read-only view."""
        return MappingProxyType(self._entries)

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
        """The scan store, extended by the entries added since the last
        call."""
        entries, store = self._entries, self._store
        n = len(entries) - store.n
        if n:
            store.extend(list(islice(reversed(entries), n))[::-1],
                         list(islice(reversed(entries.values()), n))[::-1])
        return store


def db_add(db: HashDatabase, vh: VideoHash) -> None:
    """Add ``vh`` under its id. Its duration is stored as the float32 that
    VHDB writes, so a saved database loads back equal."""
    if vh.L != db.L:
        raise LengthMismatch(f"hash L={vh.L}, database L={db.L}")
    if vh.mode != db.mode:
        raise ModeMismatch(f"hash mode {vh.mode!r}, database {db.mode!r}")
    if vh.video_id in db._entries:
        raise DuplicateId(f"{vh.video_id!r} already stored")
    db._entries[vh.video_id] = DbEntry(
        pack_codes(vh.events), _f32_seconds(vh.video_id, vh.duration_seconds))


_VHDB_HEADER = struct.Struct("<4sBBII")
_ID_LEN = struct.Struct("<H")
_ENTRY = struct.Struct("<fI")
_MODE_CODE = {m: i for i, m in enumerate(MODES)}


def db_save(db: HashDatabase, path) -> None:
    """Write ``db`` as VHDB. Every entry is checked before the file is
    opened, so a bad entry leaves no partial file behind."""
    for vid, entry in db.entries.items():
        _check_packed(vid, entry.packed, db.L)
        _f32_seconds(vid, entry.duration_seconds)
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
        entries[vid] = DbEntry(packed.copy(), duration)
    r.close()
    return db


# -- distances ---------------------------------------------------------------


def _words(bits: np.ndarray, L: int) -> np.ndarray:
    """(E, L) {0, 1} bits -> (E, ceil(L/64)) words, packed as ``pack_codes``
    packs them and zero-padded."""
    return _to_words(pack_codes(bits), _word_count(L))


def _entry_totals(q_words: np.ndarray, store: _Store) -> np.ndarray:
    """Per slot of ``store``, the sum over query events of the minimum
    Hamming distance to the slot's entry's events; a spare slot's total is
    above any entry's."""
    E_q, W = q_words.shape
    cols = store.scratch
    # query events XORed at a time: all of them against a small chunk
    qn = min(E_q, max(1, _BLOCK_WORDS // (W * cols)))
    counts = np.empty(E_q * cols, store.dist)
    spare = E_q * (store.L + 1)
    # np.partition is far slower on uint8 than on uint16
    total = np.empty(len(store.ids), np.uint16 if spare < 1 << 16 else int)
    for block, c0, s0, s1, regions in store.chunks:
        _, rows, n = block.shape
        c = counts[:E_q * rows * n].reshape(E_q, rows, n)
        for i in range(0, E_q, qn):
            x = np.bitwise_count(block ^ q_words[i:i + qn, :, None, None],
                                 out=c[i:i + qn, None] if W == 1 else None)
            if W > 1:
                np.add.reduce(x, axis=1, dtype=store.dist, out=c[i:i + qn])
        if rows > 1:  # one region, or a slot range of it
            t = np.minimum.reduce(c, axis=1)
        elif len(regions) == 1:  # one region of 1-event entries
            t = c[:, 0]
        else:
            t = np.empty((E_q, s1 - s0), store.dist)
            for r in regions:
                lo, ts, e, w = r.col - c0, r.slot - s0, r.e, r.slots
                if e == 1:  # a copy costs less than a reduction over one row
                    t[:, ts:ts + w] = c[:, 0, lo:lo + w]
                else:
                    np.minimum.reduce(c[:, 0, lo:lo + e * w].reshape(
                        E_q, e, w), axis=1, out=t[:, ts:ts + w])
        if E_q == 1:
            total[s0:s1] = t[0]
        else:
            np.add.reduce(t, axis=0, dtype=total.dtype, out=total[s0:s1])
    for r in store.regions.values():
        total[r.slot + r.n:r.slot + r.slots] = spare
    return total


def query_topk(db: HashDatabase, query: VideoHash, k: int):
    """k nearest entries as (video_id, distance), distance ascending.

    Ties break lexicographically on the id, so rankings are reproducible.
    """
    if len(db) == 0:
        raise EmptyDatabase("cannot query an empty database")
    if query.L != db.L:
        raise LengthMismatch(f"query L={query.L}, database L={db.L}")
    if k < 1:
        raise ValueError("k must be at least 1")
    store = db._scan_store()
    total = _entry_totals(_words(query.events, db.L), store)
    k = min(k, len(db))
    near = (total <= np.partition(total, k - 1)[k - 1]).nonzero()[0]
    # the totals sort as the distances total / E do, and int / int divides
    # as numpy does
    scored = sorted(zip(total[near].tolist(),
                        map(store.ids.__getitem__, near.tolist())))
    E = query.E
    return [(vid, t / E) for t, vid in scored[:k]]
