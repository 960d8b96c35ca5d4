"""Persistent hash database and Hamming-distance retrieval.

Every query event is compared against every database event; a video's
distance to an entry is the mean over its events of the minimum Hamming
distance to any entry event. Codes are stored bit-packed (least
significant bit first within each byte) and compared with popcounts over
the packed words.

VHDB file (little-endian): magic "VHDB", version u8=1, mode u8
(0=events, 1=sample, 2=sample_and_events), L u32, video_count u32;
per video: id_len u16 + UTF-8 id, duration_s f32, event_count u32,
then event_count * ceil(L/8) packed code bytes.
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


@dataclass
class DbEntry:
    packed: np.ndarray  # (E, ceil(L/8)) uint8
    duration_seconds: float


class HashDatabase:
    """In-memory store of packed event codes, one entry per video id."""

    def __init__(self, L: int, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown hash mode {mode!r}")
        self.L = int(L)
        self.mode = mode
        self.entries: dict[str, DbEntry] = {}

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
    nbytes = (db.L + 7) // 8
    for vid, entry in db.entries.items():
        if entry.packed.ndim != 2 or entry.packed.shape[1] != nbytes:
            raise ShapeMismatch(
                f"{vid!r}: packed codes {entry.packed.shape}, L={db.L} "
                f"needs {nbytes} bytes per event")
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
        vid = take(id_len).decode("utf-8")
        duration, n_events = struct.unpack("<fI", take(8))
        packed = np.frombuffer(take(n_events * nbytes), dtype=np.uint8)
        if vid in db.entries:
            raise DuplicateId(f"{path}: duplicate id {vid!r}")
        db.entries[vid] = DbEntry(packed.reshape(n_events, nbytes).copy(),
                                  duration)
    return db


# -- distances ---------------------------------------------------------------


def event_min_distance(query_event: np.ndarray, entry: DbEntry) -> int:
    """Min Hamming distance from one L-bit query event to the entry's events."""
    if len(entry.packed) < 1:
        raise EmptyEntry("entry has no events")
    q = pack_codes(query_event[None, :]) if query_event.ndim == 1 \
        else query_event[None, :]
    dists = np.bitwise_count(entry.packed ^ q).sum(axis=1)
    return int(dists.min())


def video_distance(query: VideoHash, entry: DbEntry) -> float:
    """Mean over query events of the per-event minimum Hamming distance."""
    if query.E < 1:
        raise EmptyQuery(f"{query.video_id}: query has no events")
    if len(entry.packed) < 1:
        raise EmptyEntry("entry has no events")
    qp = pack_codes(query.events)
    # (E_q, E_d) popcount table over packed words
    dists = np.bitwise_count(qp[:, None, :] ^ entry.packed[None, :, :]).sum(axis=2)
    return float(dists.min(axis=1).mean())


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
    scored = sorted(
        ((video_distance(query, entry), vid)
         for vid, entry in db.entries.items()),
        key=lambda t: (t[0], t[1]))
    return [(vid, dist) for dist, vid in scored[:k]]
