"""Reference rankings the benchmark checks ``index.query_topk`` against.

Both follow the definition in acceptance criterion 7: an entry's distance
is the mean over query events of the minimum Hamming distance to any of
its events, and ties break on the id. They work on unpacked bits, so they
share no code with the packed popcount scan they check.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1024  # entries unpacked at a time by full_scan_rank


def _bits(packed: np.ndarray, L: int) -> np.ndarray:
    return np.unpackbits(packed, axis=-1, bitorder="little", count=L)


def naive_rank(db, query) -> list[str]:
    """Criterion 7's pure-Python full scan; fine for small databases."""
    scored = []
    for vid, entry in db.entries.items():
        bits = _bits(entry.packed, db.L)
        total = 0.0
        for qe in query.events:
            total += min(int(np.sum(qe != row)) for row in bits)
        scored.append((total / query.E, vid))
    return [v for _, v in sorted(scored, key=lambda x: (x[0], x[1]))]


def full_scan_rank(db, query, n=None) -> list[str]:
    """The same ranking over the first ``n`` entries added (all when None),
    vectorised over a chunk of entries at a time for large databases."""
    ids = list(db.entries)[:n]
    scored = []
    for lo in range(0, len(ids), CHUNK):
        chunk = ids[lo:lo + CHUNK]
        packed = [db.entries[v].packed for v in chunk]
        starts = np.cumsum([0] + [len(p) for p in packed[:-1]])
        bits = _bits(np.concatenate(packed), db.L)
        totals = np.zeros(len(chunk), dtype=np.int64)
        for qe in query.events:
            d = (bits != qe).sum(axis=1)
            totals += np.minimum.reduceat(d, starts)
        scored += [(int(t) / query.E, v) for t, v in zip(totals, chunk)]
    return [v for _, v in sorted(scored)]
