"""Synthetic benchmark: procedural videos, time-cropped copies, and the
retrieval evaluation (top-k accuracy plus hash-rate buckets).

The evaluation ingests and encodes each source once, for its database
entry. A copy that starts on an even second reuses its source's
normalized feature rows, and such copies are encoded together, each
crop once, in the packed passes of ``encode_batch`` (see ``run_eval``).
Any other copy (an odd start, which a ``copies.csv`` may give) is
ingested and encoded again from its frames. The rows and codes are the
same either way. A crop's frames are a read-only view of its source's
(``crop_frames``), so a query copies no pixels.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    MalformedFile,
    OutOfRange,
    TooShort,
    UnknownSource,
    ZeroDuration,
)
from .hashing import EventDetectConfig, VideoHash, hash_video
from .index import HashDatabase, db_add, query_topk
from .ingest import (
    FeatureSequence,
    FrameSequence,
    NormStats,
    crop_rows,
    extract_features,
    kept_frame_index,
    normalize,
)
from . import model as model_mod
from .model import Autoencoder, encode, encode_batch

MIN_COPY, MIN_SLIDE = 4, 2  # the copy grid: steps of duration and slide, s
_SHOT_S = (2.0, 8.0)        # synth_video's shot lengths are uniform on this, s
K_MAX = 10                  # the evaluation reports top-k for k = 1..K_MAX

BUCKET_EDGES = (10, 15, 20, 25, 30, 35, 40, 45, 50)
BUCKET_LABELS = ("<10", "10-15", "15-20", "20-25", "25-30",
                 "30-35", "35-40", "40-45", "45-50", ">50")


@dataclass(frozen=True)
class CopySpec:
    """One time-cropped copy of a source video (all times in seconds)."""

    source_id: str
    slide: int
    start: int
    T_c: int
    T_fv: int

    def __post_init__(self):
        if self.T_c < MIN_COPY or self.slide < 0 or self.slide % MIN_SLIDE:
            raise OutOfRange(f"bad copy spec {self}")
        if (self.start - self.slide) % self.T_c != 0 or self.start < self.slide:
            raise OutOfRange(f"start {self.start} is not on the "
                             f"slide-{self.slide} grid of {self.T_c}")
        if self.start + self.T_c > self.T_fv:
            raise OutOfRange(f"copy {self} overruns its source")

    def frame_range(self, seq: FrameSequence) -> tuple[int, int]:
        """Frames [f0, f1) of ``seq`` that the copy spans."""
        num, den = seq.fps.numerator, seq.fps.denominator
        f0, r0 = divmod(self.start * num, den)
        f1, r1 = divmod((self.start + self.T_c) * num, den)
        if r0 or r1:
            raise OutOfRange(f"copy bounds {self} are not on frame boundaries")
        if not 0 <= f0 < f1 <= len(seq.frames):
            raise OutOfRange(f"crop [{f0}, {f1}) outside {len(seq.frames)} "
                             f"frames")
        return f0, f1


# -- procedural video --------------------------------------------------------


def _shot_gradient(rng, fps, out):
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    theta = rng.uniform(0, 2 * np.pi)
    proj = xx * np.cos(theta) + yy * np.sin(theta)
    drift = rng.uniform(-40.0, 40.0)
    lo = rng.uniform(0, 80)
    hi = rng.uniform(160, 255)
    # the phase mod(proj + drift t, 64) / 64, as y - floor(y) for y = proj
    # / 64 + drift t / 64: scaling by a power of two is exact, so both
    # round the same exact value once
    t = np.arange(len(out)) / fps
    np.add(proj / 64.0, (drift * t / 64.0)[:, None, None], out=out)
    out -= np.floor(out)
    out *= hi - lo
    out += lo


def _shot_rectangle(rng, fps, out):
    bg = rng.uniform(10, 90)
    fg = rng.uniform(150, 250)
    w, h = rng.integers(8, 33, size=2)
    x0, y0 = rng.uniform(0, 64, size=2)
    vx, vy = rng.uniform(-25, 25, size=2)
    i, px = np.arange(len(out)), np.arange(64)
    cols = (px - ((x0 + vx * i / fps) % 64)[:, None]) % 64 < w
    rows = (px - ((y0 + vy * i / fps) % 64)[:, None]) % 64 < h
    out[...] = bg
    np.copyto(out, fg, where=rows[:, :, None] & cols[:, None, :])


def _shot_sinusoid(rng, fps, out):
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    fx, fy = rng.uniform(0.02, 0.12, size=2)
    omega = rng.uniform(0.5, 4.0)
    phi = rng.uniform(0, 2 * np.pi)
    amp = rng.uniform(50, 120)
    t = np.arange(len(out)) / fps
    np.add(2 * np.pi * (fx * xx + fy * yy), (omega * t)[:, None, None],
           out=out)
    out += phi
    np.sin(out, out=out)
    out *= amp
    out += 128.0


_SHOT_KINDS = (_shot_gradient, _shot_rectangle, _shot_sinusoid)


def synth_video(seed: int, duration_s: float, fps: int = 25) -> FrameSequence:
    """Procedural 64x64 grayscale video: 2-8 s shots of moving patterns.

    The same seed always produces bit-identical frames; their digests are
    pinned in ``tests/test_setup_digests.py``. Each shot renders its gray
    levels into one reused float64 buffer, which is rounded half up and
    clipped into the uint8 frames.
    """
    if duration_s < 4:
        raise TooShort(f"need at least 4 s, got {duration_s}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fps))
    frames = np.empty((n, 64, 64), np.uint8)
    scratch = np.empty((min(n, int(round(_SHOT_S[1] * fps))), 64, 64))
    at = 0
    while at < n:
        shot_n = min(n - at, int(round(rng.uniform(*_SHOT_S) * fps)))
        kind = _SHOT_KINDS[rng.integers(0, len(_SHOT_KINDS))]
        buf = scratch[:shot_n]
        kind(rng, fps, buf)
        # after the clip the cast truncates, which on [0, 255] is floor
        buf += 0.5
        np.clip(buf, 0, 255, out=buf)
        frames[at:at + shot_n] = buf
        at += shot_n
    return FrameSequence(64, 64, Fraction(fps), frames)


# -- copy synthesis -----------------------------------------------------------


def make_copies(T_fv: int, source_id: str = "") -> list[CopySpec]:
    """All copies of a T_fv-second video on the copy grid: every duration
    that is a multiple of MIN_COPY, every slide that is a multiple of
    MIN_SLIDE, tiled from the slide onward."""
    if T_fv < MIN_COPY:
        raise TooShort(f"video of {T_fv}s is shorter than a {MIN_COPY}s copy")
    specs = []
    for t_c in range(MIN_COPY, T_fv + 1, MIN_COPY):
        for slide in range(0, T_fv - t_c + 1, MIN_SLIDE):
            start = slide
            while start + t_c <= T_fv:
                specs.append(CopySpec(source_id, slide, start, t_c, T_fv))
                start += t_c
    return specs


def crop_frames(seq: FrameSequence, spec: CopySpec) -> FrameSequence:
    """The frames of [start, start + T_c) seconds, verbatim, as a read-only
    view of ``seq``'s frames: no pixel is copied, and writing into the
    crop raises ``ValueError``. ``seq`` itself stays writeable."""
    f0, f1 = spec.frame_range(seq)
    frames = seq.frames[f0:f1]
    frames.flags.writeable = False
    return FrameSequence(seq.width, seq.height, seq.fps, frames)


# -- metrics ------------------------------------------------------------------


def topk_accuracy(results: list[tuple[str, list[str]]], k: int) -> float:
    """Fraction of queries whose true source is among the first k ids."""
    if not results:
        return float("nan")
    hits = sum(1 for true_id, ranked in results if true_id in ranked[:k])
    return hits / len(results)


def ahl(vh: VideoHash) -> float:
    """Average hash length in bits per 5 seconds of video."""
    if vh.duration_seconds <= 0:
        raise ZeroDuration(f"{vh.video_id}: nonpositive duration")
    return vh.E * vh.L * 5.0 / vh.duration_seconds


def duration_bucket(duration_s: float) -> int:
    return int(np.searchsorted(BUCKET_EDGES, duration_s, side="right"))


@dataclass
class EvalReport:
    """Per-mode retrieval accuracy and hash-rate summary."""

    modes: tuple
    k_max: int
    topk: dict = field(default_factory=dict)        # mode -> [acc at k=1..K_MAX]
    topk_restricted: dict = field(default_factory=dict)
    buckets: dict = field(default_factory=dict)     # mode -> [(label, ahl, top5)]
    buckets_restricted: dict = field(default_factory=dict)
    query_count: int = 0
    query_count_restricted: int = 0


def _summary(results, hashes: dict[str, VideoHash], durations):
    """Top-k accuracies for k = 1..K_MAX and per-duration-bucket
    (label, mean AHL, top-5) rows of (source id, ranked ids) results."""
    accs = [topk_accuracy(results, k) for k in range(1, K_MAX + 1)]
    rows = []
    for bucket, label in enumerate(BUCKET_LABELS):
        vids = [vid for vid, dur in durations.items()
                if duration_bucket(dur) == bucket]
        if vids:
            mean_ahl = float(np.mean([ahl(hashes[v]) for v in vids]))
        else:
            mean_ahl = float("nan")
        in_bucket = [r for r in results if r[0] in vids]
        rows.append((label, mean_ahl, topk_accuracy(in_bucket, 5)))
    return accs, rows


def run_eval(videos: list[FrameSequence], video_ids: list[str],
             model: Autoencoder, stats: NormStats,
             copies: list[CopySpec] | None = None,
             modes=("events", "sample", "sample_and_events"),
             T_s: float = 4.0,
             detect_cfg: EventDetectConfig | None = None,
             progress=None) -> EvalReport:
    """Hash the given videos into per-mode databases, query every copy,
    and aggregate top-k accuracies plus per-duration-bucket AHL/top-5.

    Each source is ingested and encoded once, for the database. For a
    source that has copies, its kept-frame index and normalized rows are
    kept until the end of the call: one float64 row (8 KB) per kept
    frame, about the size of the source's 64x64 frames. A copy whose kept
    frames are a run of its source's (as for a copy that starts on an
    even second) takes those rows; any other copy is ingested again from
    its cropped frames. Either way the rows equal
    ``normalize(extract_features(crop))``.

    Codes are cached per crop, the key (source, start, T_c), until the
    last query of that key. A query whose key is not cached encodes it,
    and if it reuses rows, the keys of the following reusing copies too,
    in query order, until their rows would pass ``model._ENCODE_ROWS``:
    one ``encode_batch`` that gathers the source rows straight into its
    packed array. Each query still starts with its ``crop_frames`` call,
    which costs no pixel copy: the crop is a view of the source's frames.
    Then it hashes its codes once per mode and queries that mode's
    database once (``hash_video``, then ``query_topk``).

    The restricted variants keep only copies whose slide is an even
    number of seconds but not a multiple of four.
    """
    if detect_cfg is None:
        # default event cutoff follows the L/4 rule (16 bits at L=64)
        detect_cfg = EventDetectConfig(hard_threshold=max(1, model.L // 4))
    if copies is None:
        copies = [spec for seq, vid in zip(videos, video_ids)
                  for spec in make_copies(int(seq.duration_seconds),
                                          source_id=vid)]
    by_id = dict(zip(video_ids, videos))
    copied = {spec.source_id for spec in copies}
    if not copied <= by_id.keys():
        raise UnknownSource(f"copies of videos that are not given: "
                            f"{sorted(copied - by_id.keys())}")
    durations = {vid: float(seq.duration_seconds)
                 for vid, seq in by_id.items()}

    dbs = {mode: HashDatabase(model.L, mode) for mode in modes}
    db_hashes = {mode: {} for mode in modes}
    source_rows = {}  # source id -> (kept frame index, normalized rows)
    for vid, seq in by_id.items():
        feats = normalize(extract_features(seq, vid), stats)
        if vid in copied:
            source_rows[vid] = (kept_frame_index(seq), feats.features)
        enc = encode(feats, model)
        for mode in modes:
            vh = hash_video(enc, mode, detect_cfg, T_s, vid, durations[vid])
            db_add(dbs[mode], vh)
            db_hashes[mode][vid] = vh

    def key(spec):
        return spec.source_id, spec.start, spec.T_c

    def reused_rows(qi):
        """Copy qi's features as a view of its source's rows, or None."""
        spec = copies[qi]
        source = by_id[spec.source_id]
        keep, rows = source_rows[spec.source_id]
        at = crop_rows(keep, *spec.frame_range(source), source.fps)
        return None if at is None else FeatureSequence(
            f"{spec.source_id}:q{qi}", rows[at], normalized=True)

    def encode_ahead(qi, feats):
        """Encode copy qi's reused rows and those of the following copies
        that reuse rows, each key once, until the rows would pass the
        cap."""
        batch, rows = {key(copies[qi]): feats}, feats.M
        for qj in range(qi + 1, len(copies)):
            kj = key(copies[qj])
            feats = None if kj in encoded or kj in batch else reused_rows(qj)
            if feats is None:
                continue
            if rows + feats.M > model_mod._ENCODE_ROWS:
                break
            batch[kj] = feats
            rows += feats.M
        encoded.update(zip(batch, encode_batch(list(batch.values()), model)))

    uses = Counter(map(key, copies))
    encoded = {}  # key -> EncodeResult, dropped after the key's last use
    results = {mode: [] for mode in modes}  # (source id, ranked ids)
    for qi, spec in enumerate(copies):
        qid = f"{spec.source_id}:q{qi}"
        crop = crop_frames(by_id[spec.source_id], spec)
        k = key(spec)
        if k not in encoded:
            feats = reused_rows(qi)
            if feats is None:
                encoded[k] = encode(
                    normalize(extract_features(crop, qid), stats), model)
            else:
                encode_ahead(qi, feats)
        enc = encoded[k]
        uses[k] -= 1
        if not uses[k]:
            del encoded[k]
        for mode in modes:
            vh = hash_video(enc, mode, detect_cfg, T_s, qid, float(spec.T_c))
            ranked = [vid for vid, _ in query_topk(dbs[mode], vh, K_MAX)]
            results[mode].append((spec.source_id, ranked))
        if progress is not None and (qi + 1) % 200 == 0:
            progress(qi + 1, len(copies))

    report = EvalReport(modes=tuple(modes), k_max=K_MAX)
    report.query_count = len(copies)
    restricted = [spec.slide % 4 == 2 for spec in copies]
    report.query_count_restricted = sum(restricted)
    for mode in modes:
        report.topk[mode], report.buckets[mode] = _summary(
            results[mode], db_hashes[mode], durations)
        report.topk_restricted[mode], report.buckets_restricted[mode] = \
            _summary([r for r, keep in zip(results[mode], restricted) if keep],
                     db_hashes[mode], durations)
    return report


def write_copies_csv(copies: list[CopySpec], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["source_id", "T_fv", "slide", "start", "T_c"])
        for s in copies:
            w.writerow([s.source_id, s.T_fv, s.slide, s.start, s.T_c])


def load_copies_csv(path) -> list[CopySpec]:
    """Read the copies ``write_copies_csv`` writes; a missing column or a
    field that is not an integer raises ``MalformedFile``."""
    with open(path, newline="") as f:
        rows = csv.DictReader(f)
        try:
            return [CopySpec(r["source_id"], int(r["slide"]), int(r["start"]),
                             int(r["T_c"]), int(r["T_fv"]))
                    for r in rows]
        except (KeyError, TypeError, ValueError, csv.Error) as e:
            raise MalformedFile(f"{path}, line {rows.line_num}: bad copy "
                                f"row ({e!r})") from e


def write_report_csvs(report: EvalReport, out_dir) -> list[str]:
    """report.csv / buckets.csv plus _slide2mod4 restricted variants."""
    from pathlib import Path

    out_dir = Path(out_dir)
    written = []

    def topk_file(name, table):
        p = out_dir / name
        with open(p, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["mode", "k", "accuracy"])
            for mode in report.modes:
                for k, acc in enumerate(table[mode], start=1):
                    w.writerow([mode, k, repr(acc)])
        written.append(str(p))

    def bucket_file(name, table):
        p = out_dir / name
        with open(p, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["mode", "bucket", "ahl", "top5"])
            for mode in report.modes:
                for label, a, t5 in table[mode]:
                    w.writerow([mode, label, repr(a), repr(t5)])
        written.append(str(p))

    topk_file("report.csv", report.topk)
    topk_file("report_slide2mod4.csv", report.topk_restricted)
    bucket_file("buckets.csv", report.buckets)
    bucket_file("buckets_slide2mod4.csv", report.buckets_restricted)
    return written
