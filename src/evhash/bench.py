"""Synthetic benchmark: procedural videos, time-cropped copies, and the
retrieval evaluation (top-k accuracy plus hash-rate buckets).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import OutOfRange, TooShort, ZeroDuration
from .hashing import EventDetectConfig, VideoHash, hash_video
from .index import HashDatabase, db_add, query_topk
from .ingest import FrameSequence, NormStats, extract_features, normalize
from .model import Autoencoder, encode

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
        if self.T_c < 4 or self.slide < 0 or self.slide % 2 != 0:
            raise OutOfRange(f"bad copy spec {self}")
        if (self.start - self.slide) % self.T_c != 0 or self.start < self.slide:
            raise OutOfRange(f"start {self.start} is not on the "
                             f"slide-{self.slide} grid of {self.T_c}")
        if self.start + self.T_c > self.T_fv:
            raise OutOfRange(f"copy {self} overruns its source")


# -- procedural video --------------------------------------------------------


def _shot_gradient(rng, n, fps):
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    theta = rng.uniform(0, 2 * np.pi)
    proj = xx * np.cos(theta) + yy * np.sin(theta)
    drift = rng.uniform(-40.0, 40.0)
    lo = rng.uniform(0, 80)
    hi = rng.uniform(160, 255)
    t = np.arange(n)[:, None, None] / fps
    phase = np.mod(proj[None] + drift * t, 64.0) / 64.0
    return lo + (hi - lo) * phase


def _shot_rectangle(rng, n, fps):
    bg = rng.uniform(10, 90)
    fg = rng.uniform(150, 250)
    w, h = rng.integers(8, 33, size=2)
    x0, y0 = rng.uniform(0, 64, size=2)
    vx, vy = rng.uniform(-25, 25, size=2)
    frames = np.full((n, 64, 64), bg)
    for i in range(n):
        x = (x0 + vx * i / fps) % 64
        y = (y0 + vy * i / fps) % 64
        cols = (np.arange(64) - x) % 64 < w
        rows = (np.arange(64) - y) % 64 < h
        frames[i][np.outer(rows, cols)] = fg
    return frames


def _shot_sinusoid(rng, n, fps):
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    fx, fy = rng.uniform(0.02, 0.12, size=2)
    omega = rng.uniform(0.5, 4.0)
    phi = rng.uniform(0, 2 * np.pi)
    amp = rng.uniform(50, 120)
    t = np.arange(n)[:, None, None] / fps
    return 128.0 + amp * np.sin(
        2 * np.pi * (fx * xx + fy * yy)[None] + omega * t + phi)


_SHOT_KINDS = (_shot_gradient, _shot_rectangle, _shot_sinusoid)


def synth_video(seed: int, duration_s: float, fps: int = 25) -> FrameSequence:
    """Procedural 64x64 grayscale video: 2-8 s shots of moving patterns.

    The same seed always produces bit-identical frames.
    """
    if duration_s < 4:
        raise TooShort(f"need at least 4 s, got {duration_s}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fps))
    chunks = []
    left = n
    while left > 0:
        shot_n = min(left, int(round(rng.uniform(2.0, 8.0) * fps)))
        kind = _SHOT_KINDS[rng.integers(0, len(_SHOT_KINDS))]
        chunks.append(kind(rng, shot_n, fps))
        left -= shot_n
    frames = np.clip(np.floor(np.concatenate(chunks) + 0.5), 0, 255)
    return FrameSequence(64, 64, Fraction(fps), frames.astype(np.uint8))


# -- copy synthesis -----------------------------------------------------------


def make_copies(T_fv: int, min_copy: int = 4, min_slide: int = 2,
                source_id: str = "") -> list[CopySpec]:
    """All copies of a T_fv-second video: every duration that is a
    multiple of min_copy, every slide that is a multiple of min_slide,
    tiled from the slide onward."""
    if T_fv < min_copy:
        raise TooShort(f"video of {T_fv}s is shorter than a {min_copy}s copy")
    specs = []
    for t_c in range(min_copy, T_fv + 1, min_copy):
        for slide in range(0, T_fv - t_c + 1, min_slide):
            start = slide
            while start + t_c <= T_fv:
                specs.append(CopySpec(source_id, slide, start, t_c, T_fv))
                start += t_c
    return specs


def crop_frames(seq: FrameSequence, spec: CopySpec) -> FrameSequence:
    """Copy the frames of [start, start + T_c) seconds, verbatim."""
    f0 = spec.start * seq.fps
    f1 = (spec.start + spec.T_c) * seq.fps
    if f0.denominator != 1 or f1.denominator != 1:
        raise OutOfRange(f"copy bounds {spec} are not on frame boundaries")
    f0, f1 = int(f0), int(f1)
    if not 0 <= f0 < f1 <= len(seq.frames):
        raise OutOfRange(f"crop [{f0}, {f1}) outside {len(seq.frames)} frames")
    return FrameSequence(seq.width, seq.height, seq.fps,
                         seq.frames[f0:f1].copy())


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
    topk: dict = field(default_factory=dict)        # mode -> [acc at k=1..k_max]
    topk_restricted: dict = field(default_factory=dict)
    buckets: dict = field(default_factory=dict)     # mode -> [(label, ahl, top5)]
    buckets_restricted: dict = field(default_factory=dict)
    query_count: int = 0
    query_count_restricted: int = 0


def _summary(results, hashes: dict[str, VideoHash], durations, k_max):
    """Top-k accuracies for k = 1..k_max and per-duration-bucket
    (label, mean AHL, top-5) rows of (source id, ranked ids) results."""
    accs = [topk_accuracy(results, k) for k in range(1, k_max + 1)]
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
             T_s: float = 4.0, k_max: int = 10,
             detect_cfg: EventDetectConfig | None = None,
             progress=None) -> EvalReport:
    """Hash the given videos into per-mode databases, query every copy,
    and aggregate top-k accuracies plus per-duration-bucket AHL/top-5.

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
    durations = {vid: float(seq.duration_seconds)
                 for vid, seq in by_id.items()}

    dbs = {mode: HashDatabase(model.L, mode) for mode in modes}
    db_hashes = {mode: {} for mode in modes}
    for vid, seq in by_id.items():
        feats = normalize(extract_features(seq, vid), stats)
        enc = encode(feats, model)
        for mode in modes:
            vh = hash_video(enc, mode, detect_cfg, T_s, vid, durations[vid])
            db_add(dbs[mode], vh)
            db_hashes[mode][vid] = vh

    results = {mode: [] for mode in modes}  # (source id, ranked ids)
    for qi, spec in enumerate(copies):
        crop = crop_frames(by_id[spec.source_id], spec)
        feats = normalize(extract_features(crop, f"{spec.source_id}:q{qi}"),
                          stats)
        enc = encode(feats, model)
        for mode in modes:
            vh = hash_video(enc, mode, detect_cfg, T_s,
                            f"{spec.source_id}:q{qi}", float(spec.T_c))
            ranked = [vid for vid, _ in query_topk(dbs[mode], vh, k_max)]
            results[mode].append((spec.source_id, ranked))
        if progress is not None and (qi + 1) % 200 == 0:
            progress(qi + 1, len(copies))

    report = EvalReport(modes=tuple(modes), k_max=k_max)
    report.query_count = len(copies)
    restricted = [spec.slide % 4 == 2 for spec in copies]
    report.query_count_restricted = sum(restricted)
    for mode in modes:
        report.topk[mode], report.buckets[mode] = _summary(
            results[mode], db_hashes[mode], durations, k_max)
        report.topk_restricted[mode], report.buckets_restricted[mode] = \
            _summary([r for r, keep in zip(results[mode], restricted) if keep],
                     db_hashes[mode], durations, k_max)
    return report


def write_copies_csv(copies: list[CopySpec], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["source_id", "T_fv", "slide", "start", "T_c"])
        for s in copies:
            w.writerow([s.source_id, s.T_fv, s.slide, s.start, s.T_c])


def load_copies_csv(path) -> list[CopySpec]:
    with open(path, newline="") as f:
        return [CopySpec(r["source_id"], int(r["slide"]), int(r["start"]),
                         int(r["T_c"]), int(r["T_fv"]))
                for r in csv.DictReader(f)]


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
