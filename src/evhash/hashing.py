"""From encoder codes to variable-length video hashes.

A video is segmented into events wherever the adjacent-Hamming series
d_t spikes; each event receives one L-bit code by majority-pooling the
last few encoder outputs of the event. Three extraction modes exist:
``events`` (event boundaries only), ``sample`` (one code every T_s
seconds), and ``sample_and_events`` (event boundaries, densified until
no gap reaches 2*T_s).

Event detection is strictly causal: the local average uses a trailing
window only, so hashes of a growing prefix never change except for the
final, still-open event.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRange,
    EmptyCodes,
    LengthMismatch,
    MalformedFile,
    ShapeMismatch,
)
from .model import EncodeResult

MODES = ("events", "sample", "sample_and_events")

# frames per encoder step: alternate-frame drop (2) times two strides (2*2)
FRAMES_PER_STEP = 8


@dataclass
class EventDetectConfig:
    hard_threshold: int = 16   # d_t at or above this always ends an event
    window: int = 8            # trailing steps for the local average
    multiplier: float = 2.0    # d_t must exceed multiplier * local mean
    min_event_len: int = 3     # encoder steps between accepted ends
    pool_size: int = 4         # steps pooled into an event's code

    def __post_init__(self):
        if min(self.hard_threshold, self.window, self.multiplier,
               self.min_event_len, self.pool_size) <= 0:
            raise ValueError("all detection parameters must be positive")


@dataclass
class VideoHash:
    """Variable-length hash: one L-bit code per event."""

    video_id: str
    L: int
    events: np.ndarray       # (E, L) uint8 in {0, 1}
    end_steps: np.ndarray    # (E,) 1-based encoder steps, increasing
    mode: str
    duration_seconds: float

    def __post_init__(self):
        if len(self.events) < 1:
            raise EmptyCodes(f"{self.video_id}: hash has no events")
        if self.events.ndim != 2 or self.events.shape[1] != self.L:
            raise ShapeMismatch(f"{self.video_id}: events {self.events.shape}"
                                f", L={self.L} needs {self.L} columns")
        if np.ndim(self.end_steps) != 1 or len(self.end_steps) != self.E:
            raise LengthMismatch(f"{self.video_id}: {self.E} events need "
                                 f"{self.E} end steps, got "
                                 f"{np.shape(self.end_steps)}")
        ends = np.asarray(self.end_steps)
        if len(ends) > 1 and not (ends[1:] > ends[:-1]).all():
            raise BadRange(f"{self.video_id}: event ends must increase")

    @property
    def E(self) -> int:
        return len(self.events)


def detect_event_ends(d_series, cfg: EventDetectConfig, M_e: int) -> list[int]:
    """1-based encoder steps where events end; M_e always closes the last.

    Step t ends an event when d_t >= hard_threshold, or when a full
    trailing window of d-values exists and d_t exceeds multiplier times
    its mean. An end closer than min_event_len to the previously accepted
    end (the sequence start counts as end 0) or to the final step is
    suppressed: either acceptance would leave a degenerate event. The
    end-side suppression also makes detection prefix-stable, because the
    last code of a prefix (and hence its last adjacent distance) is the
    only one that can change as the sequence grows.
    """
    d_series = np.asarray(d_series)
    if d_series.shape[0] != max(M_e - 1, 0):
        raise LengthMismatch(
            f"{M_e} steps need {M_e - 1} distances, got {d_series.shape[0]}")
    # d_series[i] is step t = i + 1; steps past M_e - min_event_len never end
    d = d_series[:max(M_e - cfg.min_event_len, 0)]
    w = cfg.window
    hit = d >= cfg.hard_threshold
    if len(d) > w:
        # sums[i] = d[i] + ... + d[i + w - 1], the window before d[i + w];
        # exact for the integer distances that encode produces
        run = np.cumsum(d[:-1])
        sums = run[w - 1:].copy()
        sums[1:] -= run[:-w]
        hit[w:] |= d[w:] > cfg.multiplier * (sums / w)
    ends = []
    prev = 0
    for i in hit.nonzero()[0].tolist():
        if i + 1 - prev >= cfg.min_event_len:
            prev = i + 1
            ends.append(prev)
    ends.append(M_e)
    return ends


def pool_events(codes: np.ndarray, ends: list[int], P: int) -> np.ndarray:
    """(E, L) codes of the events that end at the increasing 1-based steps
    ``ends`` (at least one); an event runs from the step after the previous
    end, the first from step 1. Each bit is the majority over the event's
    last min(P, event length) code rows of ``codes`` ((M_e, L) in {0, 1}),
    and an even split votes 1.

    The windows [start, end) of rows are summed by one ``reduceat`` over
    the bounds start_1, end_1, start_2, ..., whose odd-numbered runs (from
    an end to the next start) are dropped.
    """
    bounds, need, prev = [], [], 0
    for end in ends:
        start = max(prev, end - P)
        bounds += start, end
        need.append((end - start + 1) // 2)  # ones that win the vote
        prev = end
    ones = np.add.reduceat(codes[:end], bounds[:-1], axis=0,
                           dtype=np.intp)[::2]
    return np.greater_equal(ones, np.array(need)[:, None]).view(np.uint8)


def encoder_step_time(k: int) -> float:
    """Seconds spanned by k encoder steps (8 frames at 25 fps per step)."""
    return FRAMES_PER_STEP * k / 25.0


def sample_interval_steps(T_s: float) -> int:
    """Encoder steps per sampling period, rounded half away from zero."""
    return math.floor(T_s * 25.0 / FRAMES_PER_STEP + 0.5)


def _sample_ends(M_e: int, delta: int) -> list[int]:
    return [*range(delta, M_e, delta), M_e]


def _densify(ends: list[int], delta: int) -> list[int]:
    """Insert ends until no adjacent gap (from 0) reaches 2*delta."""
    out = []
    prev = 0
    for e in ends:
        while e - prev >= 2 * delta:
            prev += delta
            out.append(prev)
        out.append(e)
        prev = e
    return out


def _event_ends(codes: EncodeResult, cfg: EventDetectConfig) -> tuple:
    """``detect_event_ends`` of an encoded video, as a tuple.

    Eval hashes each query in both event modes, one after the other, so
    the result is kept on ``codes`` for the next call. Its key holds a copy
    of the series' bytes: a series changed in place keys differently, and
    stale ends cannot come back.
    """
    d = np.asarray(codes.d_series)
    key = (d.dtype.str, d.shape, d.tobytes(), codes.M_e, cfg.hard_threshold,
           cfg.window, cfg.multiplier, cfg.min_event_len)
    if codes.detected[0] != key:
        codes.detected = key, tuple(detect_event_ends(d, cfg, codes.M_e))
    return codes.detected[1]


def hash_video(codes: EncodeResult, mode: str, cfg: EventDetectConfig,
               T_s: float = 4.0, video_id: str = "",
               duration_seconds: float | None = None) -> VideoHash:
    """Extract the variable-length hash of one encoded video.

    The sample modes need a period ``T_s`` of at least one encoder step
    once rounded (0.16 s at 25 fps); a shorter one raises BadRange.
    ``duration_seconds`` defaults to the span of the encoder steps; pass
    the true duration when it is known (it feeds hash-rate reporting,
    not retrieval).

    Every event is pooled at once (``pool_events``). The two event modes
    detect on the same series, so the last detection is kept on ``codes``
    for the next call, under a key that holds a copy of the series' bytes.
    """
    if codes.M_e < 1:
        raise EmptyCodes("cannot hash an empty code sequence")
    if mode not in MODES:
        raise ValueError(f"unknown hash mode {mode!r}")
    if duration_seconds is None:
        duration_seconds = encoder_step_time(codes.M_e)
    if mode != "events":
        delta = sample_interval_steps(T_s)
        if delta < 1:
            raise BadRange(f"sampling period {T_s} s rounds to {delta} "
                           f"encoder steps, needs at least 1")
    if mode == "events":
        ends = _event_ends(codes, cfg)
    elif mode == "sample":
        ends = _sample_ends(codes.M_e, delta)
    else:
        ends = _densify(_event_ends(codes, cfg), delta)
    return VideoHash(video_id=video_id, L=codes.codes.shape[1],
                     events=pool_events(codes.codes, ends, cfg.pool_size),
                     end_steps=np.array(ends, dtype=np.int64),
                     mode=mode, duration_seconds=float(duration_seconds))


def emit_d_series(codes: EncodeResult, cfg: EventDetectConfig) -> list[tuple]:
    """(step, d_t, is_event_end) rows for the adjacent-Hamming profile."""
    flagged = set(detect_event_ends(codes.d_series, cfg, codes.M_e)[:-1])
    return [(t, int(codes.d_series[t - 1]), t in flagged)
            for t in range(1, codes.M_e)]


def write_d_series_csv(codes: EncodeResult, path,
                       cfg: EventDetectConfig) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "d_t", "is_event_end"])
        for step, d, flag in emit_d_series(codes, cfg):
            w.writerow([step, d, int(flag)])


# -- debug text form -------------------------------------------------------


def pack_codes(bits: np.ndarray) -> np.ndarray:
    """(E, L) {0,1} -> (E, ceil(L/8)) packed bytes, LSB first."""
    return np.packbits(bits.astype(np.uint8, copy=False), axis=-1,
                       bitorder="little")


def unpack_codes(packed: np.ndarray, L: int) -> np.ndarray:
    return np.unpackbits(packed, axis=-1, bitorder="little", count=L)


def write_video_hash(vh: VideoHash, path) -> None:
    """Text form: a comment header, then one 'end_step hexcode' per event."""
    with open(path, "w") as f:
        f.write(f"# evhash-vh 1 mode={vh.mode} L={vh.L} "
                f"duration={vh.duration_seconds!r} id={vh.video_id}\n")
        for end, row in zip(vh.end_steps, pack_codes(vh.events)):
            f.write(f"{end} {bytes(row).hex()}\n")


def load_video_hash(path) -> VideoHash:
    """Read the text form; anything that does not parse raises a DataError.

    Each code must be exactly ceil(L/8) bytes, as ``write_video_hash``
    writes them.
    """
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise MalformedFile(f"{path}: not a text file ({e})") from None
    fields = lines[0].lstrip("# ").split(" ", 5)
    if fields[:2] != ["evhash-vh", "1"]:
        raise BadRange(f"{path}: not a video-hash text file")
    keys = ["mode", "L", "duration", "id"]
    values = [field.partition("=") for field in fields[2:]]
    if [(key, eq) for key, eq, _ in values] != [(key, "=") for key in keys]:
        raise MalformedFile(f"{path}: header needs {'=, '.join(keys)}=")
    mode, L, duration, video_id = (value for _, _, value in values)
    if mode not in MODES:
        raise MalformedFile(f"{path}: unknown mode {mode!r}")
    try:
        L, duration = int(L), float(duration)
    except ValueError as e:
        raise MalformedFile(f"{path}: bad header value ({e})") from None
    if L < 1 or not np.isfinite(duration):
        raise MalformedFile(f"{path}: needs L >= 1 and a finite duration, "
                            f"got L={L}, duration={duration}")
    nbytes = (L + 7) // 8
    ends, packed = [], []
    for n, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        try:
            step, hexcode = line.split()
            ends.append(int(step))
            code = bytes.fromhex(hexcode)
        except ValueError as e:
            raise MalformedFile(f"{path}:{n}: expected 'end_step hexcode' "
                                f"({e})") from None
        if len(code) != nbytes:
            raise MalformedFile(f"{path}:{n}: code has {len(code)} bytes, "
                                f"L={L} needs {nbytes}")
        packed.append(code)
    if not packed:
        raise EmptyCodes(f"{path}: hash has no events")
    events = unpack_codes(np.frombuffer(b"".join(packed), np.uint8)
                          .reshape(len(packed), nbytes), L)
    return VideoHash(video_id=video_id, L=L, events=events,
                     end_steps=np.asarray(ends, dtype=np.int64),
                     mode=mode, duration_seconds=duration)
