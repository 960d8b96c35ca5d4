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
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, EmptyCodes, LengthMismatch, MalformedFile
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
        if np.any(np.diff(self.end_steps) <= 0):
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
    ends = []
    prev = 0
    w = cfg.window
    for t in range(1, M_e):
        if M_e - t < cfg.min_event_len:
            break
        d = d_series[t - 1]
        hit = d >= cfg.hard_threshold
        if not hit and t - 1 >= w:
            local = d_series[t - 1 - w:t - 1].mean()
            hit = d > cfg.multiplier * local
        if hit and t - prev >= cfg.min_event_len:
            ends.append(t)
            prev = t
    ends.append(M_e)
    return ends


def pool_event_hash(codes: np.ndarray, event_end: int, prev_end: int,
                    P: int) -> np.ndarray:
    """Bitwise majority over the last min(P, event length) code rows.

    ``codes`` is (M_e, L) in {0, 1}; steps are 1-based and the event
    covers (prev_end, event_end]. An even split votes 1.
    """
    if not 0 <= prev_end < event_end <= len(codes):
        raise BadRange(f"bad event range ({prev_end}, {event_end}] "
                       f"for {len(codes)} steps")
    window = codes[max(prev_end, event_end - P):event_end]
    ones = window.sum(axis=0, dtype=np.int64)
    return (2 * ones >= len(window)).astype(np.uint8)


def encoder_step_time(k: int, fps: float = 25.0) -> float:
    """Seconds spanned by k encoder steps (8 source frames per step)."""
    return FRAMES_PER_STEP * k / fps


def sample_interval_steps(T_s: float, fps: float = 25.0) -> int:
    """Encoder steps per sampling period, rounded half away from zero."""
    return int(np.floor(T_s * fps / FRAMES_PER_STEP + 0.5))


def _sample_ends(M_e: int, delta: int) -> list[int]:
    ends = sorted({min(n * delta, M_e) for n in range(1, -(-M_e // delta) + 1)})
    if ends[-1] != M_e:
        ends.append(M_e)
    return ends


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


def hash_video(codes: EncodeResult, mode: str, cfg: EventDetectConfig,
               T_s: float = 4.0, video_id: str = "",
               duration_seconds: float | None = None) -> VideoHash:
    """Extract the variable-length hash of one encoded video.

    ``duration_seconds`` defaults to the span of the encoder steps; pass
    the true duration when it is known (it feeds hash-rate reporting,
    not retrieval).
    """
    if codes.M_e < 1:
        raise EmptyCodes("cannot hash an empty code sequence")
    if mode not in MODES:
        raise ValueError(f"unknown hash mode {mode!r}")
    if duration_seconds is None:
        duration_seconds = encoder_step_time(codes.M_e)
    if mode == "events":
        ends = detect_event_ends(codes.d_series, cfg, codes.M_e)
    elif mode == "sample":
        ends = _sample_ends(codes.M_e, sample_interval_steps(T_s))
    else:
        ends = _densify(detect_event_ends(codes.d_series, cfg, codes.M_e),
                        sample_interval_steps(T_s))
    pooled = []
    prev = 0
    for e in ends:
        pooled.append(pool_event_hash(codes.codes, e, prev, cfg.pool_size))
        prev = e
    return VideoHash(video_id=video_id, L=codes.codes.shape[1],
                     events=np.stack(pooled),
                     end_steps=np.asarray(ends, dtype=np.int64),
                     mode=mode, duration_seconds=float(duration_seconds))


def emit_d_series(codes: EncodeResult,
                  cfg: EventDetectConfig | None = None) -> list[tuple]:
    """(step, d_t, is_event_end) rows for the adjacent-Hamming profile."""
    if cfg is None:
        cfg = EventDetectConfig()
    flagged = set(detect_event_ends(codes.d_series, cfg, codes.M_e)[:-1])
    return [(t, int(codes.d_series[t - 1]), t in flagged)
            for t in range(1, codes.M_e)]


def write_d_series_csv(codes: EncodeResult, path,
                       cfg: EventDetectConfig | None = None) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "d_t", "is_event_end"])
        for step, d, flag in emit_d_series(codes, cfg):
            w.writerow([step, d, int(flag)])


# -- debug text form -------------------------------------------------------


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, axis=-1, bitorder="little")


def write_video_hash(vh: VideoHash, path) -> None:
    """Text form: a comment header, then one 'end_step hexcode' per event."""
    with open(path, "w") as f:
        f.write(f"# evhash-vh 1 mode={vh.mode} L={vh.L} "
                f"duration={vh.duration_seconds!r} id={vh.video_id}\n")
        for end, row in zip(vh.end_steps, _pack_bits(vh.events)):
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
    events = np.unpackbits(np.frombuffer(b"".join(packed), np.uint8)
                           .reshape(len(packed), nbytes),
                           axis=1, bitorder="little", count=L)
    return VideoHash(video_id=video_id, L=L, events=events,
                     end_steps=np.asarray(ends, dtype=np.int64),
                     mode=mode, duration_seconds=duration)
