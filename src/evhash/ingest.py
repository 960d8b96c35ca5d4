"""Frame ingestion and per-frame feature extraction.

Raw videos arrive as FSEQ files (pre-decoded grayscale frames). They are
brought to 25 fps and 64x64 grayscale, transformed to low-frequency DCT
coefficients, thinned to every second frame, and normalized with
train-set statistics.

Binary formats (all little-endian):

FSEQ  magic "FSEQ", version u8=1, width u16, height u16, fps_num u32,
      fps_den u32, frame_count u32, then frame_count frames of
      width*height bytes, row-major.
FEAT  magic "FEAT", version u8=1, normalized u8, D u32, M u32, then
      M*D finite float32, row-major.
NRM1  magic "NRM1", version u8=1, D u32, D finite float32 means, D
      finite positive float32 stds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import fft as _fft

from .errors import (
    BadMagic,
    DimensionMismatch,
    DoubleNormalize,
    EmptyFrame,
    EmptySequence,
    EmptyTrainSet,
    MalformedFile,
    TruncatedFile,
    UnsupportedVersion,
    WrongDimensions,
)

FEATURE_DIM = 1024
_DCT_KEEP = 32
_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass
class FrameSequence:
    """Ordered grayscale frames with a rational frame rate."""

    width: int
    height: int
    fps: Fraction
    frames: np.ndarray  # (n, height, width) uint8

    def __post_init__(self):
        self.fps = Fraction(self.fps)
        if self.frames.ndim != 3 or self.frames.shape[1:] != (self.height, self.width):
            raise WrongDimensions(
                f"frames shaped {self.frames.shape}, header says "
                f"{self.height}x{self.width}")
        if len(self.frames) < 1:
            raise EmptySequence("a frame sequence needs at least one frame")

    @property
    def duration_seconds(self) -> float:
        return len(self.frames) / float(self.fps)


@dataclass
class FeatureSequence:
    """Per-frame feature vectors for one video."""

    video_id: str
    features: np.ndarray  # (M, D) float64
    normalized: bool = False

    @property
    def M(self) -> int:
        return self.features.shape[0]

    @property
    def D(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean and standard deviation of the train set."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def D(self) -> int:
        return self.mean.shape[0]


def _round_half_up(num: int, den: int) -> int:
    """round(num/den) with halves away from zero, for num >= 0, den > 0."""
    return (2 * num + den) // (2 * den)


# -- FSEQ ----------------------------------------------------------------

_FSEQ_HEADER = struct.Struct("<4sBHHIII")


def write_fseq(seq: FrameSequence, path) -> None:
    with open(path, "wb") as f:
        f.write(_FSEQ_HEADER.pack(
            b"FSEQ", 1, seq.width, seq.height,
            seq.fps.numerator, seq.fps.denominator, len(seq.frames)))
        f.write(seq.frames.tobytes())


def load_fseq(path) -> FrameSequence:
    data = Path(path).read_bytes()
    if len(data) < _FSEQ_HEADER.size:
        raise TruncatedFile(f"{path}: header incomplete")
    magic, version, width, height, num, den, count = \
        _FSEQ_HEADER.unpack_from(data)
    if magic != b"FSEQ":
        raise BadMagic(f"{path}: expected FSEQ, found {magic!r}")
    if version != 1:
        raise UnsupportedVersion(f"{path}: FSEQ version {version}")
    need = _FSEQ_HEADER.size + count * width * height
    if len(data) < need:
        raise TruncatedFile(
            f"{path}: header declares {count} frames, payload is short")
    frames = np.frombuffer(
        data, dtype=np.uint8, count=count * width * height,
        offset=_FSEQ_HEADER.size).reshape(count, height, width).copy()
    return FrameSequence(width, height, Fraction(num, den), frames)


# -- FEAT ----------------------------------------------------------------

_FEAT_HEADER = struct.Struct("<4sBBII")


def write_feat(seq: FeatureSequence, path) -> None:
    with open(path, "wb") as f:
        f.write(_FEAT_HEADER.pack(
            b"FEAT", 1, 1 if seq.normalized else 0, seq.D, seq.M))
        f.write(seq.features.astype("<f4").tobytes())


def load_feat(path, video_id: str | None = None) -> FeatureSequence:
    """Read a FEAT file; the video id defaults to the file stem."""
    data = Path(path).read_bytes()
    if len(data) < _FEAT_HEADER.size:
        raise TruncatedFile(f"{path}: header incomplete")
    magic, version, normalized, d, m = _FEAT_HEADER.unpack_from(data)
    if magic != b"FEAT":
        raise BadMagic(f"{path}: expected FEAT, found {magic!r}")
    if version != 1:
        raise UnsupportedVersion(f"{path}: FEAT version {version}")
    need = _FEAT_HEADER.size + 4 * d * m
    if len(data) < need:
        raise TruncatedFile(f"{path}: feature payload is short")
    feats = np.frombuffer(data, dtype="<f4", count=d * m,
                          offset=_FEAT_HEADER.size)
    feats = feats.reshape(m, d).astype(np.float64)
    if not np.isfinite(feats).all():
        raise MalformedFile(f"{path}: non-finite feature values")
    if video_id is None:
        video_id = Path(path).stem
    return FeatureSequence(video_id, feats, normalized=bool(normalized))


# -- NRM1 ----------------------------------------------------------------

_NRM_HEADER = struct.Struct("<4sBI")


def write_norm_stats(stats: NormStats, path) -> None:
    with open(path, "wb") as f:
        f.write(_NRM_HEADER.pack(b"NRM1", 1, stats.D))
        f.write(stats.mean.astype("<f4").tobytes())
        f.write(stats.std.astype("<f4").tobytes())


def load_norm_stats(path) -> NormStats:
    data = Path(path).read_bytes()
    if len(data) < _NRM_HEADER.size:
        raise TruncatedFile(f"{path}: header incomplete")
    magic, version, d = _NRM_HEADER.unpack_from(data)
    if magic != b"NRM1":
        raise BadMagic(f"{path}: expected NRM1, found {magic!r}")
    if version != 1:
        raise UnsupportedVersion(f"{path}: NRM1 version {version}")
    if len(data) < _NRM_HEADER.size + 8 * d:
        raise TruncatedFile(f"{path}: stats payload is short")
    mean = np.frombuffer(data, dtype="<f4", count=d,
                         offset=_NRM_HEADER.size).astype(np.float64)
    std = np.frombuffer(data, dtype="<f4", count=d,
                        offset=_NRM_HEADER.size + 4 * d).astype(np.float64)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()
            and (std > 0).all()):
        raise MalformedFile(f"{path}: a mean is not finite or a std is not "
                            f"finite and positive")
    return NormStats(mean=mean, std=std)


# -- preprocessing -------------------------------------------------------


def resample_to_25fps(seq: FrameSequence) -> FrameSequence:
    """Nearest-frame resampling to exactly 25 fps.

    Output frame n is input frame round(n * src_fps / 25), clamped to the
    last index; rounding is half away from zero, computed exactly on the
    rational frame rate. Idempotent on 25 fps input.
    """
    if len(seq.frames) == 0:
        raise EmptySequence("cannot resample an empty sequence")
    num, den = seq.fps.numerator, seq.fps.denominator
    n_in = len(seq.frames)
    n_out = max(1, _round_half_up(n_in * 25 * den, num))
    idx = np.array([
        min(_round_half_up(n * num, 25 * den), n_in - 1)
        for n in range(n_out)
    ])
    return FrameSequence(seq.width, seq.height, Fraction(25),
                         seq.frames[idx].copy())


def _area_weights(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) matrix of exact box-filter overlap fractions."""
    w = np.zeros((n_dst, n_src))
    step = n_src / n_dst
    for i in range(n_dst):
        lo, hi = i * step, (i + 1) * step
        first, last = int(np.floor(lo)), min(int(np.ceil(hi)), n_src)
        for s in range(first, last):
            overlap = min(hi, s + 1) - max(lo, s)
            if overlap > 0:
                w[i, s] = overlap / step
    return w


def downscale_gray64(frame: np.ndarray) -> np.ndarray:
    """Reduce an arbitrary frame to 64x64 grayscale by area averaging.

    RGB input is converted to BT.601 luma first. All rounding is half up
    to the nearest 8-bit value.
    """
    if frame.ndim == 3 and frame.shape[2] == 3:
        frame = np.floor(frame.astype(np.float64) @ _LUMA + 0.5)
    elif frame.ndim != 2:
        raise WrongDimensions(f"expected HxW or HxWx3 frame, got {frame.shape}")
    h, w = frame.shape
    if h < 1 or w < 1:
        raise EmptyFrame("frame has no pixels")
    frame = frame.astype(np.float64)
    if (h, w) != (64, 64):
        frame = _area_weights(h, 64) @ frame @ _area_weights(w, 64).T
    return np.clip(np.floor(frame + 0.5), 0, 255).astype(np.uint8)


def dct_features(frame: np.ndarray) -> np.ndarray:
    """Low-frequency DCT feature vector of a 64x64 grayscale frame.

    The frame is mapped to [0, 1] (divide by 255), transformed with the
    orthonormal 2-D DCT-II, and the top-left 32x32 coefficient block is
    flattened row-major. The DC coefficient is zeroed in place, so the
    vector keeps dimension 1024.
    """
    if frame.ndim != 2 or frame.shape != (64, 64):
        raise WrongDimensions(f"expected a 64x64 frame, got {frame.shape}")
    coeffs = _fft.dctn(frame.astype(np.float64) / 255.0, type=2, norm="ortho")
    out = coeffs[:_DCT_KEEP, :_DCT_KEEP].reshape(-1).copy()
    out[0] = 0.0
    return out


def drop_alternate(features: np.ndarray, video_id: str = "") -> FeatureSequence:
    """Keep the frames at even indices (0, 2, 4, ...)."""
    if len(features) < 1:
        raise EmptySequence("no frames to thin")
    return FeatureSequence(video_id, np.ascontiguousarray(features[::2],
                                                          dtype=np.float64))


def extract_features(seq: FrameSequence, video_id: str = "") -> FeatureSequence:
    """Full ingest chain: 25 fps, 64x64 gray, DCT, alternate-frame drop."""
    seq = resample_to_25fps(seq)
    rows = np.empty((len(seq.frames), FEATURE_DIM))
    for i, frame in enumerate(seq.frames):
        rows[i] = dct_features(downscale_gray64(frame))
    return drop_alternate(rows, video_id=video_id)


def compute_norm_stats(train: list[FeatureSequence]) -> NormStats:
    """Per-dimension mean and population std over all train frames.

    The std is floored at 1e-8 so constant dimensions stay divisible.
    """
    if not train:
        raise EmptyTrainSet("need at least one feature sequence")
    if any(s.normalized for s in train):
        raise DoubleNormalize("train statistics expect raw features")
    stacked = np.concatenate([s.features for s in train], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-8)
    return NormStats(mean=mean, std=std)


def normalize(seq: FeatureSequence, stats: NormStats) -> FeatureSequence:
    """Center and scale one sequence with the train-set statistics."""
    if seq.D != stats.D:
        raise DimensionMismatch(f"features have D={seq.D}, stats D={stats.D}")
    if seq.normalized:
        raise DoubleNormalize(f"{seq.video_id}: already normalized")
    feats = (seq.features - stats.mean) / stats.std
    return FeatureSequence(seq.video_id, feats, normalized=True)
