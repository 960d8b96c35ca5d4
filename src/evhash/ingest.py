"""Frame ingestion and per-frame feature extraction.

Raw videos arrive as FSEQ files (pre-decoded grayscale frames). They are
brought to 25 fps and thinned to every second frame; only the kept frames
are then brought to 64x64 grayscale and transformed to low-frequency DCT
coefficients, and the features are normalized with train-set statistics.
The frames go through in blocks of about 1 MB of float64, which stay in
cache: one batched downscale, with area weights built once per video, and
one batched DCT per block, which works in place on the block's own copy.

Binary formats, read with :class:`evhash.binfile.Reader` (which checks
the magic, the version, every declared size and trailing bytes):

FSEQ  magic "FSEQ", version u8=1, width u16, height u16, fps_num u32,
      fps_den u32, frame_count u32, then frame_count frames of
      width*height bytes, row-major; width, height and both fps fields
      are not 0.
FEAT  magic "FEAT", version u8=1, normalized u8, D u32, M u32 (neither
      0), then M*D finite float32, row-major.
NRM1  magic "NRM1", version u8=1, D u32 (not 0), D finite float32 means,
      D finite positive float32 stds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import fft as _fft

from .binfile import F32, U8, Reader
from .errors import (
    DimensionMismatch,
    DoubleNormalize,
    EmptyFrame,
    EmptySequence,
    EmptyTrainSet,
    MalformedFile,
    WrongDimensions,
)

FEATURE_DIM = 1024
_DCT_KEEP = 32
# float64 values per block in extract_features (1 MB of scratch, which
# stays in cache; 2**15 to 2**18 ran equally fast, 2**20 slower), or one
# frame where a frame holds more
_BLOCK_PIXELS = 2 ** 17
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
    r = Reader(path, b"FSEQ", _FSEQ_HEADER)
    width, height, num, den, count = r.fields
    if num == 0 or den == 0:
        raise MalformedFile(f"{path}: frame rate {num}/{den}")
    if width == 0 or height == 0:
        raise EmptyFrame(f"{path}: {width}x{height} frames have no pixels")
    frames = r.array(U8, (count, height, width)).copy()
    r.close()
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
    r = Reader(path, b"FEAT", _FEAT_HEADER)
    normalized, d, m = r.fields
    if d == 0 or m == 0:
        raise MalformedFile(f"{path}: {m} frames of dimension {d}")
    feats = r.array(F32, (m, d))
    r.close()
    # checked before the cast, which would warn on a signalling NaN
    if not np.isfinite(feats).all():
        raise MalformedFile(f"{path}: non-finite feature values")
    if video_id is None:
        video_id = Path(path).stem
    return FeatureSequence(video_id, feats.astype(np.float64),
                           normalized=bool(normalized))


# -- NRM1 ----------------------------------------------------------------

_NRM_HEADER = struct.Struct("<4sBI")


def write_norm_stats(stats: NormStats, path) -> None:
    with open(path, "wb") as f:
        f.write(_NRM_HEADER.pack(b"NRM1", 1, stats.D))
        f.write(stats.mean.astype("<f4").tobytes())
        f.write(stats.std.astype("<f4").tobytes())


def load_norm_stats(path) -> NormStats:
    r = Reader(path, b"NRM1", _NRM_HEADER)
    (d,) = r.fields
    if d == 0:
        raise MalformedFile(f"{path}: statistics of dimension 0")
    mean, std = r.array(F32, (2, d))
    r.close()
    if not (np.isfinite(mean).all() and np.isfinite(std).all()
            and (std > 0).all()):
        raise MalformedFile(f"{path}: a mean is not finite or a std is not "
                            f"finite and positive")
    return NormStats(mean=mean.astype(np.float64), std=std.astype(np.float64))


# -- preprocessing -------------------------------------------------------


def _resample_index(n_in: int, fps: Fraction) -> np.ndarray:
    """Input frame index of each frame of ``resample_to_25fps``."""
    if n_in == 0:
        raise EmptySequence("cannot resample an empty sequence")
    num, den = fps.numerator, fps.denominator
    n_out = max(1, _round_half_up(n_in * 25 * den, num))
    # _round_half_up(n * num, 25 * den) for every n, in Python integers
    # where int64 could overflow
    fits = 2 * n_out * num + 25 * den < 2 ** 63
    n = np.arange(n_out, dtype=np.int64 if fits else object)
    idx = (2 * n * num + 25 * den) // (50 * den)
    return np.minimum(idx, n_in - 1).astype(np.intp)


def resample_to_25fps(seq: FrameSequence) -> FrameSequence:
    """Nearest-frame resampling to exactly 25 fps.

    Output frame n is input frame round(n * src_fps / 25), clamped to the
    last index; rounding is half away from zero, computed exactly on the
    rational frame rate. Idempotent on 25 fps input.
    """
    idx = _resample_index(len(seq.frames), seq.fps)
    return FrameSequence(seq.width, seq.height, Fraction(25), seq.frames[idx])


def _area_weights(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) matrix of exact box-filter overlap fractions."""
    step = n_src / n_dst
    dst = np.arange(n_dst, dtype=np.float64)[:, None]
    src = np.arange(n_src, dtype=np.float64)
    overlap = (np.minimum((dst + 1) * step, src + 1)
               - np.maximum(dst * step, src))
    return np.divide(overlap, step, out=np.zeros_like(overlap),
                     where=overlap > 0)


def _frame_weights(h: int, w: int):
    """The row and column area weights that bring h x w frames to 64x64,
    or None for 64x64 frames."""
    if h < 1 or w < 1:
        raise EmptyFrame("frame has no pixels")
    if (h, w) == (64, 64):
        return None
    return _area_weights(h, 64), _area_weights(w, 64)


def _gray64(frames: np.ndarray, weights) -> np.ndarray:
    """(n, 64, 64) float64 8-bit gray levels of an (n, h, w) frame stack,
    in a new array; ``weights`` is ``_frame_weights(h, w)``.

    Area averaging, then rounding half up and clipping to [0, 255]. Both
    are the identity on 64x64 uint8 frames, which are only converted.
    """
    x = frames.astype(np.float64)
    if weights is not None:
        x = weights[0] @ x @ weights[1].T
    elif frames.dtype == np.uint8:
        return x
    x += 0.5
    np.floor(x, out=x)
    return np.clip(x, 0, 255, out=x)


def _dct_rows(x: np.ndarray, rows: np.ndarray) -> None:
    """Write the DCT features of an (n, 64, 64) float64 stack of gray
    levels, which it overwrites, into the C-contiguous ``rows`` (n,
    FEATURE_DIM), through a reshaped view."""
    x /= 255.0
    coeffs = _fft.dctn(x, type=2, norm="ortho", axes=(1, 2), overwrite_x=True)
    rows.reshape(len(x), _DCT_KEEP, _DCT_KEEP)[...] = \
        coeffs[:, :_DCT_KEEP, :_DCT_KEEP]
    rows[:, 0] = 0.0


def downscale_gray64(frame: np.ndarray) -> np.ndarray:
    """Reduce an arbitrary frame to 64x64 grayscale by area averaging.

    RGB input is converted to BT.601 luma first. All rounding is half up
    to the nearest 8-bit value.
    """
    if frame.ndim == 3 and frame.shape[2] == 3:
        frame = np.floor(frame.astype(np.float64) @ _LUMA + 0.5)
    elif frame.ndim != 2:
        raise WrongDimensions(f"expected HxW or HxWx3 frame, got {frame.shape}")
    return _gray64(frame[None], _frame_weights(*frame.shape))[0].astype(
        np.uint8)


def dct_features(frame: np.ndarray) -> np.ndarray:
    """Low-frequency DCT feature vector of a 64x64 grayscale frame.

    The frame is mapped to [0, 1] (divide by 255), transformed with the
    orthonormal 2-D DCT-II, and the top-left 32x32 coefficient block is
    flattened row-major. The DC coefficient is zeroed in place, so the
    vector keeps dimension 1024.
    """
    if frame.ndim != 2 or frame.shape != (64, 64):
        raise WrongDimensions(f"expected a 64x64 frame, got {frame.shape}")
    row = np.empty((1, FEATURE_DIM))
    _dct_rows(frame.astype(np.float64)[None], row)
    return row[0]


def drop_alternate(features: np.ndarray, video_id: str = "") -> FeatureSequence:
    """Keep the frames at even indices (0, 2, 4, ...)."""
    if len(features) < 1:
        raise EmptySequence("no frames to thin")
    return FeatureSequence(video_id, np.ascontiguousarray(features[::2],
                                                          dtype=np.float64))


def kept_frame_index(seq: FrameSequence) -> np.ndarray:
    """Input frame index of each feature row of ``extract_features``: the
    even entries of the 25 fps resample index."""
    return _resample_index(len(seq.frames), seq.fps)[::2]


def crop_rows(keep: np.ndarray, f0: int, f1: int, fps) -> slice | None:
    """The feature rows that frames [f0, f1) of a sequence at ``fps`` share
    with the whole sequence, whose ``kept_frame_index`` is ``keep``.

    Returns the slice of the sequence's ``extract_features`` rows that
    equals ``extract_features`` of the cropped frames alone, or None when
    the crop's kept frames are not a run of the sequence's kept frames.
    """
    want = _resample_index(f1 - f0, fps)[::2] + f0
    at = int(np.searchsorted(keep, want[0]))
    rows = slice(at, at + len(want))
    return rows if np.array_equal(keep[rows], want) else None


def extract_features(seq: FrameSequence, video_id: str = "") -> FeatureSequence:
    """Full ingest chain: 25 fps, alternate-frame drop, 64x64 gray, DCT.

    Only the kept frames (``kept_frame_index``: even indices of the 25 fps
    sequence) are gathered, about ``_BLOCK_PIXELS`` pixels at a time, and each
    block goes through one batched downscale and one batched DCT, which
    overwrites the block's float64 copy; the area weights are built once,
    and each block's coefficients go straight into the returned rows. The
    rows equal those of ``drop_alternate`` over ``dct_features(
    downscale_gray64(frame))`` of every resampled frame.
    """
    keep = kept_frame_index(seq)
    # frames smaller than 64x64 grow in the downscale
    step = max(1, _BLOCK_PIXELS // max(64 * 64, seq.width * seq.height))
    weights = _frame_weights(seq.height, seq.width)
    rows = np.empty((len(keep), FEATURE_DIM))
    for lo in range(0, len(keep), step):
        block = seq.frames[keep[lo:lo + step]]
        _dct_rows(_gray64(block, weights), rows[lo:lo + step])
    return FeatureSequence(video_id, rows)


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
    # np.std's own steps, on the mean that np.std would compute again
    stacked -= mean
    stacked *= stacked
    std = np.maximum(np.sqrt(stacked.sum(axis=0) / len(stacked)), 1e-8)
    return NormStats(mean=mean, std=std)


def normalize(seq: FeatureSequence, stats: NormStats) -> FeatureSequence:
    """Center and scale one sequence with the train-set statistics."""
    if seq.D != stats.D:
        raise DimensionMismatch(f"features have D={seq.D}, stats D={stats.D}")
    if seq.normalized:
        raise DoubleNormalize(f"{seq.video_id}: already normalized")
    feats = (seq.features - stats.mean) / stats.std
    return FeatureSequence(seq.video_id, feats, normalized=True)
