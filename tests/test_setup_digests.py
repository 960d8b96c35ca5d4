"""Pinned bits of the set-up path: ``synth_video`` frames, the rows of
``extract_features`` and ``compute_norm_stats``.

Every digest is the sha256 of an array's dtype, shape and bytes, as
computed by the whole-array versions of these functions, which rendered
each shot into a new array, took the DCT of about 2**20 pixels per block
and let ``np.std`` compute its own mean. Training, the CLI artifacts of
criterion 11 and the acceptance oracles all start from these arrays, so
any bit that drifts fails here first.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from evhash.bench import synth_video
from evhash.ingest import FrameSequence, compute_norm_stats, extract_features


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def random_seq(n, h, w, fps, seed):
    rng = np.random.default_rng(seed)
    return FrameSequence(w, h, Fraction(fps),
                         rng.integers(0, 256, size=(n, h, w), dtype=np.uint8))


# (seed, duration s, fps): seeds 2, 3 and 8 draw all three shot kinds
# (gradient, rectangle, sinusoid); 6.5 s and 4.3 s are fractional
# durations, 4 s the shortest allowed; seed 1 draws no rectangle, seed 4
# no gradient, seed 5 only a gradient, seed 6 only a rectangle and seed 7
# only a sinusoid
SYNTH = {
    (1, 20, 15): "583ccf28ef51744f89f55f31669d169f479d218b3dfe6b1e2f7530623d215c89",
    (2, 20, 24): "e00ede9c7df282d92938c01ef0c5e8ff3e46b2ae19ad33209bc2bdc9c8bdc348",
    (3, 20, 25): "e52742367310afeb1a9571b41eb7da667459a42a47d246d76f0e54c38f6b62d0",
    (4, 20, 30): "75a774644a96d39f03ce2966117c77b83ed0f696d6693c03ff51a57bac9d3932",
    (5, 6.5, 25): "85f3cd12f53eb9048f3353bf2ed3eac22a7608b394ffcacd096a6d6e3ac8b545",
    (6, 4, 25): "ac7328f7eaacf0e46b7ff3732977240de55979024d24ecaf205b62f83b189f06",
    (7, 4.3, 30): "3cf7bcf5a5fe0dedb60383b55aeec6e5944ae6e4743581c8597fbf0ad4c96234",
    (8, 12, 24): "b057166f94c68c980f3cce8bdc7ee1058d76669672622215ebb8c9d8920a7536",
}

# the non-64x64 sequences span several blocks of extract_features (the
# 1280x720 frames one block each) and the 40x30 frames grow to 64x64
SEQS = {
    "synth 64x64": (
        lambda: synth_video(3, 20),
        "85e669c5910fc974daeaa54870e46b3d9adbf638816ee8e81c3240c43e30242d"),
    "64x64 at 30000/1001 fps": (
        lambda: random_seq(1300, 64, 64, Fraction(30000, 1001), 1),
        "95bb8331e0115d0d432bf76fee3ec2952cba41358a8b58e84d65a5b5ac2004f5"),
    "100x90 at 50 fps": (
        lambda: random_seq(1000, 90, 100, 50, 2),
        "1cb91f93edd8c2c4a76dea3497c33563c160d78f473a7318855613907d1c42c5"),
    "40x30 at 24 fps": (
        lambda: random_seq(700, 30, 40, 24, 3),
        "c6455a3fa2c8db9d6e14fe57094ed92c3d0606abf277b6df900d9efa90c87dab"),
    "1280x720 at 30 fps": (
        lambda: random_seq(12, 720, 1280, 30, 4),
        "9c3004e4c55c629f8185c4ddfd72d562d2858674708d4ace0ca288d739d47046"),
}


@pytest.mark.parametrize("seed, duration_s, fps", sorted(SYNTH))
def test_synth_frames(seed, duration_s, fps):
    frames = synth_video(seed, duration_s, fps=fps).frames
    assert digest(frames) == SYNTH[seed, duration_s, fps]


@pytest.mark.parametrize("name", sorted(SEQS))
def test_feature_rows(name):
    make, want = SEQS[name]
    assert digest(extract_features(make(), name).features) == want


def test_norm_stats():
    train = [extract_features(synth_video(seed, 8)) for seed in (2, 3, 4)]
    train.append(extract_features(random_seq(1000, 90, 100, 50, 2)))
    stats = compute_norm_stats(train)
    assert digest(stats.mean) == (
        "74e4997787434f2c8aff87696d2ae26a57b3dead36f86f02d854fcea2df04885")
    assert digest(stats.std) == (
        "394ce5882f003bc8fb9574145ff4b19201c52dec812059e562b2763f3697c976")
