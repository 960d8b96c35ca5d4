import struct

import numpy as np
import pytest
import scipy.fft
from fractions import Fraction

from evhash import ingest
from evhash.bench import synth_video
from evhash.errors import (
    BadMagic,
    DimensionMismatch,
    DoubleNormalize,
    EmptyFrame,
    EmptyTrainSet,
    MalformedFile,
    TruncatedFile,
    UnsupportedVersion,
    WrongDimensions,
)
from evhash.ingest import (
    FeatureSequence,
    FrameSequence,
    compute_norm_stats,
    dct_features,
    downscale_gray64,
    drop_alternate,
    extract_features,
    kept_frame_index,
    load_fseq,
    normalize,
    resample_to_25fps,
    write_fseq,
)


def naive_dct2(frame01: np.ndarray) -> np.ndarray:
    """Direct O(N^4) orthonormal DCT-II summation (independent oracle)."""
    n = frame01.shape[0]
    out = np.zeros((n, n))
    grid = np.arange(n)
    for u in range(n):
        cu = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
        cos_u = np.cos((2 * grid + 1) * u * np.pi / (2 * n))
        for v in range(n):
            cv = np.sqrt(1.0 / n) if v == 0 else np.sqrt(2.0 / n)
            cos_v = np.cos((2 * grid + 1) * v * np.pi / (2 * n))
            out[u, v] = cu * cv * np.sum(frame01 * np.outer(cos_u, cos_v))
    return out


def make_seq(frames, fps=25):
    frames = np.asarray(frames, dtype=np.uint8)
    return FrameSequence(frames.shape[2], frames.shape[1], Fraction(fps),
                         frames)


class TestFseqFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = make_seq(rng.integers(0, 256, size=(3, 64, 64)))
        path = tmp_path / "x.fseq"
        write_fseq(seq, path)
        back = load_fseq(path)
        assert back.fps == Fraction(25)
        np.testing.assert_array_equal(back.frames, seq.frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fseq"
        path.write_bytes(b"XXXX" + bytes(30))
        with pytest.raises(BadMagic):
            load_fseq(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        seq = make_seq(rng.integers(0, 256, size=(10, 8, 8)))
        path = tmp_path / "x.fseq"
        write_fseq(seq, path)
        data = path.read_bytes()
        # drop one frame's worth of bytes: header still declares 10
        path.write_bytes(data[:-64])
        with pytest.raises(TruncatedFile):
            load_fseq(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.fseq"
        write_fseq(make_seq(np.zeros((2, 8, 8))), path)
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(MalformedFile):
            load_fseq(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.fseq"
        data = bytearray()
        data += b"FSEQ"
        data += bytes([9])  # version
        data += bytes(16)
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            load_fseq(path)

    @pytest.mark.parametrize("num, den", [(0, 1), (25, 0), (0, 0)])
    def test_zero_frame_rate(self, tmp_path, num, den):
        path = tmp_path / "x.fseq"
        path.write_bytes(struct.pack("<4sBHHIII", b"FSEQ", 1, 2, 2, num, den,
                                     1) + bytes(4))
        with pytest.raises(MalformedFile):
            load_fseq(path)

    @pytest.mark.parametrize("width, height", [(0, 8), (8, 0)])
    def test_zero_pixel_header(self, tmp_path, width, height):
        # 2**32 - 1 empty frames take no payload; rejected at load, before
        # resampling would index them all
        path = tmp_path / "x.fseq"
        path.write_bytes(struct.pack("<4sBHHIII", b"FSEQ", 1, width, height,
                                     25, 1, 2 ** 32 - 1))
        with pytest.raises(EmptyFrame):
            load_fseq(path)


class TestResample:
    def test_25fps_identity(self):
        rng = np.random.default_rng(2)
        seq = make_seq(rng.integers(0, 256, size=(7, 4, 4)), fps=25)
        out = resample_to_25fps(seq)
        np.testing.assert_array_equal(out.frames, seq.frames)
        assert out.fps == Fraction(25)

    def test_50fps_every_second(self):
        frames = np.arange(10, dtype=np.uint8).reshape(10, 1, 1)
        seq = make_seq(frames, fps=50)
        out = resample_to_25fps(seq)
        np.testing.assert_array_equal(out.frames[:, 0, 0], [0, 2, 4, 6, 8])

    def test_30fps_hand_enumeration(self):
        # round(n * 30/25) for n = 0..24, halves away from zero
        expected = [0, 1, 2, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17,
                    18, 19, 20, 22, 23, 24, 25, 26, 28, 29]
        frames = np.arange(30, dtype=np.uint8).reshape(30, 1, 1)
        out = resample_to_25fps(make_seq(frames, fps=30))
        assert len(out.frames) == 25
        np.testing.assert_array_equal(out.frames[:, 0, 0], expected)

    def test_huge_rational_rate(self):
        # n * num overflows int64 here; the index must stay exact
        fps = Fraction(2 ** 70 + 1, 2 ** 65)
        frames = np.arange(100, dtype=np.uint8).reshape(100, 1, 1)
        out = resample_to_25fps(make_seq(frames, fps=fps))
        num, den = fps.numerator, fps.denominator
        n_out = (2 * 100 * 25 * den + num) // (2 * num)
        want = [min((2 * n * num + 25 * den) // (50 * den), 99)
                for n in range(n_out)]
        np.testing.assert_array_equal(out.frames[:, 0, 0], want)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for fps in (Fraction(30), Fraction(24000, 1001), Fraction(12)):
            seq = make_seq(rng.integers(0, 256, size=(40, 2, 2)), fps=fps)
            once = resample_to_25fps(seq)
            twice = resample_to_25fps(once)
            np.testing.assert_array_equal(once.frames, twice.frames)


class TestDownscale:
    def test_constant_any_size(self):
        for shape in ((64, 64), (100, 37), (7, 7), (1, 1)):
            out = downscale_gray64(np.full(shape, 128, dtype=np.uint8))
            assert out.shape == (64, 64)
            assert np.all(out == 128)

    def test_identity_64(self):
        rng = np.random.default_rng(4)
        frame = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
        np.testing.assert_array_equal(downscale_gray64(frame), frame)

    def test_checkerboard_rounds_half_up(self):
        yy, xx = np.mgrid[0:128, 0:128]
        board = (((yy + xx) % 2) * 255).astype(np.uint8)
        out = downscale_gray64(board)
        assert np.all(out == 128)  # 2x2 mean 127.5 rounds up

    def test_rgb_luma(self):
        frame = np.zeros((64, 64, 3), dtype=np.uint8)
        frame[..., 0] = 100
        frame[..., 1] = 50
        frame[..., 2] = 200
        want = int(np.floor(0.299 * 100 + 0.587 * 50 + 0.114 * 200 + 0.5))
        assert np.all(downscale_gray64(frame) == want)

    def test_block_average(self):
        # 128x128 with one bright 2x2 block -> single bright output pixel
        frame = np.zeros((128, 128), dtype=np.uint8)
        frame[10:12, 20:22] = 200
        out = downscale_gray64(frame)
        assert out[5, 10] == 200
        assert out.sum() == 200


class TestDctFeatures:
    def test_constant_frame_all_zero(self):
        out = dct_features(np.full((64, 64), 77, dtype=np.uint8))
        assert out.shape == (1024,)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_basis_image_projection(self):
        n = np.arange(64)
        basis = np.sqrt(2.0 / 64) * np.sqrt(1.0 / 64) * np.outer(
            np.cos((2 * n + 1) * 1 * np.pi / 128), np.ones(64))
        out = dct_features(255.0 * basis)
        want = np.zeros(1024)
        want[32] = 1.0  # row 1, col 0 of the 32x32 block
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            frame = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
            got = dct_features(frame)
            want = naive_dct2(frame / 255.0)[:32, :32].reshape(-1)
            want[0] = 0.0
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 255, size=(64, 64))
        b = rng.uniform(0, 255, size=(64, 64))
        lhs = dct_features(0.3 * a + 1.7 * b)
        rhs = 0.3 * dct_features(a) + 1.7 * dct_features(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_parseval_bound(self):
        rng = np.random.default_rng(7)
        frame = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
        out = dct_features(frame)
        assert np.sum(out ** 2) <= np.sum((frame / 255.0) ** 2) + 1e-9

    def test_wrong_shape(self):
        with pytest.raises(WrongDimensions):
            dct_features(np.zeros((32, 32)))


class TestDropAlternate:
    def test_even_count(self):
        seq = drop_alternate(np.arange(6)[:, None].astype(float))
        np.testing.assert_array_equal(seq.features[:, 0], [0, 2, 4])

    def test_odd_count(self):
        seq = drop_alternate(np.arange(7)[:, None].astype(float))
        np.testing.assert_array_equal(seq.features[:, 0], [0, 2, 4, 6])

    def test_single_frame(self):
        seq = drop_alternate(np.ones((1, 3)))
        assert seq.M == 1

    def test_twice_keeps_every_fourth(self):
        x = np.arange(13)[:, None].astype(float)
        twice = drop_alternate(drop_alternate(x).features)
        np.testing.assert_array_equal(twice.features[:, 0], [0, 4, 8, 12])


def reference_features(seq: FrameSequence) -> np.ndarray:
    """Per-frame chain that extract_features batches, in its original
    expressions: 25 fps, every second frame, area weights through uint8
    when the frame is not 64x64, one 2-D DCT per frame, DC zeroed."""
    rows = []
    for frame in resample_to_25fps(seq).frames[::2]:
        h, w = frame.shape
        if (h, w) != (64, 64):
            x = (ingest._area_weights(h, 64) @ frame.astype(np.float64)
                 @ ingest._area_weights(w, 64).T)
            frame = np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)
        coeffs = scipy.fft.dctn(frame.astype(np.float64) / 255.0, type=2,
                                norm="ortho")
        row = coeffs[:32, :32].reshape(-1).copy()
        row[0] = 0.0
        rows.append(row)
    return np.array(rows)


def _random_seq(n, h, w, fps, seed=0):
    rng = np.random.default_rng(seed)
    return make_seq(rng.integers(0, 256, size=(n, h, w)), fps=fps)


def _frames_past_a_block(h, w, fps):
    """Input frames at fps whose kept frames fill one block and part of the
    next."""
    return (fps * 2 * (ingest._BLOCK_PIXELS // max(h * w, 64 * 64))) // 25 + 7


_SEQS = {
    "synth": lambda: synth_video(21, 6),
    "crop start 1": lambda: make_seq(synth_video(22, 6).frames[1:90]),
    "crop start 7": lambda: make_seq(synth_video(22, 6).frames[7:120]),
    "crop start 51": lambda: make_seq(synth_video(23, 8).frames[51:151]),
    "30000/1001 fps": lambda: _random_seq(37, 64, 64, Fraction(30000, 1001)),
    "15 fps 48x80": lambda: _random_seq(40, 48, 80, 15),
    "50 fps 100x90 past a block": lambda: _random_seq(
        _frames_past_a_block(100, 90, 50), 100, 90, 50),
    "one frame": lambda: _random_seq(1, 64, 64, 25),
    "25 fps past a block": lambda: _random_seq(
        _frames_past_a_block(64, 64, 25), 64, 64, 25),
}


class TestExtractFeatures:
    @pytest.mark.parametrize("name", sorted(_SEQS))
    def test_bit_identical_to_per_frame_chain(self, name):
        seq = _SEQS[name]()
        got = extract_features(seq, "v")
        assert got.video_id == "v" and not got.normalized
        assert got.features.dtype == np.float64
        np.testing.assert_array_equal(got.features, reference_features(seq))

    @pytest.mark.parametrize("fps", [15, 24, 25, Fraction(30000, 1001), 50])
    def test_one_row_per_kept_frame(self, fps):
        for n in (1, 2, 37, 100):
            seq = _random_seq(n, 8, 8, fps, seed=n)
            keep = kept_frame_index(seq)
            assert len(extract_features(seq).features) == len(keep)
            np.testing.assert_array_equal(
                seq.frames[keep], resample_to_25fps(seq).frames[::2])

    def test_zero_pixel_frames(self):
        seq = FrameSequence(0, 4, Fraction(25), np.zeros((3, 4, 0), np.uint8))
        with pytest.raises(EmptyFrame):
            extract_features(seq)


class TestNormalization:
    def test_single_frame_floor(self):
        seq = FeatureSequence("v", np.array([[3.0, -1.0]]))
        stats = compute_norm_stats([seq])
        np.testing.assert_array_equal(stats.mean, [3.0, -1.0])
        np.testing.assert_array_equal(stats.std, [1e-8, 1e-8])

    def test_two_values(self):
        seq = FeatureSequence("v", np.array([[1.0], [3.0]]))
        stats = compute_norm_stats([seq])
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        seqs = [FeatureSequence(f"v{i}", rng.normal(2.0, 3.0, size=(n, 5)))
                for i, n in enumerate((4, 9, 2))]
        stats = compute_norm_stats(seqs)
        allr = np.concatenate([s.features for s in seqs])
        mean = allr.sum(axis=0) / len(allr)
        var = ((allr - mean) ** 2).sum(axis=0) / len(allr)
        np.testing.assert_allclose(stats.mean, mean, atol=1e-9)
        np.testing.assert_allclose(stats.std, np.sqrt(var), atol=1e-9)

    def test_normalize_centering_and_identity(self):
        stats = ingest.NormStats(mean=np.array([2.0, -1.0]),
                                 std=np.array([1.0, 1.0]))
        seq = FeatureSequence("v", np.tile([[2.0, -1.0]], (4, 1)))
        out = normalize(seq, stats)
        assert out.normalized
        np.testing.assert_array_equal(out.features, 0.0)
        ident = normalize(
            FeatureSequence("w", np.array([[5.0, 7.0]])),
            ingest.NormStats(mean=np.zeros(2), std=np.ones(2)))
        np.testing.assert_array_equal(ident.features, [[5.0, 7.0]])

    def test_train_set_self_normalization(self):
        rng = np.random.default_rng(9)
        seqs = [FeatureSequence(f"v{i}", rng.normal(5, 2, size=(n, 3)))
                for i, n in enumerate((10, 20, 5))]
        stats = compute_norm_stats(seqs)
        normed = np.concatenate([normalize(s, stats).features for s in seqs])
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.var(axis=0), 1.0, atol=1e-6)

    def test_denormalize_roundtrip(self):
        rng = np.random.default_rng(10)
        seqs = [FeatureSequence("v", rng.normal(size=(8, 4)))]
        stats = compute_norm_stats(seqs)
        out = normalize(seqs[0], stats)
        back = out.features * stats.std + stats.mean
        np.testing.assert_allclose(back, seqs[0].features, atol=1e-9)

    def test_errors(self):
        stats = ingest.NormStats(mean=np.zeros(2), std=np.ones(2))
        with pytest.raises(DimensionMismatch):
            normalize(FeatureSequence("v", np.ones((1, 3))), stats)
        seq = FeatureSequence("v", np.ones((1, 2)), normalized=True)
        with pytest.raises(DoubleNormalize):
            normalize(seq, stats)
        with pytest.raises(EmptyTrainSet):
            compute_norm_stats([])


class TestFeatFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        seq = FeatureSequence("clip", rng.normal(size=(6, 9)).astype(
            np.float32).astype(np.float64), normalized=True)
        path = tmp_path / "clip.feat"
        ingest.write_feat(seq, path)
        back = ingest.load_feat(path)
        assert back.video_id == "clip"
        assert back.normalized
        np.testing.assert_array_equal(back.features, seq.features)

    def test_norm_stats_roundtrip(self, tmp_path):
        stats = ingest.NormStats(
            mean=np.array([1.0, 2.0], dtype=np.float32).astype(np.float64),
            std=np.array([3.0, 4.0], dtype=np.float32).astype(np.float64))
        path = tmp_path / "s.nrm1"
        ingest.write_norm_stats(stats, path)
        back = ingest.load_norm_stats(path)
        np.testing.assert_array_equal(back.mean, stats.mean)
        np.testing.assert_array_equal(back.std, stats.std)

    def test_feat_trailing_bytes(self, tmp_path):
        path = tmp_path / "clip.feat"
        ingest.write_feat(FeatureSequence("clip", np.zeros((3, 4))), path)
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(MalformedFile):
            ingest.load_feat(path)

    def test_norm_stats_trailing_bytes(self, tmp_path):
        path = tmp_path / "s.nrm1"
        ingest.write_norm_stats(
            ingest.NormStats(mean=np.zeros(2), std=np.ones(2)), path)
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(MalformedFile):
            ingest.load_norm_stats(path)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_feat_rejected(self, tmp_path, shape):
        path = tmp_path / "clip.feat"
        ingest.write_feat(FeatureSequence("clip", np.zeros(shape)), path)
        with pytest.raises(MalformedFile):
            ingest.load_feat(path)

    def test_zero_dim_norm_stats_rejected(self, tmp_path):
        path = tmp_path / "s.nrm1"
        ingest.write_norm_stats(
            ingest.NormStats(mean=np.zeros(0), std=np.zeros(0)), path)
        with pytest.raises(MalformedFile):
            ingest.load_norm_stats(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, tmp_path, value):
        feats = np.zeros((3, 4))
        feats[1, 2] = value
        path = tmp_path / "clip.feat"
        ingest.write_feat(FeatureSequence("clip", feats), path)
        with pytest.raises(MalformedFile):
            ingest.load_feat(path)

    @pytest.mark.parametrize("mean, std", [
        ([np.nan, 0.0], [1.0, 1.0]),
        ([0.0, np.inf], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nan]),
        ([0.0, 0.0], [np.inf, 1.0]),
        ([0.0, 0.0], [1.0, 0.0]),
        ([0.0, 0.0], [-1.0, 1.0]),
    ], ids=["nan mean", "inf mean", "nan std", "inf std", "zero std",
            "negative std"])
    def test_bad_norm_stats_rejected(self, tmp_path, mean, std):
        path = tmp_path / "s.nrm1"
        ingest.write_norm_stats(
            ingest.NormStats(mean=np.array(mean), std=np.array(std)), path)
        with pytest.raises(MalformedFile):
            ingest.load_norm_stats(path)
