import csv
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from evhash import bench
from evhash import model as model_mod
from evhash.bench import (
    BUCKET_LABELS,
    CopySpec,
    ahl,
    crop_frames,
    duration_bucket,
    load_copies_csv,
    make_copies,
    run_eval,
    synth_video,
    topk_accuracy,
    write_copies_csv,
    write_report_csvs,
)
from evhash.errors import OutOfRange, TooShort, ZeroDuration
from evhash.hashing import EventDetectConfig, VideoHash, hash_video
from evhash.index import HashDatabase, db_add, query_topk
from evhash.ingest import (
    FrameSequence,
    compute_norm_stats,
    extract_features,
    normalize,
)
from evhash.model import build_model, encode, encode_batch
from tests.test_hashing import make_result


def copies_bruteforce(t_fv):
    """Filter every integer triple against the copy-spec invariants."""
    found = set()
    for t_c in range(4, t_fv + 1, 4):
        for slide in range(0, t_fv, 2):
            if slide + t_c > t_fv:
                continue
            for start in range(slide, t_fv):
                if (start - slide) % t_c == 0 and start + t_c <= t_fv:
                    found.add((t_c, slide, start))
    return found


class TestSynthVideo:
    def test_frame_count(self):
        seq = synth_video(1, 20)
        assert len(seq.frames) == 500
        assert seq.frames.shape[1:] == (64, 64)

    def test_deterministic(self):
        a = synth_video(7, 12)
        b = synth_video(7, 12)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_seeds_differ(self):
        a = synth_video(1, 8)
        b = synth_video(2, 8)
        assert a.frames.tobytes() != b.frames.tobytes()

    def test_too_short(self):
        with pytest.raises(TooShort):
            synth_video(0, 3)

    def test_peak_memory(self):
        # the uint8 frames (5.9 MB here) and one float64 shot buffer; shots
        # rendered into arrays of their own and then concatenated peaked at
        # 140.6 MB
        tracemalloc.start()
        try:
            synth_video(11, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20, f"synth_video peaked at {peak} bytes"


class TestMakeCopies:
    def test_hand_enumeration_tfv10(self):
        specs = [s for s in make_copies(10) if s.T_c == 4]
        starts = {}
        for s in specs:
            starts.setdefault(s.slide, []).append(s.start)
        assert starts == {0: [0, 4], 2: [2, 6], 4: [4], 6: [6]}
        assert len(specs) == 6

    def test_boundary_single_copy(self):
        specs = make_copies(4)
        assert len(specs) == 1
        s = specs[0]
        assert (s.T_c, s.slide, s.start) == (4, 0, 0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for t_fv in rng.integers(4, 90, size=20):
            specs = make_copies(int(t_fv))
            got = {(s.T_c, s.slide, s.start) for s in specs}
            assert len(got) == len(specs)
            assert got == copies_bruteforce(int(t_fv))

    def test_intervals_disjoint_per_slide(self):
        for spec_group in ((12, 4, 0), (40, 8, 2)):
            t_fv, t_c, slide = spec_group
            starts = [s.start for s in make_copies(t_fv)
                      if s.T_c == t_c and s.slide == slide]
            assert starts == sorted(starts)
            for a, b in zip(starts, starts[1:]):
                assert a + t_c <= b

    def test_too_short(self):
        with pytest.raises(TooShort):
            make_copies(3)

    def test_csv_roundtrip(self, tmp_path):
        specs = make_copies(12, source_id="vid")
        path = tmp_path / "copies.csv"
        write_copies_csv(specs, path)
        assert load_copies_csv(path) == specs


class TestCropFrames:
    def test_full_length_identity(self):
        seq = synth_video(3, 8)
        out = crop_frames(seq, CopySpec("v", 0, 0, 8, 8))
        assert out.frames.tobytes() == seq.frames.tobytes()

    def test_start_index(self):
        seq = synth_video(4, 8)
        out = crop_frames(seq, CopySpec("v", 2, 2, 4, 8))
        assert out.frames.tobytes() == seq.frames[50:150].tobytes()

    def test_composition(self):
        seq = synth_video(5, 16)
        outer = crop_frames(seq, CopySpec("v", 4, 4, 12, 16))
        inner = crop_frames(outer, CopySpec("v", 0, 4, 4, 12))
        direct = crop_frames(seq, CopySpec("v", 8, 8, 4, 16))
        assert inner.frames.tobytes() == direct.frames.tobytes()

    def test_out_of_range(self):
        seq = synth_video(6, 8)
        with pytest.raises(OutOfRange):
            crop_frames(seq, CopySpec("v", 6, 6, 4, 12))

    def test_read_only_view_of_the_source(self):
        seq = synth_video(7, 8)
        before = seq.frames.copy()
        out = crop_frames(seq, CopySpec("v", 2, 2, 4, 8))
        assert np.shares_memory(out.frames, seq.frames)
        with pytest.raises(ValueError):
            out.frames[0, 0, 0] = 1
        assert seq.frames.flags.writeable
        seq.frames[50, 0, 0] ^= 1  # the source stays writeable
        seq.frames[50, 0, 0] ^= 1
        np.testing.assert_array_equal(seq.frames, before)


class TestFrameRange:
    @staticmethod
    def seq(fps, n):
        return FrameSequence(1, 1, fps, np.zeros((n, 1, 1), np.uint8))

    @pytest.mark.parametrize("fps, want", [
        (24, (96, 192)), (25, (100, 200)), (15, (60, 120)),
        (Fraction(30000, 1001), None)])
    def test_whole_frame_bounds(self, fps, want):
        spec = CopySpec("v", 0, 4, 4, 12)
        seq = self.seq(fps, 360)
        if want is None:  # 4 s is 119.88 frames at 29.97 fps
            with pytest.raises(OutOfRange, match="frame boundaries"):
                spec.frame_range(seq)
        else:
            assert spec.frame_range(seq) == want

    def test_ntsc_bounds_on_the_frame_grid(self):
        # 1001 s is exactly 30000 frames at 30000/1001 fps
        seq = self.seq(Fraction(30000, 1001), 30000)
        spec = CopySpec("v", 0, 0, 1001, 1001)
        assert spec.frame_range(seq) == (0, 30000)

    def test_off_the_grid_of_a_fractional_rate(self):
        seq = self.seq(Fraction(25, 2), 200)
        assert CopySpec("v", 0, 8, 4, 12).frame_range(seq) == (100, 150)
        with pytest.raises(OutOfRange, match="frame boundaries"):
            CopySpec("v", 0, 5, 5, 15).frame_range(seq)  # 62.5 frames

    def test_past_the_end(self):
        spec = CopySpec("v", 0, 4, 4, 12)
        assert spec.frame_range(self.seq(25, 200)) == (100, 200)
        with pytest.raises(OutOfRange, match="outside 199 frames"):
            spec.frame_range(self.seq(25, 199))


class TestMetrics:
    def test_topk_counting(self):
        ranked = [("a", ["a"] + ["x"] * 9),
                  ("b", ["x", "x", "x", "b"] + ["y"] * 6),
                  ("c", ["x"] * 10)]
        assert topk_accuracy(ranked, 5) == pytest.approx(2 / 3)
        assert topk_accuracy(ranked, 1) == pytest.approx(1 / 3)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        ids = [f"v{i}" for i in range(12)]
        results = []
        for _ in range(40):
            perm = list(rng.permutation(ids))
            results.append((ids[int(rng.integers(0, 12))], perm))
        accs = [topk_accuracy(results, k) for k in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_empty_is_nan(self):
        assert np.isnan(topk_accuracy([], 5))

    def test_ahl_definition(self):
        vh = VideoHash("v", 64, np.zeros((1, 64), dtype=np.uint8),
                       np.array([4]), "events", 5.0)
        assert ahl(vh) == pytest.approx(64.0)

    def test_ahl_sample_40s(self):
        # 40 s at 25 fps: 1000 frames -> M=500 -> M_e=125 -> 10 codes
        codes = (np.random.default_rng(2).random((125, 64)) > 0.5)
        res = make_result(codes.astype(np.uint8))
        vh = hash_video(res, "sample", EventDetectConfig(), T_s=4.0,
                        video_id="v", duration_seconds=40.0)
        assert vh.E == 10
        assert ahl(vh) == pytest.approx(80.0)

    def test_ahl_halves_with_duration(self):
        e = np.zeros((2, 8), dtype=np.uint8)
        a = VideoHash("v", 8, e, np.array([1, 2]), "events", 5.0)
        b = VideoHash("v", 8, e, np.array([1, 2]), "events", 10.0)
        assert ahl(a) == pytest.approx(2 * ahl(b))

    def test_zero_duration(self):
        vh = VideoHash("v", 8, np.zeros((1, 8), dtype=np.uint8),
                       np.array([1]), "events", 0.0)
        with pytest.raises(ZeroDuration):
            ahl(vh)

    def test_buckets(self):
        assert duration_bucket(5) == 0
        assert BUCKET_LABELS[duration_bucket(12)] == "10-15"
        assert BUCKET_LABELS[duration_bucket(50)] == ">50"
        assert BUCKET_LABELS[duration_bucket(49.9)] == "45-50"


@pytest.fixture(scope="module")
def eval_setup():
    videos = [synth_video(10 + i, 8) for i in range(3)]
    ids = [f"vid{i}" for i in range(3)]
    feats = [extract_features(v, i) for v, i in zip(videos, ids)]
    stats = compute_norm_stats(feats)
    model = build_model(D=1024, L=16, encoder_dims=(12, 12, 8), seed=3)
    return videos, ids, model, stats


class TestRunEval:

    def test_self_retrieval_and_structure(self, eval_setup, tmp_path):
        videos, ids, model, stats = eval_setup
        # full-length copies only: every query is its own source
        copies = [CopySpec(vid, 0, 0, 8, 8) for vid in ids]
        report = run_eval(videos, ids, model, stats, copies=copies)
        for mode in report.modes:
            assert report.topk[mode][0] == pytest.approx(1.0)
            accs = report.topk[mode]
            assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
        paths = write_report_csvs(report, tmp_path)
        assert len(paths) == 4
        with open(tmp_path / "report.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["mode", "k", "accuracy"]
        assert len(rows) == 1 + 3 * 10
        with open(tmp_path / "buckets.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 3 * len(BUCKET_LABELS)

    def test_empty_queries_nan(self, eval_setup):
        videos, ids, model, stats = eval_setup
        report = run_eval(videos, ids, model, stats, copies=[])
        assert report.query_count == 0
        for mode in report.modes:
            assert all(np.isnan(a) for a in report.topk[mode])

    def test_restricted_report_is_the_report_of_its_copies(self, eval_setup):
        # a copy's codes do not depend on the copies that share its encode
        # pass, so the slide = 2 (mod 4) report must equal a whole
        # evaluation of those copies alone
        videos, ids, model, stats = eval_setup
        copies = [spec for seq, vid in zip(videos, ids)
                  for spec in make_copies(int(seq.duration_seconds),
                                          source_id=vid)]
        full = run_eval(videos, ids, model, stats, copies=copies)
        only = run_eval(videos, ids, model, stats,
                        copies=[s for s in copies if s.slide % 4 == 2])
        assert 0 < only.query_count == full.query_count_restricted \
            < full.query_count
        np.testing.assert_equal(only.topk, full.topk_restricted)
        np.testing.assert_equal(only.buckets, full.buckets_restricted)
        np.testing.assert_equal(only.topk_restricted, only.topk)


def reference_eval(videos, ids, model, stats, copies,
                   modes=("events", "sample", "sample_and_events"),
                   T_s=4.0):
    """``run_eval`` with a fresh ingest of every crop: the (topk, buckets,
    topk_restricted, buckets_restricted) tables of each mode."""
    cfg = EventDetectConfig(hard_threshold=max(1, model.L // 4))
    by_id = dict(zip(ids, videos))
    durations = {vid: float(seq.duration_seconds)
                 for vid, seq in by_id.items()}
    dbs = {mode: HashDatabase(model.L, mode) for mode in modes}
    hashes = {mode: {} for mode in modes}
    for vid, seq in by_id.items():
        enc = encode(normalize(extract_features(seq, vid), stats), model)
        for mode in modes:
            hashes[mode][vid] = hash_video(enc, mode, cfg, T_s, vid,
                                           durations[vid])
            db_add(dbs[mode], hashes[mode][vid])
    results = {mode: [] for mode in modes}
    for qi, spec in enumerate(copies):
        crop = crop_frames(by_id[spec.source_id], spec)
        enc = encode(normalize(extract_features(crop), stats), model)
        for mode in modes:
            vh = hash_video(enc, mode, cfg, T_s, f"q{qi}", float(spec.T_c))
            ranked = [vid for vid, _ in
                      query_topk(dbs[mode], vh, bench.K_MAX)]
            results[mode].append((spec.source_id, ranked))
    tables = {}
    for mode in modes:
        kept = [r for r, spec in zip(results[mode], copies)
                if spec.slide % 4 == 2]
        tables[mode] = (
            *bench._summary(results[mode], hashes[mode], durations),
            *bench._summary(kept, hashes[mode], durations))
    return tables


class TestCropFeatures:
    """``run_eval`` gives a copy its source's rows where it can; they must
    be the rows a fresh ingest of the crop gives."""

    @staticmethod
    def spy_encodes(monkeypatch):
        """Record every item given to ``bench.encode`` and, per call, the
        items given to ``bench.encode_batch``."""
        singles, batches = [], []

        def spy_encode(feats, net):
            singles.append(feats)
            return encode(feats, net)

        def spy_encode_batch(seqs, net):
            batches.append(list(seqs))
            return encode_batch(seqs, net)

        monkeypatch.setattr(bench, "encode", spy_encode)
        monkeypatch.setattr(bench, "encode_batch", spy_encode_batch)
        return singles, batches

    @pytest.mark.parametrize("fps", [25, 24, 15])
    def test_rows_equal_a_fresh_ingest(self, eval_setup, monkeypatch, fps):
        _, _, model, stats = eval_setup
        source = synth_video(40 + fps, 20, fps=fps)
        odd = CopySpec("src", 0, 5, 5, 20)  # starts on an odd second
        copies = make_copies(20, source_id="src") + [odd]
        singles, batches = self.spy_encodes(monkeypatch)
        ingested = []

        def spy_extract(seq, video_id=""):
            ingested.append(video_id)
            return extract_features(seq, video_id)

        monkeypatch.setattr(bench, "extract_features", spy_extract)
        run_eval([source], ["src"], model, stats, copies=copies,
                 modes=("events",))
        assert singles[0].video_id == "src"
        items = singles[1:] + [f for batch in batches for f in batch]
        keys = []
        for got in items:
            spec = copies[int(got.video_id.split(":q")[1])]
            keys.append((spec.start, spec.T_c))
            want = normalize(extract_features(crop_frames(source, spec)),
                             stats).features
            assert got.normalized
            assert got.features.dtype == want.dtype
            assert got.features.shape == want.shape
            assert got.features.tobytes() == want.tobytes()
        # every crop is encoded once, though 19 of them repeat under
        # another slide
        assert len(copies) - len(keys) == 19
        assert sorted(keys) == sorted({(s.start, s.T_c) for s in copies})
        # the source's ingest, then the odd copy's fallback only
        assert ingested == ["src", f"src:q{len(copies) - 1}"]
        assert [f.video_id for f in singles[1:]] == \
            [f"src:q{len(copies) - 1}"]

    def test_passes_across_sources_equal_a_fresh_ingest(self, eval_setup,
                                                        monkeypatch):
        videos, ids, model, stats = eval_setup
        videos, ids = videos + [synth_video(13, 12)], ids + ["vid3"]
        per_source = [make_copies(int(v.duration_seconds), source_id=vid)
                      for v, vid in zip(videos, ids)]
        copies = [spec for group in itertools.zip_longest(*per_source)
                  for spec in group if spec is not None]
        copies[5:5] = [CopySpec("vid3", 0, 5, 5, 12)]  # an odd start
        copies += copies[:4] + [copies[5]]             # repeated crops
        monkeypatch.setattr(model_mod, "_ENCODE_ROWS", 120)
        singles, batches = self.spy_encodes(monkeypatch)
        report = run_eval(videos, ids, model, stats, copies=copies)
        monkeypatch.undo()
        # passes under the cap (a 150-row crop runs alone), some of them
        # with crops of several sources
        assert len(batches) > 3
        assert all(sum(f.M for f in b) <= 120 for b in batches if len(b) > 1)
        assert any(len({f.video_id.split(":")[0] for f in b}) > 1
                   for b in batches)
        encoded = [f.video_id for f in singles[len(videos):]] + [
            f.video_id for b in batches for f in b]
        crops = [copies[int(vid.split(":q")[1])] for vid in encoded]
        assert len(crops) == len({(s.source_id, s.start, s.T_c)
                                  for s in copies})
        assert encoded[0] == "vid3:q5"
        want = reference_eval(videos, ids, model, stats, copies)
        for mode in report.modes:
            np.testing.assert_equal(
                (report.topk[mode], report.buckets[mode],
                 report.topk_restricted[mode],
                 report.buckets_restricted[mode]), want[mode])

    def test_reports_equal_a_fresh_ingest_of_every_crop(self, eval_setup):
        videos, ids, model, stats = eval_setup
        copies = [spec for seq, vid in zip(videos, ids)
                  for spec in make_copies(int(seq.duration_seconds),
                                          source_id=vid)]
        report = run_eval(videos, ids, model, stats, copies=copies)
        want = reference_eval(videos, ids, model, stats, copies)
        for mode in report.modes:
            np.testing.assert_equal(
                (report.topk[mode], report.buckets[mode],
                 report.topk_restricted[mode],
                 report.buckets_restricted[mode]), want[mode])
