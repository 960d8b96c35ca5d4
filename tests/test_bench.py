import csv

import numpy as np
import pytest

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
from evhash.ingest import compute_norm_stats, extract_features
from evhash.model import build_model
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
        # each copy is encoded on its own, so the slide = 2 (mod 4) report
        # must equal a whole evaluation of those copies alone
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
