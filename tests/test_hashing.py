import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evhash.errors import BadRange, DataError, EmptyCodes, LengthMismatch
from evhash.hashing import (
    EventDetectConfig,
    VideoHash,
    detect_event_ends,
    emit_d_series,
    encoder_step_time,
    hash_video,
    load_video_hash,
    pool_events,
    sample_interval_steps,
    write_d_series_csv,
    write_video_hash,
)
from evhash.model import EncodeResult
from tests._reference import detect_event_ends_per_step, pool_event_hash, \
    pool_events_per_event


def detect_oracle(d_series, cfg, m_e):
    """Literal re-evaluation of the detection rule, step by step."""
    ends = []
    prev = 0
    for t in range(1, m_e):
        if m_e - t < cfg.min_event_len:
            continue  # too close to the final step: degenerate last event
        d = d_series[t - 1]
        hit = d >= cfg.hard_threshold
        if not hit and t - 1 >= cfg.window:
            window = d_series[t - 1 - cfg.window:t - 1]
            hit = d > cfg.multiplier * (sum(window) / cfg.window)
        if hit and t - prev >= cfg.min_event_len:
            ends.append(t)
            prev = t
    ends.append(m_e)
    return ends


def make_result(codes):
    codes = np.asarray(codes, dtype=np.uint8)
    d = (codes[1:] != codes[:-1]).sum(axis=1).astype(np.int64)
    gates = tuple(np.full(codes.shape, 0.5) for _ in range(3))
    return EncodeResult(codes=codes, d_series=d, gates=gates,
                        M_e=codes.shape[0])


def rand_codes(rng, m_e, L):
    return (rng.random((m_e, L)) > 0.5).astype(np.uint8)


CFG = EventDetectConfig(hard_threshold=4, window=3, multiplier=2.0,
                        min_event_len=2, pool_size=3)


class TestDetect:
    def test_constant_codes_single_event(self):
        res = make_result(np.ones((9, 8)))
        assert detect_event_ends(res.d_series, CFG, 9) == [9]

    def test_single_spike(self):
        d = np.zeros(9, dtype=int)
        d[4] = 8  # transition t=5 at full distance
        assert detect_event_ends(d, CFG, 10) == [5, 10]

    def test_matches_oracle_and_prefix_causality(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m_e = int(rng.integers(1, 40))
            d = rng.integers(0, 9, size=max(m_e - 1, 0))
            got = detect_event_ends(d, CFG, m_e)
            assert got == detect_oracle(list(d), CFG, m_e)
            # causality: a prefix detects exactly the full run's
            # non-final ends that are clear of its own final step
            for cut in range(1, m_e):
                pre = detect_event_ends(d[:cut - 1], CFG, cut)[:-1]
                assert pre == [e for e in got[:-1]
                               if e <= cut - CFG.min_event_len]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            detect_event_ends(np.zeros(3), CFG, 3)

    @settings(derandomize=True, deadline=None, max_examples=300,
              database=None)
    @given(m_e=st.integers(0, 90), seed=st.integers(0, 2**32 - 1),
           floats=st.booleans(), hard=st.integers(1, 12),
           window=st.integers(1, 12), multiplier=st.floats(0.25, 4.0),
           min_len=st.integers(1, 6))
    def test_equals_the_per_step_walk(self, m_e, seed, floats, hard, window,
                                      multiplier, min_len):
        cfg = EventDetectConfig(hard_threshold=hard, window=window,
                                multiplier=multiplier, min_event_len=min_len)
        rng = np.random.default_rng(seed)
        n = max(m_e - 1, 0)
        # sparse spikes over a low floor, as adjacent Hamming distances
        # are; float series as a continuous d
        d = rng.integers(0, 3, size=n) * rng.integers(1, 8, size=n)
        if floats:
            d = d * rng.uniform(0.2, 1.5, size=n)
        assert detect_event_ends(d, cfg, m_e) == \
            detect_event_ends_per_step(d, cfg, m_e)


class TestPooling:
    def test_per_bit_majority(self):
        codes = np.array([[1, 1, 0], [1, 0, 0], [1, 0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(
            pool_event_hash(codes, 3, 0, P=3), [1, 0, 0])

    def test_single_row_event(self):
        codes = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(
            pool_event_hash(codes, 2, 1, P=4), [1, 0, 1])

    def test_tie_votes_one(self):
        codes = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(
            pool_event_hash(codes, 4, 0, P=4), [1, 1])

    def test_window_limited_to_pool_size(self):
        codes = np.zeros((6, 1), dtype=np.uint8)
        codes[3:] = 1  # last P=3 rows decide
        np.testing.assert_array_equal(pool_event_hash(codes, 6, 0, P=3), [1])

    def test_bad_range(self):
        codes = np.zeros((3, 2), dtype=np.uint8)
        with pytest.raises(BadRange):
            pool_event_hash(codes, 4, 0, P=2)
        with pytest.raises(BadRange):
            pool_event_hash(codes, 2, 2, P=2)

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None)
    @given(m_e=st.integers(1, 40), L=st.integers(1, 20),
           P=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.0, 1.0))
    def test_equals_the_per_event_pool(self, m_e, L, P, seed, density):
        # ends at random steps, so events range from one row to far more
        # than P; even P and short events of even length give even splits
        rng = np.random.default_rng(seed)
        codes = rand_codes(rng, m_e, L)
        cut = np.flatnonzero(rng.random(m_e - 1) < density) + 1
        ends = [*cut.tolist(), m_e]
        np.testing.assert_array_equal(pool_events(codes, ends, P),
                                      pool_events_per_event(codes, ends, P))
        res = make_result(codes)
        cfg = EventDetectConfig(hard_threshold=max(1, L // 4), window=3,
                                min_event_len=2, pool_size=P)
        for mode in ("events", "sample", "sample_and_events"):
            vh = hash_video(res, mode, cfg, T_s=0.32 * (1 + seed % 5))
            np.testing.assert_array_equal(
                vh.events, pool_events_per_event(codes, vh.end_steps, P))


class TestStepTime:
    def test_values(self):
        assert encoder_step_time(1) == pytest.approx(0.32)
        assert encoder_step_time(25) == pytest.approx(8.0)

    def test_sampling_interval_rounds_half_away(self):
        assert sample_interval_steps(4.0) == 13  # 12.5 steps
        assert sample_interval_steps(8.0) == 25


class TestHashVideo:
    def test_sample_mode_end_steps(self):
        rng = np.random.default_rng(1)
        res = make_result(rand_codes(rng, 25, 8))
        vh = hash_video(res, "sample", CFG, T_s=4.0, video_id="v",
                        duration_seconds=8.0)
        np.testing.assert_array_equal(vh.end_steps, [13, 25])
        assert vh.E == 2

    def test_sample_and_events_densify(self):
        # a single event at step 26 with delta 13: gap from 0 is >= 26
        codes = np.ones((26, 8), dtype=np.uint8)
        res = make_result(codes)
        vh = hash_video(res, "sample_and_events", CFG, T_s=4.0, video_id="v")
        np.testing.assert_array_equal(vh.end_steps, [13, 26])

    @pytest.mark.parametrize("mode", ["sample", "sample_and_events"])
    @pytest.mark.parametrize("T_s", [0.159, 0.0, -1.0])
    def test_sampling_period_under_one_step(self, mode, T_s):
        res = make_result(np.zeros((12, 8)))
        with pytest.raises(BadRange):
            hash_video(res, mode, CFG, T_s=T_s)
        assert hash_video(res, mode, CFG, T_s=0.16).E == 12

    def test_events_mode_constant(self):
        res = make_result(np.zeros((12, 8)))
        vh = hash_video(res, "events", CFG)
        assert vh.E == 1
        np.testing.assert_array_equal(vh.end_steps, [12])

    def test_superset_and_gap_bound(self):
        rng = np.random.default_rng(2)
        delta = sample_interval_steps(4.0)
        for _ in range(20):
            res = make_result(rand_codes(rng, int(rng.integers(2, 80)), 8))
            ev = hash_video(res, "events", CFG)
            se = hash_video(res, "sample_and_events", CFG, T_s=4.0)
            assert set(ev.end_steps) <= set(se.end_steps)
            gaps = np.diff(np.concatenate([[0], se.end_steps]))
            assert np.all(gaps < 2 * delta)

    def test_end_steps_increase_and_terminate(self):
        rng = np.random.default_rng(3)
        for mode in ("events", "sample", "sample_and_events"):
            for _ in range(10):
                m_e = int(rng.integers(1, 60))
                res = make_result(rand_codes(rng, m_e, 8))
                vh = hash_video(res, mode, CFG, T_s=4.0)
                assert vh.end_steps[-1] == m_e
                assert np.all(np.diff(vh.end_steps) > 0)
                assert vh.E >= 1
                assert vh.events.shape == (vh.E, 8)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        res = make_result(rand_codes(rng, 30, 8))
        a = hash_video(res, "events", CFG)
        b = hash_video(res, "events", CFG)
        np.testing.assert_array_equal(a.events, b.events)
        np.testing.assert_array_equal(a.end_steps, b.end_steps)

    def test_event_modes_follow_changes_made_in_place(self):
        # hash_video keeps its last detection, under a copy of the series
        res = make_result(np.zeros((20, 8)))
        cfg = EventDetectConfig(hard_threshold=4, window=3, multiplier=2.0,
                                min_event_len=2, pool_size=3)
        assert hash_video(res, "events", cfg).E == 1
        res.d_series[9] = 8  # a spike at step 10
        for mode in ("events", "sample_and_events"):
            np.testing.assert_array_equal(
                hash_video(res, mode, cfg, T_s=8.0).end_steps, [10, 20])
        cfg.hard_threshold = 9  # above the spike, with no full window
        cfg.window = 20
        assert hash_video(res, "events", cfg).E == 1

    def test_total_bits(self):
        rng = np.random.default_rng(5)
        res = make_result(rand_codes(rng, 40, 8))
        vh = hash_video(res, "events", CFG)
        assert vh.events.size == vh.E * vh.L

    def test_empty_codes(self):
        res = EncodeResult(codes=np.zeros((0, 4), dtype=np.uint8),
                           d_series=np.zeros(0, dtype=np.int64),
                           gates=(np.zeros((0, 4)),) * 3, M_e=0)
        with pytest.raises(EmptyCodes):
            hash_video(res, "events", CFG)


class TestDServiesEmit:
    def test_single_step_header_only(self, tmp_path):
        res = make_result(np.ones((1, 4)))
        assert emit_d_series(res, CFG) == []
        path = tmp_path / "d.csv"
        write_d_series_csv(res, path, CFG)
        assert path.read_text().strip() == "step,d_t,is_event_end"

    def test_spike_flagged(self):
        d_codes = np.zeros((10, 8), dtype=np.uint8)
        d_codes[5:] = 1  # one full-distance transition at t=5
        res = make_result(d_codes)
        rows = emit_d_series(res, CFG)
        assert len(rows) == 9
        flagged = [t for t, _, f in rows if f]
        assert flagged == [5]

    def test_row_count(self):
        rng = np.random.default_rng(6)
        for m_e in (1, 2, 7, 30):
            res = make_result(rand_codes(rng, m_e, 4))
            assert len(emit_d_series(res, CFG)) == m_e - 1


class TestTextForm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        res = make_result(rand_codes(rng, 30, 12))
        vh = hash_video(res, "sample_and_events", CFG, T_s=4.0,
                        video_id="clip with spaces", duration_seconds=9.6)
        path = tmp_path / "x.vh"
        write_video_hash(vh, path)
        back = load_video_hash(path)
        assert back.video_id == vh.video_id
        assert back.mode == vh.mode
        assert back.L == vh.L
        assert back.duration_seconds == vh.duration_seconds
        np.testing.assert_array_equal(back.events, vh.events)
        np.testing.assert_array_equal(back.end_steps, vh.end_steps)

    @pytest.mark.parametrize("ends", [np.arange(1, 4), np.arange(1, 7),
                                      np.arange(1, 6)[None]])
    def test_end_steps_must_match_the_events(self, ends):
        # three end steps for five events would be written as three lines
        with pytest.raises(LengthMismatch, match="5 events need 5 end"):
            VideoHash("v", 8, np.zeros((5, 8), np.uint8), ends, "events",
                      1.0)


VH_HEADER = "# evhash-vh 1 mode=events L=12 duration=9.6 id=clip\n"

# Malformed .vh texts, each a DataError on load: a valid file is
# VH_HEADER followed by "end_step hexcode" lines of ceil(12/8) = 2 bytes.
BAD_VH = {
    "short header": "# evhash-vh 1 mode=events L=12\n3 0a0b\n",
    "no header values": "# evhash-vh 1\n3 0a0b\n",
    "field names": "# evhash-vh 1 mode=events N=12 duration=9.6 id=x\n"
                   "3 0a0b\n",
    "bad L": VH_HEADER.replace("L=12", "L=twelve") + "3 0a0b\n",
    "L zero": VH_HEADER.replace("L=12", "L=0") + "3 0a0b\n",
    "unknown mode": VH_HEADER.replace("mode=events", "mode=shots")
                    + "3 0a0b\n",
    "nan duration": VH_HEADER.replace("9.6", "nan") + "3 0a0b\n",
    "infinite duration": VH_HEADER.replace("9.6", "inf") + "3 0a0b\n",
    "bad hex": VH_HEADER + "3 0a0b\n6 zz0b\n",
    "bad step": VH_HEADER + "three 0a0b\n",
    "extra field": VH_HEADER + "3 0a0b 7\n",
    "short code": VH_HEADER + "3 0a0b\n6 0a\n",
    "long code": VH_HEADER + "3 0a0b0c\n",
    "ends not increasing": VH_HEADER + "3 0a0b\n3 0a0b\n",
}


class TestTextFormErrors:
    def test_valid_text_loads(self, tmp_path):
        path = tmp_path / "ok.vh"
        path.write_text(VH_HEADER + "3 0a0b\n6 ff0f\n")
        vh = load_video_hash(path)
        assert (vh.video_id, vh.mode, vh.L, vh.duration_seconds) == \
            ("clip", "events", 12, 9.6)
        np.testing.assert_array_equal(vh.end_steps, [3, 6])
        np.testing.assert_array_equal(vh.events[1], [1] * 12)
        np.testing.assert_array_equal(vh.events[0][:4], [0, 1, 0, 1])

    @pytest.mark.parametrize("case", sorted(BAD_VH))
    def test_malformed_text_is_data_error(self, tmp_path, case):
        path = tmp_path / "bad.vh"
        path.write_text(BAD_VH[case])
        with pytest.raises(DataError):
            load_video_hash(path)

    def test_no_events_is_empty_codes(self, tmp_path):
        path = tmp_path / "bad.vh"
        path.write_text(VH_HEADER + "\n")
        with pytest.raises(EmptyCodes):
            load_video_hash(path)

    def test_binary_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.vh"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe" + bytes(range(256)))
        with pytest.raises(DataError):
            load_video_hash(path)
