"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two long criteria
(the finite-difference gradient check and the 200-epoch toy train) carry
the ``slow`` marker; everything else completes in seconds.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import evhash.model
from evhash import autodiff as ad
from evhash.bench import (
    BUCKET_LABELS,
    ahl,
    make_copies,
    run_eval,
    synth_video,
)
from evhash.hashing import EventDetectConfig, hash_video
from evhash.index import HashDatabase, db_add, query_topk, unpack_codes
from evhash.hashing import VideoHash
from evhash.ingest import (
    FeatureSequence,
    compute_norm_stats,
    dct_features,
    extract_features,
    normalize,
)
from evhash.losses import (
    TrainConfig,
    batch_loss,
    diversity_loss,
    memory_loss,
    train,
)
from evhash.model import (
    Layout,
    build_model,
    encode,
    encoder_len,
    forward_batch_train,
    _encoder,
)

from tests._reference import grad_check, sgn_surrogate
from tests.test_losses import diversity_oracle, memory_loss_oracle
from tests.test_model import freeze_to_plain_lstm, plain_encoder_oracle


def _ok(num, text):
    print(f"\nPASS  criterion {num:2d}: {text}")


# -- 1 ---------------------------------------------------------------------


def test_c01_dct_matches_naive_oracle():
    """100 random frames vs the direct O(N^4) DCT-II summation."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    frames = rng.integers(0, 256, size=(100, 64, 64)).astype(np.uint8)
    got = np.stack([dct_features(f) for f in frames])
    assert np.all(got[:, 0] == 0.0)

    # oracle: per coefficient (u, v), the full double sum over .every pixel
    n = np.arange(64)
    reals = frames / 255.0
    want = np.empty((100, 1024))
    for u in range(32):
        cu = np.sqrt((1.0 if u == 0 else 2.0) / 64)
        cos_u = np.cos((2 * n + 1) * u * np.pi / 128)
        for v in range(32):
            cv = np.sqrt((1.0 if v == 0 else 2.0) / 64)
            cos_v = np.cos((2 * n + 1) * v * np.pi / 128)
            want[:, 32 * u + v] = cu * cv * np.einsum(
                "fij,i,j->f", reals, cos_u, cos_v)
    want[:, 0] = 0.0
    np.testing.assert_allclose(got, want, atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(1, f"DCT matches the naive O(N^4) oracle on 100 frames "
           f"({elapsed:.2f}s)")


# -- 2 ---------------------------------------------------------------------


def _tiny_checkable_model(seed=0, eps=1e-2):
    """The criterion's tiny config at a well-conditioned parameter point.

    The check needs O(1) batch variances (B=2 batch norm has curvature
    ~eps^-1.5, which at the cold init breaks h=1e-4 central differences)
    and pre-binarization activations clear of 0 and +-1.
    """
    model = build_model(D=8, L=4, encoder_dims=(6, 6, 4), seed=seed, eps=eps)
    rng = np.random.default_rng(seed + 1000)
    for cell in model.cells:
        cell.W_h.value[...] = rng.normal(scale=0.5 / np.sqrt(cell.d_h),
                                         size=cell.W_h.value.shape)
        cell.W_x.value[...] = rng.normal(scale=0.5 / np.sqrt(cell.d_x),
                                         size=cell.W_x.value.shape)
        cell.b.value[...] = rng.normal(scale=0.2, size=cell.b.value.shape)
        for g in (cell.gamma_h, cell.gamma_x, cell.gamma_c):
            g.value[...] = rng.uniform(0.6, 1.0, size=g.value.shape)
        cell.beta_c.value[...] = rng.normal(scale=0.2,
                                            size=cell.beta_c.value.shape)
        cell.h0.value[...] = rng.normal(scale=0.3, size=cell.h0.value.shape)
        cell.c0.value[...] = rng.normal(scale=0.3, size=cell.c0.value.shape)
    rng2 = np.random.default_rng(seed + 2000)
    seqs = [FeatureSequence(f"v{i}", rng2.normal(size=(12, 8)),
                            normalized=True) for i in range(2)]
    return model, seqs


@pytest.mark.slow
def test_c02_gradient_check_full_model(monkeypatch):
    """Analytic gradients of the total loss vs central differences."""
    t0 = time.perf_counter()
    model, seqs = _tiny_checkable_model()

    # precondition: activations feeding the binarizer stay away from the
    # sign flip at 0 and the straight-through mask edge at |h| = 1
    fwd = forward_batch_train(seqs, model)
    prebin = ad.val(fwd.prebin).ravel()
    assert np.abs(prebin).min() > 1e-3
    assert np.abs(np.abs(prebin) - 1.0).min() > 1e-3

    # the clipped-identity surrogate has the sign's gradient and a
    # continuous forward, so the whole loss is finite-difference checkable
    monkeypatch.setattr(evhash.model, "sgn_ste", sgn_surrogate)

    def loss_fn():
        return batch_loss(model, seqs, th=1)[0]

    err = grad_check(loss_fn, model.parameters(), h=1e-4)
    elapsed = time.perf_counter() - t0
    assert err <= 1e-3, f"max relative error {err:.3e}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(2, f"gradient check max relative error {err:.2e} <= 1e-3 "
           f"({elapsed:.0f}s)")


# -- 3 ---------------------------------------------------------------------


def test_c03_bn_training_statistics():
    # bn_normalize is the normalization every BN site of the fused layer
    # runs in training, with the sites' default eps
    from evhash.numerics import BNSiteStats, bn_normalize

    rng = np.random.default_rng(3)
    worst_mean, worst_var = 0.0, 0.0
    for trial in range(50):
        d = int(rng.integers(2, 40))
        b = int(rng.integers(16, 64))
        rng.integers(1, 12)  # drawn to keep the criterion's 50 batches fixed
        h = rng.normal(rng.normal(), rng.uniform(0.8, 3.0), size=(b, d))
        out = bn_normalize(h, BNSiteStats(d).eps)[0]
        worst_mean = max(worst_mean, float(np.abs(out.mean(axis=0)).max()))
        worst_var = max(worst_var, float(np.abs(out.var(axis=0) - 1.0).max()))
    assert worst_mean <= 1e-9
    assert worst_var <= 1e-4
    _ok(3, f"BN training stats: |mean| <= {worst_mean:.1e}, "
           f"|var-1| <= {worst_var:.1e} over 50 batches")


# -- 4 ---------------------------------------------------------------------


def test_c04_plain_lstm_reduction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for draw in range(20):
        model = build_model(D=7, L=4, encoder_dims=(6, 5, 4),
                            seed=400 + draw)
        for p in model.parameters():
            p.value[...] = rng.normal(scale=0.4, size=p.value.shape)
        freeze_to_plain_lstm(model)
        X = rng.normal(size=(int(rng.integers(4, 30)), 7))
        _, got, _ = _encoder(model, X, Layout([len(X)]), "running")
        want = plain_encoder_oracle(model, X)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-6
    _ok(4, f"BNLSTM stack equals textbook LSTM to {worst:.1e} "
           f"over 20 weight draws")


# -- 5 ---------------------------------------------------------------------


def test_c05_loss_bounds_and_oracles():
    rng = np.random.default_rng(5)
    L = 6
    worst_mem = 0.0
    for _ in range(10_000):
        m_e = int(rng.integers(1, 9))
        gates = tuple(rng.uniform(0, 1, size=(m_e, L)) for _ in range(3))
        d = rng.integers(0, L + 1, size=max(m_e - 1, 0))
        th = int(rng.integers(1, L + 1))
        got = float(memory_loss(gates, d, th, L))
        assert 0.0 <= got <= 1.0
        if m_e > 1:
            worst_mem = max(worst_mem, abs(
                got - memory_loss_oracle(*gates, d, th, L)))
        if np.all(d == 0):
            assert got == 0.0
    # memory loss is exactly zero on an all-zero distance series
    gates = tuple(rng.uniform(0, 1, size=(6, L)) for _ in range(3))
    assert float(memory_loss(gates, np.zeros(5, dtype=int), 3, L)) == 0.0

    worst_div = 0.0
    for _ in range(10_000):
        b = int(rng.integers(2, 5))
        codes = [np.where(rng.random((int(rng.integers(1, 7)), L)) > 0.5,
                          1.0, -1.0) for _ in range(b)]
        got = float(diversity_loss(codes, L))
        assert 0.0 <= got <= 1.0
        worst_div = max(worst_div, abs(got - diversity_oracle(codes, L)))
    assert worst_mem <= 1e-9
    assert worst_div <= 1e-9
    _ok(5, f"loss bounds + oracles over 10k trials each "
           f"(mem err {worst_mem:.1e}, div err {worst_div:.1e})")


# -- 6 ---------------------------------------------------------------------


@pytest.mark.slow
def test_c06_prefix_stability():
    model = build_model(D=1024, L=64, encoder_dims=(32, 32, 16), seed=11)
    videos = [synth_video(500 + i, 4 + (i % 7)) for i in range(50)]
    feats = [extract_features(v, f"v{i}") for i, v in enumerate(videos)]
    stats = compute_norm_stats(feats)
    cfg = EventDetectConfig()
    prefixes = 0
    event_checks = 0
    for seq in (normalize(f, stats) for f in feats):
        full = encode(seq, model)
        full_hash = hash_video(full, "events", cfg, video_id=seq.video_id)
        for m in range(1, seq.M + 1):
            part = encode(FeatureSequence(seq.video_id, seq.features[:m],
                                          normalized=True), model)
            shared = m // 4  # stride-aligned steps common to both runs
            np.testing.assert_array_equal(part.codes[:shared],
                                          full.codes[:shared])
            ph = hash_video(part, "events", cfg, video_id=seq.video_id)
            for j in range(ph.E - 1):
                event_checks += 1
                assert j < full_hash.E
                np.testing.assert_array_equal(ph.events[j],
                                              full_hash.events[j])
            prefixes += 1
    _ok(6, f"prefix stability: {prefixes} prefixes bit-exact, "
           f"{event_checks} non-final event hashes verbatim")


# -- 7 ---------------------------------------------------------------------


def test_c07_retrieval_matches_naive_full_scan():
    def naive_rank(db, q):
        scored = []
        for vid, entry in db.entries.items():
            bits = unpack_codes(entry.packed, db.L)
            total = 0.0
            for qe in q.events:
                total += min(int(np.sum(qe != row)) for row in bits)
            scored.append((total / q.E, vid))
        return [v for _, v in sorted(scored, key=lambda x: (x[0], x[1]))]

    rng = np.random.default_rng(7)
    for _ in range(30):
        L = int(rng.integers(8, 65))
        n = int(rng.integers(2, 51))
        db = HashDatabase(L, "events")
        for i in range(n):
            ev = (rng.random((int(rng.integers(1, 41)), L)) > 0.5
                  ).astype(np.uint8)
            db_add(db, VideoHash(f"v{i:02d}", L, ev,
                                 np.arange(1, len(ev) + 1), "events", 1.0))
        q_ev = (rng.random((int(rng.integers(1, 41)), L)) > 0.5
                ).astype(np.uint8)
        q = VideoHash("q", L, q_ev, np.arange(1, len(q_ev) + 1), "events",
                      1.0)
        got = [vid for vid, _ in query_topk(db, q, n)]
        assert got == naive_rank(db, q)

    # self-queries hit rank 1 at distance 0 in every mode
    for mode in ("events", "sample", "sample_and_events"):
        db = HashDatabase(16, mode)
        hashes = []
        for i in range(10):
            ev = (rng.random((4, 16)) > 0.5).astype(np.uint8)
            vh = VideoHash(f"v{i}", 16, ev, np.arange(1, 5), mode, 1.0)
            db_add(db, vh)
            hashes.append(vh)
        for vh in hashes:
            top = query_topk(db, vh, 1)[0]
            assert top == (vh.video_id, 0.0)
    _ok(7, "top-k equals the naive full scan on 30 databases; "
           "self-queries rank first at distance 0 in all modes")


# -- 8 ---------------------------------------------------------------------


def test_c08_ahl_sample_mode():
    rng = np.random.default_rng(8)
    cfg = EventDetectConfig()
    for T in range(4, 61, 4):
        m = -(-T * 25 // 2)          # frames after the alternate drop
        m_e = encoder_len(m)
        codes = (rng.random((m_e, 64)) > 0.5).astype(np.uint8)
        d = (codes[1:] != codes[:-1]).sum(axis=1)
        from evhash.model import EncodeResult
        res = EncodeResult(codes=codes, d_series=d,
                           gates=(np.full((m_e, 64), 0.5),) * 3, M_e=m_e)
        vh = hash_video(res, "sample", cfg, T_s=4.0, video_id="v",
                        duration_seconds=float(T))
        value = ahl(vh)
        assert value == 80.0, f"T={T}: AHL {value}"
        assert 79.1 <= value <= 80.2  # the reported sample-column spread
    _ok(8, "sample-mode AHL is exactly 80.0 bits/5s for durations "
           "divisible by 4 (L=64, T_s=4)")


# -- 9 ---------------------------------------------------------------------


def test_c09_copy_enumeration():
    from tests.test_bench import copies_bruteforce

    rng = np.random.default_rng(9)
    for t_fv in rng.integers(4, 100, size=20):
        specs = make_copies(int(t_fv))
        got = {(s.T_c, s.slide, s.start) for s in specs}
        assert len(got) == len(specs)
        assert got == copies_bruteforce(int(t_fv))
        for s in specs:  # invariants, re-checked explicitly
            assert s.T_c >= 4 and s.T_c % 4 == 0
            assert s.slide >= 0 and s.slide % 2 == 0
            assert (s.start - s.slide) % s.T_c == 0
            assert s.start + s.T_c <= s.T_fv
    _ok(9, "copy enumeration matches brute force on 20 durations")


# -- 10 ---------------------------------------------------------------------

TOY_SEED = 7
TOY_DURATIONS = [20] * 20
TOY_L = 8
TOY_ENC_DIMS = (16, 16, 8)
TOY_TH = 2
TOY_LR = 3e-3
TOY_EPOCHS = 200


def _toy_training(epochs: int = TOY_EPOCHS):
    """Criterion 10's videos and training: (videos, ids, norm stats,
    trained model, per-epoch loss log)."""
    videos = [synth_video(TOY_SEED * 1000 + i, d)
              for i, d in enumerate(TOY_DURATIONS)]
    ids = [f"vid{i:04d}" for i in range(len(videos))]
    feats = [extract_features(v, vid) for v, vid in zip(videos, ids)]
    stats = compute_norm_stats(feats)
    train_set = [normalize(f, stats) for f in feats]

    model = build_model(D=1024, L=TOY_L, encoder_dims=TOY_ENC_DIMS,
                        seed=TOY_SEED, dtype=np.float32)
    cfg = TrainConfig(batch_size=20, epochs=epochs, lr=TOY_LR,
                      memory_threshold=TOY_TH, seed=TOY_SEED)
    model, log = train(train_set, cfg, model)
    return videos, ids, stats, model, log


@pytest.mark.slow
def test_c10_toy_end_to_end():
    t0 = time.perf_counter()
    videos, ids, stats, model, log = _toy_training()
    ratio = log[-1].recon / log[0].recon
    assert ratio <= 0.5, (f"recon epoch1={log[0].recon:.3f} "
                          f"epoch{TOY_EPOCHS}={log[-1].recon:.3f} "
                          f"ratio={ratio:.3f}")

    detect = EventDetectConfig(hard_threshold=TOY_TH)
    report = run_eval(videos, ids, model, stats, T_s=4.0, detect_cfg=detect)
    assert report.query_count > 0
    for mode in report.modes:
        accs = report.topk[mode]
        assert len(accs) == 10
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:])), \
            f"{mode}: top-k not monotone: {accs}"
        assert len(report.buckets[mode]) == len(BUCKET_LABELS)

    # informational trend check, non-gating
    s5 = report.topk_restricted["sample"][4]
    e5 = report.topk_restricted["events"][4]
    se5 = report.topk_restricted["sample_and_events"][4]
    trend = "holds" if (e5 >= s5 and se5 >= s5) else "does not hold"
    elapsed = time.perf_counter() - t0
    assert elapsed < 15 * 60, f"took {elapsed / 60:.1f} min"
    _ok(10, f"toy end-to-end: recon ratio {ratio:.3f} <= 0.5, reports for "
            f"all modes in {elapsed / 60:.1f} min; trend check {trend} "
            f"(restricted top-5: sample {s5:.3f}, events {e5:.3f}, "
            f"sample+events {se5:.3f}, informational)")


# -- 11 ---------------------------------------------------------------------


def _run_pipeline(root: Path) -> dict:
    data = root / "data"
    cmds = [["synth", "--out-dir", str(data), "--seed", "3",
             "--durations", "8,8,12,12"]]
    feats = [str(data / f"vid{i:04d}.feat") for i in range(4)]
    for i in range(4):
        cmds.append(["ingest", "--in", str(data / f"vid{i:04d}.fseq"),
                     "--out", feats[i]])
    cmds.append(["stats", "--out", str(data / "stats.nrm1"), *feats])
    cmds.append(["train", "--stats", str(data / "stats.nrm1"),
                 "--out", str(root / "model.mcbn"),
                 "--loss-log", str(root / "loss.csv"),
                 "--epochs", "3", "--batch-size", "4", "--L", "8",
                 "--enc-dims", "8,8,6", "--th", "2", "--seed", "3", *feats])
    hashes = []
    for i in range(4):
        vh = str(root / f"vid{i:04d}.vh")
        cmds.append(["hash", "--model", str(root / "model.mcbn"),
                     "--stats", str(data / "stats.nrm1"),
                     "--feat", feats[i], "--out", vh, "--th", "2"])
        hashes.append(vh)
    cmds.append(["db-build", "--out", str(root / "db.vhdb"),
                 "--mode", "events", *hashes])
    cmds.append(["eval", "--model", str(root / "model.mcbn"),
                 "--stats", str(data / "stats.nrm1"),
                 "--fseq-dir", str(data),
                 "--copies", str(data / "copies.csv"),
                 "--out-dir", str(root / "report"), "--th", "2"])
    from evhash.cli import main
    for argv in cmds:
        assert main(argv) == 0, f"command failed: {argv}"
    out = {}
    for rel in ("data/vid0000.feat", "data/vid0003.feat", "model.mcbn",
                "db.vhdb", "loss.csv", "report/report.csv",
                "report/report_slide2mod4.csv", "report/buckets.csv",
                "report/buckets_slide2mod4.csv"):
        out[rel] = (root / rel).read_bytes()
    return out


@pytest.mark.slow
def test_c11_pipeline_determinism(tmp_path):
    a = _run_pipeline(tmp_path / "run1")
    b = _run_pipeline(tmp_path / "run2")
    assert a.keys() == b.keys()
    for rel in a:
        assert a[rel] == b[rel], f"{rel} differs between runs"
    _ok(11, f"two pipeline runs produced bit-identical artifacts "
            f"({len(a)} files compared)")
