import hashlib
import struct

import numpy as np
import pytest

from evhash import autodiff as ad
from evhash import model as M
from evhash.errors import (BadMagic, EmptySequence, MalformedFile,
                           NonFiniteValues, ShapeMismatch, TruncatedFile)
from evhash.ingest import FeatureSequence
from evhash.model import (
    BNLSTMCell,
    build_model,
    decode,
    encode,
    encoder_len,
    forward,
    init_cell,
    load_model,
    save_model,
)
from tests._reference import add, bnlstm_cell_step, sgn_surrogate, \
    slice_rows, wsum


def zero_cell(d_x, d_h, eps=0.0):
    cell = init_cell(d_x, d_h, np.random.default_rng(0), eps=eps)
    for p in cell.parameters():
        p.value[...] = 0.0
    cell.gamma_h.value[...] = 1.0
    cell.gamma_x.value[...] = 1.0
    cell.gamma_c.value[...] = 1.0
    return cell


def freeze_to_plain_lstm(model):
    """Unit scales, zero shifts, identity statistics: BN becomes a no-op."""
    for cell in model.cells:
        cell.gamma_h.value[...] = 1.0
        cell.gamma_x.value[...] = 1.0
        cell.gamma_c.value[...] = 1.0
        cell.beta_c.value[...] = 0.0
        for site in cell.sites():
            site.eps = 0.0
            site.stats = site.stats[:0]


def plain_lstm_layer(cell, X):
    """Textbook LSTM with the same weights (independent oracle)."""
    d = cell.d_h
    h, c = cell.h0.value.copy(), cell.c0.value.copy()
    out = np.empty((len(X), d))
    for t, x in enumerate(X):
        pre = h @ cell.W_h.value + x @ cell.W_x.value + cell.b.value
        f, i, g, o = pre[:d], pre[d:2 * d], pre[2 * d:3 * d], pre[3 * d:]
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        c = sig(f) * c + sig(i) * np.tanh(g)
        h = sig(o) * np.tanh(c)
        out[t] = h
    return out


def stride_oracle(X):
    idx = list(range(1, len(X), 2))
    if len(X) % 2 == 1:
        idx.append(len(X) - 1)
    return X[idx]


def upsample_oracle(X):
    """Each step, then the mean of it and the next (the last repeats)."""
    out = []
    for t, x in enumerate(X):
        out += [x, (x + X[t + 1]) / 2 if t + 1 < len(X) else x]
    return np.array(out)


def plain_encoder_oracle(model, X):
    e1, e2, e3, e4 = model.encoder
    X = plain_lstm_layer(e1, X)
    X = plain_lstm_layer(e2, X)
    X = plain_lstm_layer(e3, stride_oracle(X))
    return plain_lstm_layer(e4, stride_oracle(X))


def rand_seq(rng, m, d, vid="v"):
    return FeatureSequence(vid, rng.normal(size=(m, d)), normalized=True)


class TestCellStep:
    def test_zero_cell_midpoint_gates(self):
        cell = zero_cell(3, 2)
        h, c, (f, i, o) = bnlstm_cell_step(
            np.ones((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)),
            cell, 1, "infer")
        np.testing.assert_allclose(h, 0.0)
        np.testing.assert_allclose(c, 0.0)
        for gate in (f, i, o):
            np.testing.assert_allclose(gate, 0.5)

    def test_weight_shapes(self):
        cell = init_cell(8, 6, np.random.default_rng(0))
        assert cell.W_x.value.shape == (8, 24)
        assert cell.W_h.value.shape == (6, 24)

    def test_matches_plain_lstm_cell(self):
        rng = np.random.default_rng(1)
        model = build_model(D=5, L=3, encoder_dims=(4, 4, 3), seed=2)
        freeze_to_plain_lstm(model)
        cell = model.encoder[0]
        X = rng.normal(size=(6, 5))
        want = plain_lstm_layer(cell, X)
        h = cell.h0.value[None, :]
        c = cell.c0.value[None, :]
        for t in range(6):
            h, c, _ = bnlstm_cell_step(X[t:t + 1], h, c, cell, t + 1, "infer")
            np.testing.assert_allclose(h[0], want[t], atol=1e-6)

    def test_shape_mismatch(self):
        cell = init_cell(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            bnlstm_cell_step(np.ones((1, 4)), np.zeros((1, 2)),
                             np.zeros((1, 2)), cell, 1, "infer")


class TestEncoderStack:
    def test_encoder_len(self):
        assert encoder_len(100) == 25
        assert encoder_len(1) == 1
        for m in range(1, 200):
            assert encoder_len(m) == int(np.ceil(np.ceil(m / 2) / 2))

    def test_single_frame(self):
        model = build_model(D=4, L=3, encoder_dims=(3, 3, 3), seed=3)
        enc = encode(rand_seq(np.random.default_rng(2), 1, 4), model)
        assert enc.M_e == 1
        assert enc.d_series.shape == (0,)

    def test_plain_lstm_reduction(self):
        rng = np.random.default_rng(4)
        for draw in range(3):
            model = build_model(D=6, L=4, encoder_dims=(5, 4, 3),
                                seed=100 + draw)
            for p in model.parameters():  # nonzero weights everywhere
                p.value[...] = rng.normal(scale=0.4, size=p.value.shape)
            freeze_to_plain_lstm(model)
            X = rng.normal(size=(11, 6))
            _, got, _ = M._encoder(model, X, M.Layout([len(X)]), "running")
            want = plain_encoder_oracle(model, X)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_codes_are_bits_and_gates_open(self):
        rng = np.random.default_rng(5)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=6)
        enc = encode(rand_seq(rng, 23, 6), model)
        assert enc.codes.dtype == np.uint8
        assert set(np.unique(enc.codes)) <= {0, 1}
        for g in enc.gates:
            assert np.all((g > 0) & (g < 1))
        assert np.all(enc.d_series >= 0) and np.all(enc.d_series <= 4)

    def test_prefix_stability(self):
        rng = np.random.default_rng(6)
        model = build_model(D=5, L=4, encoder_dims=(4, 4, 3), seed=7)
        feats = rng.normal(size=(37, 5))
        full = encode(FeatureSequence("v", feats, normalized=True), model)
        for m in range(1, 38):
            part = encode(
                FeatureSequence("v", feats[:m], normalized=True), model)
            shared = m // 4
            np.testing.assert_array_equal(part.codes[:shared],
                                          full.codes[:shared])

    def test_empty_sequence(self):
        model = build_model(D=4, L=3, encoder_dims=(3, 3, 3), seed=8)
        with pytest.raises(EmptySequence):
            encode(FeatureSequence("v", np.zeros((0, 4)), normalized=True),
                   model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_features_raise(self, bad):
        # 1e39 is finite in float64 but overflows the float32 model's cast
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=8,
                            dtype=np.float32)
        feats = np.random.default_rng(8).normal(size=(20, 6))
        encode(FeatureSequence("v", feats, normalized=True), model)
        feats[3, 2] = bad
        with pytest.raises(NonFiniteValues):
            encode(FeatureSequence("v", feats, normalized=True), model)

    def test_non_finite_hidden_states_raise(self):
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=8)
        model.encoder[3].gamma_c.value[1] = np.nan
        seq = rand_seq(np.random.default_rng(8), 20, 6)
        with pytest.raises(NonFiniteValues):
            encode(seq, model)

    def test_running_mode_couples_no_items(self):
        # running statistics are fixed per step, so each item of a ragged
        # batch gets the code bits it gets when encoded alone. Momentum 1
        # makes them one training batch's statistics, so the codes follow
        # the input; they cover fewer steps (12) than the longest item.
        rng = np.random.default_rng(23)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=24)
        for p in model.parameters():
            p.value[...] = rng.normal(scale=0.5, size=p.value.shape)
        for cell in model.cells:
            for site in cell.sites():
                site.momentum = 1.0
        M.forward_batch_train([rand_seq(rng, 12, 6) for _ in range(8)], model)
        seqs = [rand_seq(rng, m, 6, f"v{m}") for m in (31, 22, 22, 9, 4, 1)]
        lay = M.Layout([s.M for s in seqs])
        enc, hid, _ = M._encoder(model, M.prepare_inputs(seqs, model.dtype),
                                 lay, "running")
        bits = (hid >= 0).astype(np.uint8)
        assert 0 < bits.mean() < 1
        for i, seq in enumerate(seqs):
            np.testing.assert_array_equal(bits[enc.item_rows(i)],
                                          encode(seq, model).codes)


def stats_model(seed, dtype=np.float64, D=6, L=4, dims=(5, 4, 3)):
    """A model with random weights and running statistics from one
    momentum-1 training batch, so codes follow the input."""
    rng = np.random.default_rng(seed)
    model = build_model(D=D, L=L, encoder_dims=dims, seed=seed, dtype=dtype)
    for p in model.parameters():
        p.value[...] = rng.normal(scale=0.5, size=p.value.shape)
    for cell in model.cells:
        for site in cell.sites():
            site.momentum = 1.0
    M.forward_batch_train([rand_seq(rng, 12, D) for _ in range(8)], model)
    return model


def assert_same_codes(got, want):
    assert got.M_e == want.M_e
    assert got.codes.tobytes() == want.codes.tobytes()
    np.testing.assert_array_equal(got.d_series, want.d_series)


class TestEncodeBatch:
    LENGTHS = (1, 2, 3, 31, 22, 4, 1, 9, 17, 2, 40, 5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_codes_equal_per_item_encode(self, dtype):
        model = stats_model(31, dtype)
        rng = np.random.default_rng(32)
        seqs = [rand_seq(rng, m, 6, f"v{i}")
                for i, m in enumerate(self.LENGTHS)]
        got = M.encode_batch(seqs, model)
        assert len(got) == len(seqs)
        for seq, res in zip(seqs, got):
            assert_same_codes(res, encode(seq, model))
            assert res.codes.shape == (encoder_len(seq.M), 4)
        assert M.encode_batch([], model) == []

    def test_every_prefix_of_synthetic_videos(self):
        # c06's model and video kind, at a few short videos
        from evhash.bench import synth_video
        from evhash.ingest import compute_norm_stats, extract_features, \
            normalize
        model = build_model(D=1024, L=64, encoder_dims=(32, 32, 16),
                            seed=11)
        feats = [extract_features(synth_video(500 + i, 4 + i), f"v{i}")
                 for i in range(3)]
        stats = compute_norm_stats(feats)
        prefixes = [FeatureSequence(f"{f.video_id}:{m}", seq.features[:m],
                                    normalized=True)
                    for f in feats for seq in [normalize(f, stats)]
                    for m in range(1, seq.M + 1)]
        for seq, res in zip(prefixes, M.encode_batch(prefixes, model)):
            assert_same_codes(res, encode(seq, model))

    def test_split_passes_give_the_same_results(self, monkeypatch):
        model = stats_model(33, np.float32)
        rng = np.random.default_rng(34)
        seqs = [rand_seq(rng, m, 6, f"v{i}")
                for i, m in enumerate(self.LENGTHS)]
        whole = M.encode_batch(seqs, model)
        runs = []
        encoder = M._encoder

        def spy(model, x, inp, stats):
            runs.append(inp.rows)
            return encoder(model, x, inp, stats)

        monkeypatch.setattr(M, "_encoder", spy)
        monkeypatch.setattr(M, "_ENCODE_ROWS", 30)
        split = M.encode_batch(seqs, model)
        # 40 and 31 rows run alone; the rest fit 30 rows per pass
        assert len(runs) > 3 and max(runs) == 40
        assert all(r <= 30 for r in runs if r not in (40, 31))
        for a, b in zip(split, whole):
            assert_same_codes(a, b)

    @pytest.mark.parametrize("bad", [np.nan, 1e39])
    def test_non_finite_features_name_the_item(self, bad):
        # 1e39 is finite in float64 but overflows the float32 model's cast
        model = stats_model(35, np.float32)
        rng = np.random.default_rng(36)
        seqs = [rand_seq(rng, m, 6, f"v{i}") for i, m in enumerate((9, 14, 3))]
        seqs[1].features[5, 2] = bad
        with pytest.raises(NonFiniteValues, match="^v1: non-finite feature"):
            M.encode_batch(seqs, model)
        with pytest.raises(NonFiniteValues, match="^v1: non-finite feature"):
            encode(seqs[1], model)
        M.encode_batch([seqs[0], seqs[2]], model)

    def test_non_finite_hidden_states_name_the_item(self):
        # the first layer's last trained cell statistics (step 12, reused
        # past it) reach only the item with 12 or more steps
        model = stats_model(39)
        model.encoder[0].site_c.stats[-1, 1] = np.nan
        rng = np.random.default_rng(40)
        seqs = [rand_seq(rng, m, 6, f"v{i}") for i, m in enumerate((9, 30, 3))]
        with pytest.raises(NonFiniteValues, match="^v1: non-finite hidden"):
            M.encode_batch(seqs, model)
        M.encode_batch([seqs[0], seqs[2]], model)

    def test_item_checks(self):
        model = stats_model(37)
        rng = np.random.default_rng(38)
        good = rand_seq(rng, 5, 6, "good")
        with pytest.raises(EmptySequence, match="empty"):
            M.encode_batch([good, FeatureSequence(
                "e", np.zeros((0, 6)), normalized=True)], model)
        with pytest.raises(ValueError, match="raw: encode expects normalized"):
            M.encode_batch([good, FeatureSequence("raw", np.ones((4, 6)))],
                           model)
        with pytest.raises(ShapeMismatch):
            M.encode_batch([good, rand_seq(rng, 4, 5)], model)


class TestDecoderStack:
    def test_decoder_dims_mirror(self):
        model = build_model(D=1024, L=64, encoder_dims=(256, 256, 64), seed=0)
        assert [c.d_h for c in model.decoder] == [64, 256, 256, 1024]
        assert [c.d_x for c in model.decoder] == [64, 64, 256, 256]
        tiny = build_model(D=8, L=4, encoder_dims=(6, 6, 4), seed=0)
        assert [c.d_h for c in tiny.decoder] == [4, 6, 6, 8]

    def test_length_contract(self):
        rng = np.random.default_rng(9)
        model = build_model(D=5, L=3, encoder_dims=(4, 4, 3), seed=10)
        for m in (1, 2, 3, 7, 25, 100):
            seq = rand_seq(rng, m, 5)
            rec, enc = forward(seq, model)
            assert rec.shape == (m, 5)
            assert enc.M_e == encoder_len(m)

    def test_zero_weight_reconstruction_is_zero(self):
        model = build_model(D=5, L=3, encoder_dims=(4, 4, 3), seed=11)
        for cell in model.decoder:
            cell.W_h.value[...] = 0.0
            cell.W_x.value[...] = 0.0
            cell.b.value[...] = 0.0
            cell.h0.value[...] = 0.0
            cell.c0.value[...] = 0.0
            cell.beta_c.value[...] = 0.0
        seq = rand_seq(np.random.default_rng(12), 9, 5)
        enc = encode(seq, model)
        rec = decode(enc, model, 9)
        np.testing.assert_allclose(rec, 0.0, atol=1e-12)

    def test_upsample_rule_ragged(self):
        x = ad.Tensor(np.array([[1.0, 5.0], [3.0, -1.0]]))
        lay, a, b = M.Layout([2]).upsample()
        got = ad.val(M._upsample(x, a, b))
        np.testing.assert_allclose(
            got, [[1, 5], [2, 2], [3, -1], [3, -1]])
        assert lay.lengths.tolist() == [4]


class TestForward:
    def test_inference_deterministic(self):
        rng = np.random.default_rng(13)
        model = build_model(D=5, L=3, encoder_dims=(4, 4, 3), seed=14)
        seq = rand_seq(rng, 13, 5)
        r1, e1 = forward(seq, model)
        r2, e2 = forward(seq, model)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(e1.codes, e2.codes)

    def test_train_mode_batch_dependence(self):
        # batch statistics couple items: the same video encodes
        # differently alone vs alongside a different one
        rng = np.random.default_rng(15)
        model = build_model(D=5, L=4, encoder_dims=(4, 4, 3), seed=16)
        a = rand_seq(rng, 12, 5, "a")
        other = rand_seq(rng, 12, 5, "b")
        solo = M.forward_batch_train([a], model)
        pair = M.forward_batch_train([a, other], model)
        h_solo = ad.val(solo.recon)[solo.dec.item_rows(0)][3]
        h_pair = ad.val(pair.recon)[pair.dec.item_rows(0)][3]
        assert not np.allclose(h_solo, h_pair)
        rows = pair.enc.item_rows(0)
        enc = M._encode_result(ad.val(pair.codes)[rows],
                               ad.val(pair.gates)[rows], model.L)
        np.testing.assert_array_equal(enc.codes,
                                      ad.val(pair.prebin)[rows] >= 0)
        np.testing.assert_array_equal(np.concatenate(enc.gates, axis=1),
                                      ad.val(pair.gates)[rows])

    def test_binarizer_is_looked_up_at_call_time(self, monkeypatch):
        # c02 checks the loss's gradients with the sign swapped for its
        # continuous surrogate; the swap must reach the training forward
        rng = np.random.default_rng(19)
        model = build_model(D=5, L=4, encoder_dims=(4, 4, 3), seed=20)
        seqs = [rand_seq(rng, 12, 5, "a"), rand_seq(rng, 9, 5, "b")]
        hard = M.forward_batch_train(seqs, model)
        np.testing.assert_array_equal(
            ad.val(hard.codes), np.where(ad.val(hard.prebin) >= 0, 1.0, -1.0))
        monkeypatch.setattr(M, "sgn_ste", sgn_surrogate)
        soft = M.forward_batch_train(seqs, model)
        codes = ad.val(soft.codes)
        np.testing.assert_array_equal(codes,
                                      np.clip(ad.val(soft.prebin), -1.0, 1.0))
        assert not np.isin(codes, (-1.0, 1.0)).all()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=18)
        # populate running statistics so the sites are non-trivial
        seqs = [rand_seq(rng, 9, 6, "a"), rand_seq(rng, 7, 6, "b")]
        M.forward_batch_train(seqs, model)
        p1 = tmp_path / "m1.mcbn"
        p2 = tmp_path / "m2.mcbn"
        save_model(model, p1)
        back = load_model(p1)
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.max_input_len == 9
        got = encode(rand_seq(rng, 11, 6), back)
        assert got.codes.shape == (3, 4)

    @pytest.mark.parametrize("dtype, digest", [
        (np.float32,
         "03898338fbd9d0393ae48d6de0babca9ee961397ad9d707e65d666178cf053f1"),
        (np.float64,
         "a70388db6ca64500eec95a6a5201c18b275ed21228f989a80c43680e9f0f9db6"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, dtype, digest):
        # the digests of files that astype("<f4").tobytes() wrote
        rng = np.random.default_rng(17)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=18,
                            dtype=dtype)
        M.forward_batch_train([rand_seq(rng, 9, 6, "a"),
                               rand_seq(rng, 7, 6, "b")], model)
        path = tmp_path / "m.mcbn"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_roundtrip_keeps_an_untrained_site(self, tmp_path):
        rng = np.random.default_rng(19)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=18,
                            dtype=np.float32)
        M.forward_batch_train([rand_seq(rng, 9, 6, "a"),
                               rand_seq(rng, 7, 6, "b")], model)
        untrained = model.decoder[1].site_c
        untrained.stats = untrained.stats[:0]
        p1, p2 = tmp_path / "m1.mcbn", tmp_path / "m2.mcbn"
        save_model(model, p1)
        back = load_model(p1, dtype=np.float32)
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        site = back.decoder[1].site_c
        assert site.stats.shape == (0, 2, site.dim)
        assert site.stats.dtype == np.float32
        for a, b in zip(model.cells, back.cells):
            for x, y in zip(a.sites(), b.sites()):
                np.testing.assert_array_equal(x.stats, y.stats)

    @pytest.fixture
    def saved(self, tmp_path):
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=18)
        path = tmp_path / "m.mcbn"
        save_model(model, path)
        return model, path

    def test_trailing_bytes(self, saved):
        _, path = saved
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_two_layers(self, saved):
        model, path = saved
        enc1, dec4 = model.encoder[0], model.decoder[-1]  # 6 -> 5 -> 6
        save_model(M.Autoencoder(6, 4, [enc1], [dec4], 0.1, 1e-5,
                                 np.float64), path)
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_huge_dims_fail_before_allocating(self, tmp_path):
        path = tmp_path / "m.mcbn"
        path.write_bytes(struct.pack("<4sBBII", b"MCBN", 1, 8, 2 ** 20,
                                     2 ** 20) + bytes(64))
        with pytest.raises(TruncatedFile):
            load_model(path)

    def test_zero_width_layer(self, tmp_path):
        # its sites hold 2**32 - 1 empty steps each, in no bytes at all
        path = tmp_path / "m.mcbn"
        path.write_bytes(struct.pack("<4sBBII", b"MCBN", 1, 8, 3, 0)
                         + struct.pack("<III", *[2 ** 32 - 1] * 3))
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_dims_must_chain_from_d_to_l_to_d(self, saved):
        model, path = saved
        good = path.read_bytes()
        for offset in (-20, -16):  # the trailer's D, then its L
            bad = bytearray(good)
            bad[offset:offset + 4] = struct.pack("<I", 7)
            path.write_bytes(bytes(bad))
            with pytest.raises(MalformedFile):
                load_model(path)
        e1, e2, e3, e4 = model.encoder  # layer 2 takes 4 inputs, not 5
        save_model(M.Autoencoder(6, 4, [e1, e3, e2, e4], model.decoder,
                                 0.1, 1e-5, np.float64), path)
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.mcbn"
        p.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(BadMagic):
            load_model(p)


def _rand_cell(rng, d_x, d_h):
    """A float64 cell at a well-conditioned random point."""
    cell = init_cell(d_x, d_h, rng, eps=1e-2)
    for p in cell.parameters():
        p.value[...] = rng.normal(scale=0.5, size=p.value.shape)
    for g in (cell.gamma_h, cell.gamma_x, cell.gamma_c):
        g.value[...] = rng.uniform(0.6, 1.0, size=g.value.shape)
    return cell


def _per_step_layer(cell, X, lay, mode="train"):
    """The layer as bnlstm_cell_step applied step by step, on the tape in
    "train" mode and on plain arrays in "infer" mode: per step
    (h_t, (f, i, o)) over that step's packed rows."""
    b1 = int(lay.counts[0])
    h0, c0 = (cell.h0, cell.c0) if mode == "train" else (cell.h0.value,
                                                         cell.c0.value)
    h = add(np.zeros((b1, cell.d_h)), h0)
    c = add(np.zeros((b1, cell.d_h)), c0)
    out = []
    for t, b in enumerate(lay.counts):
        b = int(b)
        if ad.val(h).shape[0] > b:
            h, c = slice_rows(h, 0, b), slice_rows(c, 0, b)
        x_t = slice_rows(X, int(lay.offsets[t]), int(lay.offsets[t]) + b)
        h, c, gates = bnlstm_cell_step(x_t, h, c, cell, t + 1, mode)
        out.append((h, gates))
    return out


class TestFusedLayer:
    """The fused layer against bnlstm_cell_step run step by step, ragged
    and float64."""

    LENGTHS = (13, 12, 12, 9, 7)

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.lay = M.Layout(self.LENGTHS)
        self.x = rng.normal(size=(self.lay.rows, 5))
        self.w_h = rng.normal(size=(self.lay.rows, 3))
        self.w_g = rng.normal(size=(self.lay.rows, 9))
        self.cell = _rand_cell(rng, 5, 3)

    def fused_loss(self, X):
        h, g = M.bnlstm_layer(self.cell, X, self.lay, want_gates=True)
        return add(wsum(h, self.w_h), wsum(g, self.w_g))

    def per_step_loss(self, X):
        terms = []
        for t, (h, gates) in enumerate(_per_step_layer(self.cell, X,
                                                       self.lay)):
            r = slice(int(self.lay.offsets[t]), int(self.lay.offsets[t + 1]))
            terms.append(wsum(h, self.w_h[r]))
            for j, gate in enumerate(gates):
                terms.append(wsum(gate, self.w_g[r, 3 * j:3 * j + 3]))
        return ad.addn(terms)

    def grads(self, loss_fn):
        for p in self.cell.parameters():
            p.grad[...] = 0.0
        X = ad.Tensor(self.x.copy())
        loss_fn(X).backward()
        return [p.grad.copy() for p in self.cell.parameters()], X.grad

    def test_stride_and_upsample_match_dense_rules_per_item(self):
        # lengths 13 and 9 and 7 leave an odd last step to the stride; the
        # upsample replicates each item's last step while longer items
        # still average at that step
        x = ad.Tensor(self.x)
        strided, rows = self.lay.stride()
        up, a, b = self.lay.upsample()
        got_s = ad.val(ad.gather_rows(x, rows))
        got_u = ad.val(M._upsample(x, a, b))
        assert strided.lengths.tolist() == [7, 6, 6, 5, 4]
        assert up.lengths.tolist() == [26, 24, 24, 18, 14]
        for i in range(len(self.LENGTHS)):
            item = self.x[self.lay.item_rows(i)]
            np.testing.assert_array_equal(got_s[strided.item_rows(i)],
                                          stride_oracle(item))
            np.testing.assert_array_equal(got_u[up.item_rows(i)],
                                          upsample_oracle(item))

    def test_values_and_running_stats_match_per_step(self):
        twin = init_cell(5, 3, np.random.default_rng(0), eps=1e-2)
        for p, q in zip(twin.parameters(), self.cell.parameters()):
            p.value[...] = q.value
        h, g = M.bnlstm_layer(self.cell, self.x, self.lay, want_gates=True)
        ref = _per_step_layer(twin, self.x, self.lay)
        want_h = np.concatenate([ad.val(h_t) for h_t, _ in ref])
        want_g = np.concatenate([np.concatenate([ad.val(x) for x in gates],
                                                axis=1) for _, gates in ref])
        np.testing.assert_allclose(ad.val(h), want_h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ad.val(g), want_g, rtol=0, atol=1e-12)
        for fused, step in zip(self.cell.sites(), twin.sites()):
            assert fused.max_train_timestep == step.max_train_timestep == 13
            np.testing.assert_allclose(fused.stats, step.stats, rtol=0,
                                       atol=1e-12)

    def test_running_stats_match_per_step_infer(self):
        # running statistics away from (0, 1) for steps 1..8 only, so
        # steps 9..13 reuse step 8's
        rng = np.random.default_rng(22)
        for site in self.cell.sites():
            site.stats = np.stack((rng.normal(size=(8, site.dim)),
                                   rng.uniform(0.3, 3.0, size=(8, site.dim))),
                                  axis=1)
        h, g = M.bnlstm_layer(self.cell, self.x, self.lay, stats="running",
                              want_gates=True)
        assert type(h) is np.ndarray and type(g) is np.ndarray
        ref = _per_step_layer(self.cell, self.x, self.lay, "infer")
        want_h = np.concatenate([h_t for h_t, _ in ref])
        want_g = np.concatenate([np.concatenate(gates, axis=1)
                                 for _, gates in ref])
        np.testing.assert_allclose(h, want_h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g, want_g, rtol=0, atol=1e-12)
        assert [s.max_train_timestep for s in self.cell.sites()] == [8] * 3
        assert self.cell.workspace is None
        with pytest.raises(ValueError):  # the per-step mode name
            M.bnlstm_layer(self.cell, self.x, self.lay, stats="infer")

    def test_gradients_match_per_step_tape(self):
        got, got_x = self.grads(self.fused_loss)
        want, want_x = self.grads(self.per_step_loss)
        assert len(got) == 9
        for name, a, b in zip(BNLSTMCell.FIELD_ORDER, got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)
        np.testing.assert_allclose(got_x, want_x, rtol=0, atol=1e-10)

    def test_gate_gradients_match_per_step_tape(self):
        # only the gate outputs carry loss: their gradient alone must
        # reach the parameters exactly as on the per-step tape
        self.w_h[...] = 0.0
        got, _ = self.grads(self.fused_loss)
        want, _ = self.grads(self.per_step_loss)
        assert np.abs(got[0]).max() > 0
        for name, a, b in zip(BNLSTMCell.FIELD_ORDER, got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)

    def test_central_difference_spot_check(self):
        got, _ = self.grads(self.fused_loss)
        h = 1e-6
        for p, g, idx in ((self.cell.W_h, got[0], (1, 7)),
                          (self.cell.gamma_c, got[5], (2,)),
                          (self.cell.c0, got[8], (0,))):
            orig = p.value[idx]
            p.value[idx] = orig + h
            up = float(ad.val(self.fused_loss(self.x)))
            p.value[idx] = orig - h
            down = float(ad.val(self.fused_loss(self.x)))
            p.value[idx] = orig
            assert abs((up - down) / (2 * h) - g[idx]) <= 1e-6 * max(
                1.0, abs(g[idx]))

    def test_batch_statistics_normalize_every_site(self):
        # c03's property on the fused layer: over 50 ragged batches, each
        # BN site's normalized values have batch mean 0 and variance 1 at
        # every step. At step 1 every item's h_{t-1} is h0, so the
        # recurrent term is constant over the batch and normalizes to 0.
        # The recurrent terms of these small random cells can have a batch
        # variance near 1e-4, so eps is 1e-10, not 1e-5, to keep
        # var / (var + eps) within the bound of 1.
        rng = np.random.default_rng(3)
        worst_mean, worst_var = 0.0, 0.0
        for trial in range(50):
            d_x, d_h = (int(v) for v in rng.integers(2, 12, size=2))
            b = int(rng.integers(16, 64))
            lengths = np.sort(rng.integers(2, 12, size=b))[::-1]
            lengths[:16] = lengths[0]  # 16 items or more at every step
            lay = M.Layout(lengths)
            cell = init_cell(d_x, d_h, rng, eps=1e-10)
            for p in cell.parameters():
                p.value[...] = rng.normal(scale=0.5, size=p.value.shape)
            x = rng.normal(rng.normal(), rng.uniform(0.8, 3.0),
                           size=(lay.rows, d_x))
            M.bnlstm_layer(cell, x, lay, stats="train")
            ws = cell.workspace
            for name, dim, first in (("xa", 4 * d_h, 1), ("xu", 4 * d_h, 0),
                                     ("xc", d_h, 0)):
                xhat = ws.take(name, (lay.rows, dim), x.dtype)
                for t in range(len(lay.counts)):
                    r = slice(int(lay.offsets[t]), int(lay.offsets[t + 1]))
                    worst_mean = max(worst_mean,
                                     float(np.abs(xhat[r].mean(axis=0)).max()))
                    if t >= first:
                        worst_var = max(worst_var, float(
                            np.abs(xhat[r].var(axis=0) - 1.0).max()))
            assert np.abs(ws.take("xa", (b, 4 * d_h), x.dtype)).max() <= 1e-9
        assert worst_mean <= 1e-9
        assert worst_var <= 1e-4
