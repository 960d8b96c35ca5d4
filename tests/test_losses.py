import numpy as np
import pytest

from evhash.errors import BatchTooSmall, LengthMismatch, ShapeMismatch
from evhash.ingest import FeatureSequence
from evhash.losses import (
    LossBreakdown,
    TrainConfig,
    batch_loss,
    diversity_loss,
    memory_loss,
    recon_loss,
    total_loss,
    train,
    write_loss_log,
)
from evhash.model import build_model, save_model


def memory_loss_oracle(f, i, o, d_series, th, L):
    """Scalar re-evaluation of the gate regularizer, term by term."""
    m_e = f.shape[0]
    total = 0.0
    for t in range(m_e - 1):
        d = float(d_series[t])
        term = 0.0
        for u in range(L):
            if d >= th:
                term += f[t, u] ** 2 + o[t, u] ** 2 + (1 - i[t, u]) ** 2
            else:
                term += (1 - f[t, u] ** 2) + (1 - o[t, u] ** 2) + i[t, u] ** 2
        total += term * d
    return total / (3.0 * L * L * m_e)


def diversity_oracle(codes_list, L):
    """Exhaustive pair loop over +-1 code sequences."""
    b = len(codes_list)
    acc, pairs = 0.0, 0
    for j in range(b - 1):
        for k in range(j + 1, b):
            T = min(len(codes_list[j]), len(codes_list[k]))
            s = 0.0
            for t in range(T):
                ham = int(np.sum(codes_list[j][t] != codes_list[k][t]))
                s += 1.0 - ham / L
            acc += s / T
            pairs += 1
    return acc / pairs


class TestReconLoss:
    def test_identity_zero(self):
        x = np.random.default_rng(0).normal(size=(5, 8))
        assert float(recon_loss(x, x, L=4)) == 0.0

    def test_hand_value(self):
        rec = np.zeros((1, 8))
        tgt = np.zeros((1, 8))
        rec[0, 0] = rec[0, 1] = 1.0
        assert float(recon_loss(rec, tgt, L=4)) == pytest.approx(0.5)

    def test_per_frame_scaling(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=(1, 8))
        one = float(recon_loss(row, np.zeros((1, 8)), L=4))
        many = float(recon_loss(np.tile(row, (6, 1)), np.zeros((6, 8)), L=4))
        assert one == pytest.approx(many)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert float(recon_loss(a, b, 2)) == pytest.approx(
            float(recon_loss(b, a, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            recon_loss(np.zeros((2, 3)), np.zeros((3, 2)), 4)


class TestMemoryLoss:
    def test_zero_distances_zero_loss(self):
        rng = np.random.default_rng(3)
        gates = tuple(rng.uniform(0, 1, size=(7, 4)) for _ in range(3))
        d = np.zeros(6, dtype=int)
        assert float(memory_loss(gates, d, th=2, L=4)) == 0.0

    def test_ideal_event_reset(self):
        L = 4
        f = np.zeros((2, L))
        i = np.ones((2, L))
        o = np.zeros((2, L))
        d = np.array([L])  # one transition at full distance
        assert float(memory_loss((f, i, o), d, th=2, L=L)) == 0.0

    def test_matches_scalar_oracle_and_bounds(self):
        rng = np.random.default_rng(4)
        L = 6
        for _ in range(50):
            m_e = int(rng.integers(2, 12))
            f, i, o = (rng.uniform(0, 1, size=(m_e, L)) for _ in range(3))
            d = rng.integers(0, L + 1, size=m_e - 1)
            th = int(rng.integers(1, L + 1))
            got = float(memory_loss((f, i, o), d, th, L))
            want = memory_loss_oracle(f, i, o, d, th, L)
            assert abs(got - want) <= 1e-9
            assert 0.0 <= got <= 1.0

    def test_length_mismatch(self):
        gates = tuple(np.zeros((4, 2)) for _ in range(3))
        with pytest.raises(LengthMismatch):
            memory_loss(gates, np.zeros(5), th=1, L=2)


class TestDiversityLoss:
    def test_identical_is_one(self):
        c = np.where(np.random.default_rng(5).random((6, 8)) > 0.5, 1.0, -1.0)
        assert float(diversity_loss([c, c.copy()], L=8)) == pytest.approx(1.0)

    def test_complementary_is_zero(self):
        c = np.where(np.random.default_rng(6).random((6, 8)) > 0.5, 1.0, -1.0)
        assert float(diversity_loss([c, -c], L=8)) == pytest.approx(0.0)

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(7)
        L = 5
        for _ in range(20):
            b = int(rng.integers(2, 6))
            codes = [np.where(rng.random((int(rng.integers(1, 9)), L)) > 0.5,
                              1.0, -1.0) for _ in range(b)]
            got = float(diversity_loss(codes, L))
            want = diversity_oracle(codes, L)
            assert abs(got - want) <= 1e-9
            assert 0.0 <= got <= 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        codes = [np.where(rng.random((4, 6)) > 0.5, 1.0, -1.0)
                 for _ in range(4)]
        a = float(diversity_loss(codes, 6))
        b = float(diversity_loss(codes[::-1], 6))
        assert a == pytest.approx(b, abs=1e-12)

    def test_batch_too_small(self):
        with pytest.raises(BatchTooSmall):
            diversity_loss([np.ones((2, 4))], 4)


class TestTotalLoss:
    def test_all_zero(self):
        bd = total_loss([0.0, 0.0], [0.0, 0.0], 0.0)
        assert bd.total == 0.0

    def test_hand_value(self):
        bd = total_loss([1.0, 3.0], [0.2, 0.4], 0.5)
        assert bd.total == pytest.approx(2.8)
        assert bd.recon == pytest.approx(2.0)
        assert bd.memory == pytest.approx(0.3)

    def test_monotone(self):
        base = total_loss([1.0], [0.1], 0.2).total
        assert total_loss([1.5], [0.1], 0.2).total >= base
        assert total_loss([1.0], [0.3], 0.2).total >= base
        assert total_loss([1.0], [0.1], 0.4).total >= base


def tiny_train_set(rng, n=4, d=6):
    return [FeatureSequence(f"v{i}", rng.normal(size=(int(m), d)),
                            normalized=True)
            for i, m in enumerate(rng.integers(8, 16, size=n))]


class TestTrain:
    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(9)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=10)
        before = [p.value.copy() for p in model.parameters()]
        cfg = TrainConfig(batch_size=4, epochs=3, lr=0.0,
                          memory_threshold=1, seed=0)
        train(tiny_train_set(rng), cfg, model)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_seeded_determinism(self, tmp_path):
        def run(tag):
            rng = np.random.default_rng(11)
            model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=12)
            cfg = TrainConfig(batch_size=2, epochs=2, lr=1e-3,
                              memory_threshold=1, seed=7)
            model, log = train(tiny_train_set(rng), cfg, model)
            path = tmp_path / f"{tag}.mcbn"
            save_model(model, path)
            return log, path.read_bytes()

        log1, bytes1 = run("a")
        log2, bytes2 = run("b")
        assert log1 == log2
        assert bytes1 == bytes2

    def test_loss_decreases_on_tiny_set(self):
        rng = np.random.default_rng(13)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=14)
        cfg = TrainConfig(batch_size=4, epochs=30, lr=3e-3,
                          memory_threshold=1, seed=0)
        _, log = train(tiny_train_set(rng), cfg, model)
        assert log[-1].recon < log[0].recon

    def test_loss_log_format(self, tmp_path):
        log = [LossBreakdown(1.0, 0.1, 0.2, 1.3),
               LossBreakdown(0.5, 0.1, 0.2, 0.8)]
        path = tmp_path / "log.csv"
        write_loss_log(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,recon,memory,diversity,total"
        assert lines[1].startswith("1,1.0,")
        assert len(lines) == 3

    def test_ste_gradient_reaches_encoder(self):
        # diversity + memory act on binarized codes; their gradients
        # must flow back into encoder weights via the straight-through path
        rng = np.random.default_rng(15)
        model = build_model(D=6, L=4, encoder_dims=(5, 4, 3), seed=16)
        seqs = sorted(tiny_train_set(rng, n=2), key=lambda s: -s.M)
        total, _ = batch_loss(model, seqs, th=1, update_stats=False)
        total.backward()
        enc_grads = sum(float(np.abs(p.grad).sum())
                        for c in model.encoder for p in c.parameters())
        assert enc_grads > 0.0


class TestWorkspaceReuse:
    """Each cell keeps its fused layer's arrays across steps; training two
    models in turn, over batches of several lengths, must not let one
    step's arrays leak into another's."""

    @staticmethod
    def setups():
        rng = np.random.default_rng(31)
        sets = ([FeatureSequence(f"a{i}", rng.normal(size=(m, 6)),
                                 normalized=True)
                 for i, m in enumerate((15, 14, 9, 9, 5, 4))],
                [FeatureSequence(f"b{i}", rng.normal(size=(m, 8)),
                                 normalized=True)
                 for i, m in enumerate((21, 11, 10, 6))])
        models = (lambda: build_model(D=6, L=4, encoder_dims=(5, 4, 3),
                                      seed=32),
                  lambda: build_model(D=8, L=6, encoder_dims=(7, 6, 6),
                                      seed=33, dtype=np.float32))
        cfgs = (TrainConfig(batch_size=2, epochs=2, lr=3e-3,
                            memory_threshold=1, seed=34),
                TrainConfig(batch_size=2, epochs=2, lr=3e-3,
                            memory_threshold=2, seed=35))
        return sets, models, cfgs

    def test_interleaved_training_matches_solo(self):
        from evhash.model import forward_batch_train
        sets, makers, cfgs = self.setups()
        rounds = 3
        solo = []
        for data, make, cfg in zip(sets, makers, cfgs):
            model, logs = make(), []
            for _ in range(rounds):
                logs += train(data, cfg, model)[1]
            solo.append(logs)
        models = [make() for make in makers]
        mixed = [[], []]
        for _ in range(rounds):
            for k in (0, 1):
                mixed[k] += train(sets[k], cfgs[k], models[k])[1]
                # a training-mode forward left without a backward pass
                forward_batch_train([sets[1 - k][0]], models[1 - k],
                                    update_stats=False)
        assert mixed == solo

    def test_two_live_tapes_do_not_share_arrays(self):
        sets, makers, _ = self.setups()
        batch = sorted(sets[0][:2], key=lambda s: -s.M)
        other = sorted(sets[0][3:], key=lambda s: -s.M)

        def grads(interpose):
            model = makers[0]()
            total, _ = batch_loss(model, batch, th=1, update_stats=False)
            if interpose:
                batch_loss(model, other, th=1, update_stats=False)
            total.backward()
            return [p.grad for p in model.parameters()]

        for a, b in zip(grads(True), grads(False)):
            np.testing.assert_array_equal(a, b)
