import numpy as np
import pytest

from evhash import autodiff as ad
from evhash.errors import NonFiniteGradient, ShapeMismatch
from evhash.numerics import (
    BETA1,
    BETA2,
    EPS_HAT,
    AdamConfig,
    BNSiteStats,
    Parameter,
    adam_step,
    sgn_ste,
)
from tests._reference import NonDeterministicLoss, bn_transform, \
    grad_check, scale, square, stats_for, sum_all, wsum


class TestBNTransform:
    def test_two_point_batch(self):
        stats = BNSiteStats(1, eps=0.0)
        h = np.array([[2.0], [4.0]])
        out = bn_transform(h, np.ones(1), np.zeros(1), stats, 1, "train")
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_inference_identity(self):
        stats = BNSiteStats(3, eps=0.0)
        h = np.random.default_rng(0).normal(size=(4, 3))
        out = bn_transform(h, np.ones(3), np.zeros(3), stats, 1, "infer")
        np.testing.assert_allclose(out, h)

    def test_train_output_statistics(self):
        rng = np.random.default_rng(1)
        stats = BNSiteStats(5)
        h = rng.normal(3.0, 2.5, size=(16, 5))
        out = bn_transform(h, np.ones(5), np.zeros(5), stats, 1, "train")
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_running_stats_update_and_clamp(self):
        stats = BNSiteStats(1, momentum=0.5, eps=0.0)
        h = np.array([[2.0], [4.0]])
        bn_transform(h, np.ones(1), None, stats, 1, "train")
        # init (0, 1) blended half-and-half with batch (3, 1)
        np.testing.assert_allclose(stats.stats, [[[1.5], [1.0]]])
        assert stats.max_train_timestep == 1
        m5, v5 = stats_for(stats, 5)  # clamps to the largest trained step
        np.testing.assert_allclose(m5, [1.5])

    def test_shape_mismatch(self):
        stats = BNSiteStats(4)
        with pytest.raises(ShapeMismatch):
            bn_transform(np.zeros((2, 3)), np.ones(4), None, stats, 1, "train")

    def test_gradients_flow_through_batch_stats(self):
        # FD check directly on the BN node
        rng = np.random.default_rng(2)
        hv = rng.normal(size=(5, 3))
        gamma = Parameter(rng.uniform(0.5, 1.5, size=3), "gamma")
        beta = Parameter(rng.normal(size=3), "beta")
        stats = BNSiteStats(3)
        w = rng.normal(size=(5, 3))  # fixed projection to a scalar

        def loss():
            h = ad.Tensor(hv.copy())
            out = bn_transform(h, gamma, beta, stats, 1, "train",
                               update_stats=False)
            return wsum(square(out), w)

        assert grad_check(loss, [gamma, beta], h=1e-6) < 1e-7


class TestBNSiteStats:
    def test_longer_block_extends_from_initial_rows(self):
        rng = np.random.default_rng(8)
        site = BNSiteStats(3, momentum=0.25)
        site.update(1, rng.uniform(0.5, 2.0, size=(13, 2, 3)))
        before = site.stats.copy()
        block = rng.uniform(0.5, 2.0, size=(20, 2, 3))
        site.update(1, block)
        initial = np.broadcast_to(np.array([[0.0], [1.0]]), (7, 2, 3))
        assert site.max_train_timestep == 20
        np.testing.assert_array_equal(site.stats[:13],
                                      0.75 * before + 0.25 * block[:13])
        np.testing.assert_array_equal(site.stats[13:],
                                      0.75 * initial + 0.25 * block[13:])

    def test_running_rows_and_untrained_default(self):
        site = BNSiteStats(2, dtype=np.float32)
        mean, var = site.running(5)
        np.testing.assert_array_equal(mean, [[0.0, 0.0]])
        np.testing.assert_array_equal(var, [[1.0, 1.0]])
        assert mean.dtype == np.float32
        site.update(2, np.ones((2, 2, 2), np.float32))
        mean, var = site.running(5)  # steps 1..3 exist
        assert mean.shape == var.shape == (3, 2)
        np.testing.assert_array_equal(site.running(2)[0], mean[:2])

    def test_no_attributes_beyond_stats(self):
        site = BNSiteStats(2)
        with pytest.raises(AttributeError):
            site.means = []


class TestSgnSte:
    def test_forward_and_mask(self):
        h = ad.Tensor(np.array([0.5, -2.0, 0.0, 1.5, -0.9]))
        out = sgn_ste(h)
        np.testing.assert_array_equal(out.value, [1, -1, 1, 1, -1])
        out2 = wsum(out, np.ones(5))
        out2.backward()
        np.testing.assert_array_equal(h.grad, [1, 0, 1, 0, 1])

    def test_plain_array(self):
        np.testing.assert_array_equal(sgn_ste(np.array([-0.1, 0.0, 3.0])),
                                      [-1, 1, 1])

    def test_arctanh_preserves_signs(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.999, 0.999, size=1000)
        pre = ad.arctanh_clamped(x)
        np.testing.assert_array_equal(sgn_ste(pre), sgn_ste(x))


class TestAdam:
    def test_first_step_hand_value(self):
        p = Parameter(np.array([1.0]), "p")
        p.grad[:] = 1.0
        cfg = AdamConfig(lr=0.1)
        adam_step([p], cfg)
        # m_hat = v_hat = 1 after bias correction: step is lr/(1 + eps)
        np.testing.assert_allclose(p.value, [1.0 - 0.1 / (1 + 1e-8)],
                                   atol=1e-6)
        np.testing.assert_allclose(p.value, [0.9], atol=1e-6)
        assert cfg.step == 1
        assert np.all(p.grad == 0)

    def test_zero_gradient_identity(self):
        rng = np.random.default_rng(4)
        p = Parameter(rng.normal(size=(3, 3)), "p")
        before = p.value.copy()
        adam_step([p], AdamConfig(lr=0.5))
        np.testing.assert_array_equal(p.value, before)

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            p = Parameter(rng.normal(size=4), "p")
            cfg = AdamConfig(lr=0.01)
            for _ in range(10):
                p.grad[:] = rng.normal(size=4)
                adam_step([p], cfg)
            return p.value.tobytes()

        assert run() == run()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_textbook_update_bit_for_bit(self, dtype):
        # adam_step works in two buffers; every rounding must stay the same
        rng = np.random.default_rng(8)
        p = Parameter(rng.normal(size=(5, 7)).astype(dtype), "p")
        value, m, v = p.value.copy(), p.m.copy(), p.v.copy()
        cfg = AdamConfig(lr=3e-3)
        b1, b2 = BETA1, BETA2
        for t in range(1, 8):
            g = (rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-6, 3)
                 ).astype(dtype)
            p.grad[...] = g
            adam_step([p], cfg)
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (g * g) * (1.0 - b2)
            value -= cfg.lr * (m / (1.0 - b1 ** t)) / (
                np.sqrt(v / (1.0 - b2 ** t)) + EPS_HAT)
            for got, want in ((p.value, value), (p.m, m), (p.v, v)):
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_non_finite_gradient(self):
        p = Parameter(np.zeros(2), "p")
        p.grad[:] = [np.nan, 0.0]
        with pytest.raises(NonFiniteGradient):
            adam_step([p], AdamConfig())

    def test_overflowing_square_leaves_parameter_untouched(self):
        # 1e20 is finite in float32 but its square is not: Adam would
        # store v = inf and that coordinate would never move again
        p = Parameter(np.array([0.5, -0.25], np.float32), "p")
        cfg = AdamConfig(lr=0.1)
        p.grad[:] = [0.1, 0.2]
        adam_step([p], cfg)
        state = [a.copy() for a in (p.value, p.m, p.v)]
        p.grad[:] = [1e20, 0.0]
        with np.errstate(over="raise"):
            with pytest.raises(NonFiniteGradient, match="'p'"):
                adam_step([p], cfg)
        for before, after in zip(state, (p.value, p.m, p.v)):
            np.testing.assert_array_equal(after, before)


class TestGradCheck:
    def test_quadratic(self):
        rng = np.random.default_rng(6)
        p = Parameter(rng.normal(size=7), "p")

        def loss():
            return scale(sum_all(square(p)), 0.5)

        assert grad_check(loss, [p], h=1e-5) <= 1e-8

    def test_unused_parameter(self):
        rng = np.random.default_rng(7)
        p = Parameter(rng.normal(size=3), "p")
        q = Parameter(rng.normal(size=3), "q")

        def loss():
            return sum_all(square(p))

        assert grad_check(loss, [p, q], h=1e-5) <= 1e-8

    def test_nondeterministic_loss_detected(self):
        state = {"n": 0.0}
        p = Parameter(np.ones(1), "p")

        def loss():
            state["n"] += 1.0
            return scale(sum_all(p), state["n"])

        with pytest.raises(NonDeterministicLoss):
            grad_check(loss, [p])
