"""Differentiable building blocks: per-timestep batch normalization,
straight-through binarization, Adam, and a finite-difference checker.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, val
from .errors import NonDeterministicLoss, NonFiniteGradient, ShapeMismatch


class Parameter(ad.Leaf):
    """Trainable tensor with persistent gradient and Adam moments."""

    __slots__ = ("name", "m", "v")

    def __init__(self, value, name=""):
        super().__init__(value)
        self.name = name
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)


class BNSiteStats:
    """Running normalization statistics, kept per timestep.

    Timesteps are 1-based. Statistics exist for 1..max_train_timestep and
    are extended on the fly during training; inference at a later timestep
    reuses the statistics of the largest trained one. A site that was
    never trained normalizes with (mean 0, variance 1), its initial state.
    """

    def __init__(self, dim, momentum=0.1, eps=1e-5, dtype=np.float64):
        self.dim = int(dim)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.dtype = np.dtype(dtype)
        self.means: list[np.ndarray] = []
        self.vars: list[np.ndarray] = []

    @property
    def max_train_timestep(self) -> int:
        return len(self.means)

    def stats_for(self, t: int):
        """(mean, var) used in inference at timestep t."""
        if not self.means:
            z = np.zeros(self.dim, dtype=self.dtype)
            return z, np.ones(self.dim, dtype=self.dtype)
        i = min(t, len(self.means)) - 1
        return self.means[i], self.vars[i]

    def update(self, t: int, batch_mean, batch_var):
        while len(self.means) < t:
            self.means.append(np.zeros(self.dim, dtype=self.dtype))
            self.vars.append(np.ones(self.dim, dtype=self.dtype))
        m = self.momentum
        i = t - 1
        self.means[i] = (1.0 - m) * self.means[i] + m * batch_mean
        self.vars[i] = (1.0 - m) * self.vars[i] + m * batch_var


class AdamConfig:
    """Adam hyperparameters plus the shared step counter."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps_hat=1e-8):
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if lr < 0:
            raise ValueError("lr must be nonnegative")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps_hat = float(eps_hat)
        self.step = 0


# -- batch normalization -------------------------------------------------


def bn_normalize(x, eps, out=None):
    """(x - mean) / sqrt(var + eps) over the batch axis (axis 0).

    Returns (xhat, mean, var, inv) with the population variance and
    inv = 1 / sqrt(var + eps). ``out`` may be ``x`` itself, which
    normalizes in place. Shared by the per-step tape ops below and the
    fused layer in ``model``.
    """
    n = x.shape[0]
    mu = x.sum(axis=0) / n
    xhat = np.subtract(x, mu, out=out)
    var = np.einsum("bd,bd->d", xhat, xhat) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return xhat, mu, var, inv


def _bn_input_grad(g_xhat, xhat, inv):
    """Gradient w.r.t. a batch-normalized input, given the gradient
    w.r.t. its normalized value ``xhat``; it flows through the batch
    mean and variance too."""
    n = xhat.shape[0]
    gx = np.einsum("bd,bd->d", g_xhat, xhat) / n
    return bn_centered_grad(g_xhat - g_xhat.sum(axis=0) / n, xhat, gx, inv)


def bn_centered_grad(g_centered, xhat, gx, scale, out=None):
    """scale * (g_centered - xhat * gx): :func:`_bn_input_grad` for a
    caller that already holds the batch sums.

    ``g_centered`` is the gradient w.r.t. xhat minus its batch mean, ``gx``
    the batch mean of that gradient times xhat, and ``scale`` is inv
    times any per-feature factor folded into the gradient. ``out`` may be
    ``xhat``, which it then overwrites.
    """
    out = np.multiply(xhat, gx, out=out)
    np.subtract(g_centered, out, out=out)
    out *= scale
    return out


def bn_transform(h, gamma, beta, stats: BNSiteStats, t: int, mode: str,
                 update_stats: bool = True):
    """beta + gamma * (h - mean) / sqrt(var + eps) over the batch axis.

    ``mode='train'`` normalizes with the current batch's statistics (and
    momentum-updates the running ones); gradients flow through the batch
    mean and variance. ``mode='infer'`` applies the stored running
    statistics for timestep ``t``. ``beta`` may be None for sites whose
    shift is fixed at zero.
    """
    hv = val(h)
    if hv.ndim != 2 or hv.shape[1] != stats.dim:
        raise ShapeMismatch(
            f"expected (batch, {stats.dim}) pre-activations, got {hv.shape}")
    gv = val(gamma)
    bv = None if beta is None else val(beta)

    if mode == "infer":
        mean, var = stats.stats_for(t)
        inv = 1.0 / np.sqrt(var + stats.eps)
        out = ad.mul(ad.sub(h, mean), ad.mul(gamma, inv))
        if beta is not None:
            out = ad.add(out, beta)
        return out
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")

    xhat, mu, var, inv = bn_normalize(hv, stats.eps)
    if update_stats:
        stats.update(t, mu, var)
    out_v = gv * xhat
    if bv is not None:
        out_v = out_v + bv
    if not isinstance(h, Tensor) and not isinstance(gamma, Tensor) \
            and not isinstance(beta, Tensor):
        return out_v

    parents = tuple(x for x in (h, gamma, beta) if isinstance(x, Tensor))

    def bwd(g):
        if isinstance(gamma, Tensor):
            ad._buf(gamma)[...] += (g * xhat).sum(axis=0)
        if isinstance(beta, Tensor):
            ad._buf(beta)[...] += g.sum(axis=0)
        if isinstance(h, Tensor):
            ad._buf(h)[...] += _bn_input_grad(g * gv, xhat, inv)

    return Tensor(out_v, parents, bwd)


def bn2_add(a, b, gamma_a, gamma_b, bias,
            stats_a: BNSiteStats, stats_b: BNSiteStats, t: int, mode: str,
            update_stats: bool = True):
    """BN(a; gamma_a) + BN(b; gamma_b) + bias as one fused node.

    Both shift vectors are fixed at zero; the single bias covers them.
    The whole expression is one tape node instead of five. Training and
    inference both run the fused layer of ``model``; this per-step form
    is only the step-by-step reference that layer is tested against, in
    both modes.
    """
    av, bv = val(a), val(b)
    ga, gb, bias_v = val(gamma_a), val(gamma_b), val(bias)

    if mode == "infer":
        ma, va_ = stats_a.stats_for(t)
        mb, vb_ = stats_b.stats_for(t)
        out = (av - ma) * (ga / np.sqrt(va_ + stats_a.eps)) \
            + (bv - mb) * (gb / np.sqrt(vb_ + stats_b.eps)) + bias_v
        if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
            return out
        raise ValueError("inference bn2_add expects plain arrays")
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")

    xa, mu_a, var_a, inv_a = bn_normalize(av, stats_a.eps)
    xb, mu_b, var_b, inv_b = bn_normalize(bv, stats_b.eps)
    if update_stats:
        stats_a.update(t, mu_a, var_a)
        stats_b.update(t, mu_b, var_b)
    out_v = ga * xa
    out_v += gb * xb
    out_v += bias_v

    live = tuple(x for x in (a, b, gamma_a, gamma_b, bias)
                 if isinstance(x, Tensor))
    if not live:
        return out_v

    def bwd(g):
        if isinstance(gamma_a, Tensor):
            ad._buf(gamma_a)[...] += np.einsum("bd,bd->d", g, xa)
        if isinstance(gamma_b, Tensor):
            ad._buf(gamma_b)[...] += np.einsum("bd,bd->d", g, xb)
        if isinstance(bias, Tensor):
            ad._buf(bias)[...] += g.sum(axis=0)
        if isinstance(a, Tensor):
            ad._buf(a)[...] += _bn_input_grad(g * ga, xa, inv_a)
        if isinstance(b, Tensor):
            ad._buf(b)[...] += _bn_input_grad(g * gb, xb, inv_b)

    return Tensor(out_v, live, bwd)


# -- straight-through binarization ---------------------------------------


def sgn_ste(h):
    """Hard sign forward (+1 at zero); clipped-identity gradient.

    The backward pass multiplies the upstream gradient by 1 where
    |h| <= 1 and by 0 elsewhere.
    """
    hv = val(h)
    out_v = np.where(hv >= 0, 1.0, -1.0).astype(hv.dtype)
    if not isinstance(h, Tensor):
        return out_v
    mask = (np.abs(hv) <= 1.0).astype(hv.dtype)

    def bwd(g):
        ad._buf(h)[...] += g * mask

    return Tensor(out_v, (h,), bwd)


def sgn_surrogate(h):
    """The clipped identity underlying the straight-through estimator.

    Same backward mask as :func:`sgn_ste` but a continuous forward, so
    losses built on it admit finite-difference gradient verification
    (away from the kinks at +-1).
    """
    hv = val(h)
    out_v = np.clip(hv, -1.0, 1.0)
    if not isinstance(h, Tensor):
        return out_v
    mask = (np.abs(hv) <= 1.0).astype(hv.dtype)

    def bwd(g):
        ad._buf(h)[...] += g * mask

    return Tensor(out_v, (h,), bwd)


# -- optimizer ------------------------------------------------------------


def adam_step(params, cfg: AdamConfig):
    """Bias-corrected Adam update, in place. Gradients are zeroed after."""
    cfg.step += 1
    c1 = 1.0 - cfg.beta1 ** cfg.step
    c2 = 1.0 - cfg.beta2 ** cfg.step
    for p in params:
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {p.name!r}")
        p.m *= cfg.beta1
        p.m += (1.0 - cfg.beta1) * g
        p.v *= cfg.beta2
        p.v += (1.0 - cfg.beta2) * (g * g)
        p.value -= cfg.lr * (p.m / c1) / (np.sqrt(p.v / c2) + cfg.eps_hat)
        g[...] = 0.0


# -- gradient checking -----------------------------------------------------


def grad_check(loss_fn, params, h=1e-4):
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` must rebuild the loss from the parameters' current values
    and return a scalar Tensor. It is evaluated twice up front; any
    disagreement raises NonDeterministicLoss.

    The error for one parameter tensor is the Euclidean norm of
    (analytic - numeric) over max(|analytic|, |numeric|, 1e-12) in the
    same norm; the result is the max over parameters. Comparing whole
    tensors keeps the check meaningful in double precision: individual
    coordinates whose true gradient sits below the finite-difference
    resolution (|g| ~ ulp(loss)/h) would otherwise read as pure noise.
    """
    v1 = float(val(loss_fn()))
    v2 = float(val(loss_fn()))
    if v1 != v2:
        raise NonDeterministicLoss(f"loss evaluated to {v1} then {v2}")

    for p in params:
        p.grad[...] = 0.0
    loss_fn().backward()
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.grad[...] = 0.0

    max_rel = 0.0
    for p, ana in zip(params, analytic):
        flat = p.value.reshape(-1)
        num = np.empty_like(ana.reshape(-1))
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(val(loss_fn()))
            flat[i] = orig - h
            lm = float(val(loss_fn()))
            flat[i] = orig
            num[i] = (lp - lm) / (2.0 * h)
        diff = np.linalg.norm(ana.reshape(-1) - num)
        denom = max(np.linalg.norm(ana), np.linalg.norm(num), 1e-12)
        max_rel = max(max_rel, diff / denom)
    return max_rel
