"""Numerics under the model and its training: per-timestep BN
statistics and the batch-norm kernels the fused layer runs,
straight-through binarization, and Adam with the default betas of
Kingma & Ba (2015).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, val
from .errors import NonFiniteGradient

# Adam's moment decay rates and the denominator's epsilon
BETA1, BETA2, EPS_HAT = 0.9, 0.999, 1e-8


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

    ``stats`` is (T, 2, dim): the mean, then the variance, of each 1-based
    timestep 1..T (T = max_train_timestep), extended on the fly during
    training. Inference at a later timestep reuses step T's statistics; a
    site never trained normalizes with (mean 0, variance 1).
    """

    __slots__ = ("dim", "momentum", "eps", "stats")

    def __init__(self, dim, momentum=0.1, eps=1e-5, dtype=np.float64):
        self.dim = int(dim)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.stats = np.empty((0, 2, self.dim), dtype)

    @property
    def max_train_timestep(self) -> int:
        return len(self.stats)

    def _initial(self, n: int) -> np.ndarray:
        """n rows of the untrained statistics (mean 0, variance 1)."""
        return np.tile(np.array([[0.0], [1.0]], self.stats.dtype),
                       (n, 1, self.dim))

    def running(self, steps: int):
        """(means, vars), one row per step 1..min(steps, T); a site never
        trained gives one row of (0, 1)."""
        rows = self.stats[:steps] if len(self.stats) else self._initial(1)
        return rows[:, 0], rows[:, 1]

    def update(self, t: int, block):
        """Momentum-blend an (n, 2, dim) block of batch (mean, var) rows
        into steps t..t+n-1, first extending the site with (0, 1) rows."""
        end = t - 1 + len(block)
        if end > len(self.stats):
            self.stats = np.concatenate(
                (self.stats, self._initial(end - len(self.stats))))
        run, m = self.stats[t - 1:end], self.momentum
        run[...] = (1.0 - m) * run + m * block


class AdamConfig:
    """Adam's learning rate plus the shared step counter; the betas and
    epsilon are the constants BETA1, BETA2 and EPS_HAT."""

    def __init__(self, lr=1e-3):
        if lr < 0:
            raise ValueError("lr must be nonnegative")
        self.lr = float(lr)
        self.step = 0


# -- batch normalization -------------------------------------------------


def bn_normalize(x, eps, out=None):
    """(x - mean) / sqrt(var + eps) over the batch axis (axis 0).

    Returns (xhat, mean, var, inv) with the population variance and
    inv = 1 / sqrt(var + eps). ``out`` may be ``x`` itself, which
    normalizes in place. The fused layer in ``model`` runs it at every
    BN site.
    """
    n = x.shape[0]
    mu = x.sum(axis=0) / n
    xhat = np.subtract(x, mu, out=out)
    var = np.einsum("bd,bd->d", xhat, xhat) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return xhat, mu, var, inv


def bn_centered_grad(g_centered, xhat, gx, scale, out=None):
    """scale * (g_centered - xhat * gx): the gradient w.r.t. a
    batch-normalized input, which flows through the batch mean and
    variance too, for a caller that already holds the batch sums.

    ``g_centered`` is the gradient w.r.t. xhat minus its batch mean, ``gx``
    the batch mean of that gradient times xhat, and ``scale`` is inv
    times any per-feature factor folded into the gradient. ``out`` may be
    ``xhat``, which it then overwrites.
    """
    out = np.multiply(xhat, gx, out=out)
    np.subtract(g_centered, out, out=out)
    out *= scale
    return out


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


# -- optimizer ------------------------------------------------------------


def adam_step(params, cfg: AdamConfig):
    """Bias-corrected Adam update, in place; gradients are zeroed after. A
    gradient that is not finite or overflows when squared (an infinite v
    would freeze its coordinates) raises before its parameter changes."""
    cfg.step += 1
    c1 = 1.0 - BETA1 ** cfg.step
    c2 = 1.0 - BETA2 ** cfg.step
    for p in params:
        g = p.grad
        with np.errstate(over="ignore"):  # an overflow is reported below
            g2 = g * g
        if not np.all(np.isfinite(g2)):
            raise NonFiniteGradient(f"gradient of {p.name!r} is not finite "
                                    f"or overflows when squared")
        # g2 and one scratch array hold every temporary: the update is
        # lr * (m / c1) / (sqrt(v / c2) + EPS_HAT), in that order
        step = np.multiply(g, 1.0 - BETA1)
        p.m *= BETA1
        p.m += step
        p.v *= BETA2
        g2 *= 1.0 - BETA2
        p.v += g2
        denom = np.divide(p.v, c2, out=g2)
        np.sqrt(denom, out=denom)
        denom += EPS_HAT
        np.divide(p.m, c1, out=step)
        step *= cfg.lr
        step /= denom
        p.value -= step
        g[...] = 0.0

