"""Step-by-step references of code that runs vectorized.

``evhash.model.bnlstm_layer`` runs a whole layer fused, with a
hand-written backward pass, and folds running-mode BN into constants.
The tests hold it to this per-step form, which advances one cell by one
timestep from tape ops whose gradients are each a few lines.

``evhash.hashing.detect_event_ends`` tests its thresholds over the whole
distance series at once; :func:`detect_event_ends_per_step` walks the
steps one by one, taking each trailing window's mean on its own.

``evhash.hashing.pool_events`` sums every event's window of code rows in
one ``reduceat``; :func:`pool_events_per_event` takes the majority of
each window on its own.
"""

import numpy as np
from scipy.special import expit

from evhash import autodiff as ad
from evhash.autodiff import Tensor, val
from evhash.errors import ShapeMismatch
from evhash.numerics import BNSiteStats, _bn_input_grad, bn_normalize, \
    bn_transform


def matmul(a, b):
    """a @ b for 2-D operands."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return a @ b
    av, bv = val(a), val(b)

    def bwd(g):
        if ta:
            ad._buf(a)[...] += g @ bv.T
        if tb:
            ad._buf(b)[...] += av.T @ g

    return Tensor(av @ bv, tuple(x for x in (a, b) if isinstance(x, Tensor)),
                  bwd)


def sigmoid(a):
    s = expit(val(a))
    if not isinstance(a, Tensor):
        return s

    def bwd(g):
        ad._buf(a)[...] += g * s * (1.0 - s)

    return Tensor(s, (a,), bwd)


def bn2_add(a, b, gamma_a, gamma_b, bias,
            stats_a: BNSiteStats, stats_b: BNSiteStats, t: int, mode: str,
            update_stats: bool = True):
    """BN(a; gamma_a) + BN(b; gamma_b) + bias as one node.

    Both shift vectors are fixed at zero; the single bias covers them.
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
        stats_a.update(t, np.stack((mu_a, var_a))[None])
        stats_b.update(t, np.stack((mu_b, var_b))[None])
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


def _cell_state(pre, c_prev, d):
    """c_t = sigmoid(f) * c_prev + sigmoid(i) * tanh(g), one tape node."""
    pv, cv = val(pre), val(c_prev)
    sf = expit(pv[:, :d])
    si = expit(pv[:, d:2 * d])
    tg = np.tanh(pv[:, 2 * d:3 * d])
    out_v = sf * cv + si * tg
    if not (isinstance(pre, Tensor) or isinstance(c_prev, Tensor)):
        return out_v

    def bwd(g):
        if isinstance(pre, Tensor):
            gp = ad._buf(pre)
            gp[:, :d] += g * cv * sf * (1.0 - sf)
            gp[:, d:2 * d] += g * tg * si * (1.0 - si)
            gp[:, 2 * d:3 * d] += g * si * (1.0 - tg * tg)
        if isinstance(c_prev, Tensor):
            ad._buf(c_prev)[...] += g * sf

    parents = tuple(x for x in (pre, c_prev) if isinstance(x, Tensor))
    return Tensor(out_v, parents, bwd)


def _cell_out(pre, bn_c, d):
    """h_t = sigmoid(o) * tanh(bn_c), one tape node."""
    pv, bv = val(pre), val(bn_c)
    so = expit(pv[:, 3 * d:])
    th = np.tanh(bv)
    out_v = so * th
    if not (isinstance(pre, Tensor) or isinstance(bn_c, Tensor)):
        return out_v

    def bwd(g):
        if isinstance(pre, Tensor):
            ad._buf(pre)[:, 3 * d:] += g * th * so * (1.0 - so)
        if isinstance(bn_c, Tensor):
            ad._buf(bn_c)[...] += g * so * (1.0 - th * th)

    parents = tuple(x for x in (pre, bn_c) if isinstance(x, Tensor))
    return Tensor(out_v, parents, bwd)


def bnlstm_cell_step(x_t, h_prev, c_prev, cell, t: int, mode: str,
                     update_stats: bool = True):
    """Advance one cell by one timestep.

    Returns (h_t, c_t, (f, i, o)) with post-sigmoid gate values. In
    training mode the inputs may be tape tensors and gradients flow
    through the batch statistics; in inference mode plain arrays go in
    and come out, normalized with the running statistics of step t.
    """
    if val(x_t).shape[-1] != cell.d_x or val(h_prev).shape[-1] != cell.d_h:
        raise ShapeMismatch(
            f"cell expects inputs of width {cell.d_x}/{cell.d_h}, got "
            f"{val(x_t).shape}/{val(h_prev).shape}")
    if mode == "infer":
        wh, wx = cell.W_h.value, cell.W_x.value
        gh, gx, bb = cell.gamma_h.value, cell.gamma_x.value, cell.b.value
        gc, bc = cell.gamma_c.value, cell.beta_c.value
    else:
        wh, wx = cell.W_h, cell.W_x
        gh, gx, bb = cell.gamma_h, cell.gamma_x, cell.b
        gc, bc = cell.gamma_c, cell.beta_c
    pre = bn2_add(matmul(h_prev, wh), matmul(x_t, wx),
                  gh, gx, bb, cell.site_h, cell.site_x, t, mode, update_stats)
    c_t = _cell_state(pre, c_prev, cell.d_h)
    bn_c = bn_transform(c_t, gc, bc, cell.site_c, t, mode, update_stats)
    h_t = _cell_out(pre, bn_c, cell.d_h)
    d = cell.d_h
    gates = (sigmoid(ad.slice_cols(pre, 0, d)),
             sigmoid(ad.slice_cols(pre, d, 2 * d)),
             sigmoid(ad.slice_cols(pre, 3 * d, 4 * d)))
    return h_t, c_t, gates


def detect_event_ends_per_step(d_series, cfg, M_e):
    """``evhash.hashing.detect_event_ends`` one step at a time."""
    ends = []
    prev = 0
    w = cfg.window
    for t in range(1, M_e):
        if M_e - t < cfg.min_event_len:
            break
        d = d_series[t - 1]
        hit = d >= cfg.hard_threshold
        if not hit and t - 1 >= w:
            local = d_series[t - 1 - w:t - 1].mean()
            hit = d > cfg.multiplier * local
        if hit and t - prev >= cfg.min_event_len:
            ends.append(t)
            prev = t
    ends.append(M_e)
    return ends


def pool_events_per_event(codes, ends, P):
    """``evhash.hashing.pool_events`` one event at a time."""
    pooled = []
    prev = 0
    for end in ends:
        window = codes[max(prev, end - P):end]
        ones = window.sum(axis=0, dtype=np.int64)
        pooled.append((2 * ones >= len(window)).astype(np.uint8))
        prev = end
    return np.stack(pooled)
