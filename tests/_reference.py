"""Step-by-step and per-item references of code that runs vectorized.

The small tape ops below (:func:`add`, :func:`mul`, :func:`wsum`, ...)
each take a few lines of gradient; the references are built from them.

``evhash.model.bnlstm_layer`` runs a whole layer fused, with a
hand-written backward pass, and folds running-mode BN into constants.
The tests hold it to this per-step form, which advances one cell by one
timestep (:func:`bnlstm_cell_step`, normalizing through
:func:`bn_transform`).

``evhash.losses.batch_loss`` builds each loss term as one node over the
packed batch. :func:`batch_loss_per_item` builds the memory and
diversity terms item by item and pair by pair from the small ops, and
training must match it bit for bit.

``evhash.hashing.detect_event_ends`` tests its thresholds over the whole
distance series at once; :func:`detect_event_ends_per_step` walks the
steps one by one, taking each trailing window's mean on its own.

``evhash.hashing.pool_events`` sums every event's window of code rows in
one ``reduceat``; :func:`pool_events_per_event` takes the majority of
each window on its own, and :func:`pool_event_hash` pools one event.

``evhash.index.query_topk`` scores every entry of a database at once;
:func:`video_distance` and :func:`event_min_distance` run the same
kernel on a one-entry store.

``evhash.ingest._area_weights`` builds the box-filter weights in whole
arrays; :func:`area_weights` walks them one source pixel at a time.

The finite-difference harness: :func:`grad_check` compares tape
gradients with central differences, and :func:`sgn_surrogate`, patched
over ``evhash.model.sgn_ste``, makes the training loss continuous enough
for it.
"""

import numpy as np
from scipy.special import expit

from evhash import autodiff as ad
from evhash.autodiff import Tensor, addn, gather_rows, val
from evhash.errors import (BadRange, BatchTooSmall, DataError, LengthMismatch,
                           ShapeMismatch)
from evhash.hashing import pool_events
from evhash.index import _entry_totals, _Store, _words
from evhash.losses import recon_loss_packed, total_loss
from evhash.model import _adjacent_hamming, forward_batch_train, prepare_inputs
from evhash.numerics import BNSiteStats, bn_centered_grad, bn_normalize


# -- small tape ops -------------------------------------------------------
#
# Every op accepts Tensor or ndarray operands. With no Tensor among them
# it reduces to plain numpy.


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return a + b
    av, bv = val(a), val(b)
    out_v = av + bv

    def bwd(g):
        if ta:
            ad._buf(a)[...] += _unbroadcast(g, av.shape)
        if tb:
            ad._buf(b)[...] += _unbroadcast(g, bv.shape)

    return Tensor(out_v, tuple(x for x in (a, b) if isinstance(x, Tensor)), bwd)


def sub(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return a - b
    av, bv = val(a), val(b)
    out_v = av - bv

    def bwd(g):
        if ta:
            ad._buf(a)[...] += _unbroadcast(g, av.shape)
        if tb:
            ad._buf(b)[...] -= _unbroadcast(g, bv.shape)

    return Tensor(out_v, tuple(x for x in (a, b) if isinstance(x, Tensor)), bwd)


def mul(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return a * b
    av, bv = val(a), val(b)
    out_v = av * bv

    def bwd(g):
        if ta:
            ad._buf(a)[...] += _unbroadcast(g * bv, av.shape)
        if tb:
            ad._buf(b)[...] += _unbroadcast(g * av, bv.shape)

    return Tensor(out_v, tuple(x for x in (a, b) if isinstance(x, Tensor)), bwd)


def scale(a, c):
    """a * c for a python/numpy constant c."""
    if not isinstance(a, Tensor):
        return a * c

    def bwd(g):
        ad._buf(a)[...] += g * c

    return Tensor(a.value * c, (a,), bwd)


def square(a):
    if not isinstance(a, Tensor):
        return a * a
    av = a.value

    def bwd(g):
        ad._buf(a)[...] += 2.0 * av * g

    return Tensor(av * av, (a,), bwd)


def sum_all(a):
    if not isinstance(a, Tensor):
        return np.asarray(a).sum()
    av = a.value

    def bwd(g):
        ad._buf(a)[...] += g

    return Tensor(np.asarray(av.sum()), (a,), bwd)


def wsum(a, w):
    """Scalar sum(a * w) for a constant weight array w (broadcastable)."""
    av = val(a)
    out_v = np.asarray((av * w).sum())
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        ad._buf(a)[...] += g * np.broadcast_to(w, av.shape)

    return Tensor(out_v, (a,), bwd)


def slice_rows(a, start, stop):
    av = val(a)
    out_v = av[start:stop]
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        ad._buf(a)[start:stop] += g

    return Tensor(out_v, (a,), bwd)


def slice_cols(a, start, stop):
    av = val(a)
    out_v = av[:, start:stop]
    if not isinstance(a, Tensor):
        return out_v

    def bwd(g):
        ad._buf(a)[:, start:stop] += g

    return Tensor(out_v, (a,), bwd)


# -- batch normalization, one timestep -----------------------------------


def stats_for(stats: BNSiteStats, t: int):
    """(mean, var) a site applies in inference at timestep t."""
    mean, var = stats.running(t)
    return mean[-1], var[-1]


def _bn_input_grad(g_xhat, xhat, inv):
    """Gradient w.r.t. a batch-normalized input, given the gradient
    w.r.t. its normalized value ``xhat``; it flows through the batch
    mean and variance too."""
    n = xhat.shape[0]
    gx = np.einsum("bd,bd->d", g_xhat, xhat) / n
    return bn_centered_grad(g_xhat - g_xhat.sum(axis=0) / n, xhat, gx, inv)


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
        mean, var = stats_for(stats, t)
        inv = 1.0 / np.sqrt(var + stats.eps)
        out = mul(sub(h, mean), mul(gamma, inv))
        if beta is not None:
            out = add(out, beta)
        return out
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")

    xhat, mu, var, inv = bn_normalize(hv, stats.eps)
    if update_stats:
        stats.update(t, np.stack((mu, var))[None])
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


# -- one BN-LSTM cell, one timestep --------------------------------------


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
        ma, va_ = stats_for(stats_a, t)
        mb, vb_ = stats_for(stats_b, t)
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
    gates = (sigmoid(slice_cols(pre, 0, d)),
             sigmoid(slice_cols(pre, d, 2 * d)),
             sigmoid(slice_cols(pre, 3 * d, 4 * d)))
    return h_t, c_t, gates


# -- the loss terms, item by item ---------------------------------------


def memory_loss_graph(gates, d_series, th: int, L: int):
    """``evhash.losses.memory_loss`` of one item on the tape, from the
    small ops."""
    f, i, o = gates
    m_e = val(f).shape[0]
    d_series = np.asarray(d_series, dtype=np.float64)
    if d_series.shape[0] != m_e - 1:
        raise LengthMismatch(
            f"{m_e} gate steps need {m_e - 1} distances, got {d_series.shape[0]}")
    if m_e == 1:
        return np.asarray(0.0)
    ft = slice_rows(f, 0, m_e - 1)
    it = slice_rows(i, 0, m_e - 1)
    ot = slice_rows(o, 0, m_e - 1)
    transition = addn([square(ft), square(ot), square(sub(1.0, it))])
    within = add(sub(2.0, add(square(ft), square(ot))), square(it))
    is_trans = (d_series >= th)
    w_trans = (d_series * is_trans)[:, None] / (3.0 * L * L * m_e)
    w_within = (d_series * ~is_trans)[:, None] / (3.0 * L * L * m_e)
    return add(wsum(transition, w_trans), wsum(within, w_within))


def diversity_loss_graph(codes_list, L: int):
    """``evhash.losses.diversity_loss`` on the tape, one pair at a time."""
    b = len(codes_list)
    if b < 2:
        raise BatchTooSmall("diversity needs at least 2 videos")
    terms = []
    for j in range(b - 1):
        for k in range(j + 1, b):
            cj, ck = codes_list[j], codes_list[k]
            t = min(val(cj).shape[0], val(ck).shape[0])
            dot = sum_all(mul(slice_rows(cj, 0, t), slice_rows(ck, 0, t)))
            terms.append(scale(add(dot, float(t * L)), 1.0 / (2.0 * L * t)))
    return scale(addn(terms), 2.0 / (b * (b - 1)))


def batch_loss_per_item(model, seqs, th: int):
    """``evhash.losses.batch_loss`` with the memory and diversity terms
    built item by item and pair by pair: 6 nodes per pair and about 20
    per item."""
    inputs = prepare_inputs(seqs, model.dtype)
    fwd = forward_batch_train(seqs, model, inputs=inputs)
    L, b = model.L, len(seqs)
    m_lens = fwd.inp.lengths
    step, item = fwd.inp.steps_items()
    row_w = 1.0 / (b * L * m_lens[item].astype(np.float64))
    recon_term, row_sq = recon_loss_packed(
        fwd.recon, inputs, fwd.dec.offsets[step] + item, row_w)
    recon_vals = np.bincount(item, weights=row_sq, minlength=b) / (L * m_lens)

    per_video_mem, mem_vals, codes_items = [], [], []
    for i in range(b):
        rows = fwd.enc.item_rows(i)
        codes = gather_rows(fwd.codes, rows)
        codes_items.append(codes)
        d_series = _adjacent_hamming(val(codes) > 0)
        g = gather_rows(fwd.gates, rows)
        gates = tuple(slice_cols(g, j * L, (j + 1) * L) for j in range(3))
        ml = memory_loss_graph(gates, d_series, th, L)
        per_video_mem.append(ml)
        mem_vals.append(float(val(ml)))
    div = diversity_loss_graph(codes_items, L)
    total = addn([recon_term, scale(addn(per_video_mem), 1.0 / b), div])
    return total, total_loss(recon_vals, mem_vals, float(val(div)))


# -- ingest, one weight at a time ----------------------------------------


def area_weights(n_src: int, n_dst: int) -> np.ndarray:
    """``evhash.ingest._area_weights`` one overlap at a time."""
    w = np.zeros((n_dst, n_src))
    step = n_src / n_dst
    for i in range(n_dst):
        lo, hi = i * step, (i + 1) * step
        first, last = int(np.floor(lo)), min(int(np.ceil(hi)), n_src)
        for s in range(first, last):
            overlap = min(hi, s + 1) - max(lo, s)
            if overlap > 0:
                w[i, s] = overlap / step
    return w


# -- event detection and pooling, one at a time ---------------------------


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


def pool_event_hash(codes, event_end: int, prev_end: int, P: int):
    """Bitwise majority over the last min(P, event length) code rows.

    ``codes`` is (M_e, L) in {0, 1}; steps are 1-based and the event
    covers (prev_end, event_end]. An even split votes 1. This is the
    one-event case of ``evhash.hashing.pool_events``.
    """
    if not 0 <= prev_end < event_end <= len(codes):
        raise BadRange(f"bad event range ({prev_end}, {event_end}] "
                       f"for {len(codes)} steps")
    return pool_events(codes[prev_end:], [event_end - prev_end], P)[0]


# -- distances to one database entry -------------------------------------


def _single_entry_total(q_bits, entry):
    L = q_bits.shape[1]
    store = _Store(L)
    store.extend(["entry"], [entry])
    return int(_entry_totals(_words(q_bits, L), store)[0])


def event_min_distance(query_event, entry):
    """Min Hamming distance from one L-bit query event to the entry's events."""
    return _single_entry_total(query_event[None, :], entry)


def video_distance(query, entry):
    """Mean over query events of the per-event minimum Hamming distance."""
    return _single_entry_total(query.events, entry) / query.E


# -- finite-difference gradient checking -----------------------------------


def sgn_surrogate(h):
    """The clipped identity underlying the straight-through estimator.

    Same backward mask as ``evhash.numerics.sgn_ste`` but a continuous
    forward, so losses built on it admit finite-difference gradient
    verification (away from the kinks at +-1).
    """
    hv = val(h)
    out_v = np.clip(hv, -1.0, 1.0)
    if not isinstance(h, Tensor):
        return out_v
    mask = (np.abs(hv) <= 1.0).astype(hv.dtype)

    def bwd(g):
        ad._buf(h)[...] += g * mask

    return Tensor(out_v, (h,), bwd)


class NonDeterministicLoss(DataError):
    """A loss function gave two values for the same parameters."""


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
