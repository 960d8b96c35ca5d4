"""The recurrent binary autoencoder.

Encoder: four batch-normalized LSTM layers; the sequence is strided by 2
after layers 2 and 3 (keep the 1-based even timesteps plus a trailing odd
leftover), so M input frames become M_e = ceil(ceil(M/2)/2) steps. The
last layer's hidden states pass through a clamped arctanh and a
straight-through sign, giving one L-bit code per encoder step.

Decoder: the mirror stack. Codes run through a layer, are average-
upsampled by 2 (inserted steps are the mean of their flanking steps,
boundaries replicate), run through the next layer, upsampled again, then
through two more layers; a final clamped arctanh emits feature vectors,
cut to the requested length.

Training-mode forwards run on the autodiff tape and couple batch items
through the per-timestep batch statistics; batch items may have distinct
lengths, in which case the statistics at step t use the items that reach
t. A training batch is packed time-major into one (sum_t B_t, d) array,
B_t being the number of items still active at step t (see ``Layout``).
Each BN-LSTM layer is a single tape node over that array with a
hand-written BPTT backward, and the strides, upsamplings, arctanhs and
the sign are one node each, so a step's tape stays small whatever the
sequence length. Inference-mode forwards are plain numpy with running
statistics.

Checkpoint format MCBN (little-endian): magic "MCBN", version u8=1,
layer count u8, then per layer: d_x u32, d_h u32, the float32 tensors
W_h, W_x, b, gamma_h, gamma_x, gamma_c, beta_c, h0, c0, and the three
statistic sites (recurrent, input, cell), each as max_train_timestep u32
followed per timestep by a mean vector then a variance vector (float32).
After the layers: D u32, L u32, momentum f32, eps f32, max train input
length u32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import Tensor, val
from .errors import (
    BadMagic,
    EmptyCodes,
    EmptySequence,
    ShapeMismatch,
    TruncatedFile,
    UnsupportedVersion,
)
from .ingest import FeatureSequence
from .numerics import (BNSiteStats, Parameter, bn2_add, bn_centered_grad,
                       bn_normalize, bn_transform, sgn_ste, sgn_surrogate)

ARCTANH_MARGIN = 1e-6


class BNLSTMCell:
    """One recurrent layer: weights, affine BN parameters, initial state.

    The recurrent and input pre-activation terms are normalized
    separately (their shifts are fixed at zero; the bias b covers both);
    the cell state is normalized inside the output tanh only, so the
    cell update itself stays unnormalized. Each of the three sites keeps
    its own per-timestep running statistics.
    """

    FIELD_ORDER = ("W_h", "W_x", "b", "gamma_h", "gamma_x",
                   "gamma_c", "beta_c", "h0", "c0")

    def __init__(self, d_x: int, d_h: int, rng: np.random.Generator,
                 momentum=0.1, eps=1e-5, dtype=np.float64, tag=""):
        self.d_x = d_x
        self.d_h = d_h
        kx = 1.0 / np.sqrt(d_x)
        kh = 1.0 / np.sqrt(d_h)

        def par(value, name):
            return Parameter(np.asarray(value, dtype=dtype), f"{tag}.{name}")

        self.W_h = par(rng.uniform(-kh, kh, size=(d_h, 4 * d_h)), "W_h")
        self.W_x = par(rng.uniform(-kx, kx, size=(d_x, 4 * d_h)), "W_x")
        self.b = par(np.zeros(4 * d_h), "b")
        self.gamma_h = par(np.full(4 * d_h, 0.1), "gamma_h")
        self.gamma_x = par(np.full(4 * d_h, 0.1), "gamma_x")
        self.gamma_c = par(np.full(d_h, 0.1), "gamma_c")
        self.beta_c = par(np.zeros(d_h), "beta_c")
        self.h0 = par(np.zeros(d_h), "h0")
        self.c0 = par(np.zeros(d_h), "c0")
        self.site_h = BNSiteStats(4 * d_h, momentum, eps, dtype)
        self.site_x = BNSiteStats(4 * d_h, momentum, eps, dtype)
        self.site_c = BNSiteStats(d_h, momentum, eps, dtype)
        self.workspace = None  # the fused training layer's arrays

    def parameters(self):
        return [getattr(self, name) for name in self.FIELD_ORDER]

    def sites(self):
        return [self.site_h, self.site_x, self.site_c]


# -- single step ----------------------------------------------------------


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


def bnlstm_cell_step(x_t, h_prev, c_prev, cell: BNLSTMCell, t: int,
                     mode: str, update_stats: bool = True):
    """Advance one cell by one timestep.

    Returns (h_t, c_t, (f, i, o)) with post-sigmoid gate values. In
    training mode the inputs may be tape tensors and gradients flow
    through the batch statistics; in inference mode plain arrays go in
    and come out.
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
    pre = bn2_add(ad.matmul(h_prev, wh), ad.matmul(x_t, wx),
                  gh, gx, bb, cell.site_h, cell.site_x, t, mode, update_stats)
    c_t = _cell_state(pre, c_prev, cell.d_h)
    bn_c = bn_transform(c_t, gc, bc, cell.site_c, t, mode, update_stats)
    h_t = _cell_out(pre, bn_c, cell.d_h)
    d = cell.d_h
    gates = (ad.sigmoid(ad.slice_cols(pre, 0, d)),
             ad.sigmoid(ad.slice_cols(pre, d, 2 * d)),
             ad.sigmoid(ad.slice_cols(pre, 3 * d, 4 * d)))
    return h_t, c_t, gates


# -- stacks ----------------------------------------------------------------


class EncoderStack:
    """Two full-rate layers, stride, a third layer, stride, the code layer."""

    def __init__(self, D, hidden_dims, rng, momentum, eps, dtype):
        dims_in = (D, *hidden_dims[:-1])
        self.cells = [
            BNLSTMCell(dx, dh, rng, momentum, eps, dtype, tag=f"enc{i + 1}")
            for i, (dx, dh) in enumerate(zip(dims_in, hidden_dims))
        ]
        self.L = hidden_dims[-1]


class DecoderStack:
    """The mirrored stack; its last hidden dimension equals D."""

    def __init__(self, D, enc_hidden_dims, rng, momentum, eps, dtype):
        hidden = (enc_hidden_dims[2], enc_hidden_dims[1],
                  enc_hidden_dims[0], D)
        dims_in = (enc_hidden_dims[-1], *hidden[:-1])
        self.cells = [
            BNLSTMCell(dx, dh, rng, momentum, eps, dtype, tag=f"dec{i + 1}")
            for i, (dx, dh) in enumerate(zip(dims_in, hidden))
        ]


class Autoencoder:
    def __init__(self, D, L, encoder, decoder, momentum, eps, dtype):
        self.D = D
        self.L = L
        self.encoder = encoder
        self.decoder = decoder
        self.momentum = momentum
        self.eps = eps
        self.dtype = np.dtype(dtype)
        self.max_input_len = 0  # longest feature sequence seen in training

    @property
    def cells(self):
        return self.encoder.cells + self.decoder.cells

    def parameters(self):
        return [p for cell in self.cells for p in cell.parameters()]


def build_model(D=1024, L=64, encoder_dims=(256, 256, 64), momentum=0.1,
                eps=1e-5, seed=0, dtype=np.float64) -> Autoencoder:
    """Construct a freshly initialized autoencoder.

    Weights are uniform(-k, k) with k = 1/sqrt(fan-in); the BN scales
    start at 0.1; biases, shifts and initial states start at zero.
    """
    rng = np.random.default_rng(seed)
    hidden = (*encoder_dims, L)
    enc = EncoderStack(D, hidden, rng, momentum, eps, dtype)
    dec = DecoderStack(D, hidden, rng, momentum, eps, dtype)
    return Autoencoder(D, L, enc, dec, momentum, eps, dtype)


def encoder_len(M: int) -> int:
    """Number of encoder output steps for an M-frame feature sequence."""
    return -(-(-(-M // 2)) // 2)  # ceil(ceil(M/2)/2)


@dataclass
class EncodeResult:
    """Encoder outputs for one video."""

    codes: np.ndarray     # (M_e, L) uint8 in {0, 1}
    d_series: np.ndarray  # (M_e - 1,) adjacent Hamming distances
    gates: tuple          # (f, i, o), each (M_e, L) post-sigmoid
    M_e: int


def _adjacent_hamming(codes: np.ndarray) -> np.ndarray:
    if len(codes) < 2:
        return np.zeros(0, dtype=np.int64)
    return (codes[1:] != codes[:-1]).sum(axis=1).astype(np.int64)


# -- dense single-video inference ------------------------------------------


def _infer_layer(cell: BNLSTMCell, X: np.ndarray, gates: bool = False):
    """Run one cell over a (M, d_x) sequence with running statistics.

    With ``gates`` it returns (hidden states, (f, i, o) post-sigmoid
    gate records), otherwise the hidden states alone.
    """
    M = X.shape[0]
    d = cell.d_h
    mx = X @ cell.W_x.value
    h = cell.h0.value[None, :]
    c = cell.c0.value[None, :]
    out = np.empty((M, d), dtype=X.dtype)
    fio = tuple(np.empty((M, d), dtype=X.dtype) for _ in range(3)) \
        if gates else ()
    gh, gx, bb = cell.gamma_h.value, cell.gamma_x.value, cell.b.value
    for t in range(1, M + 1):
        pre = bn2_add(h @ cell.W_h.value, mx[t - 1:t], gh, gx, bb,
                      cell.site_h, cell.site_x, t, "infer")
        if gates:
            sig = expit(pre[0])
            fio[0][t - 1] = sig[:d]
            fio[1][t - 1] = sig[d:2 * d]
            fio[2][t - 1] = sig[3 * d:]
        c = _cell_state(pre, c, d)
        bn_c = bn_transform(c, cell.gamma_c.value, cell.beta_c.value,
                            cell.site_c, t, "infer")
        h = _cell_out(pre, bn_c, d)
        out[t - 1] = h[0]
    return (out, fio) if gates else out


def _stride_dense(X: np.ndarray) -> np.ndarray:
    """Keep 1-based even steps, plus the last step when the length is odd."""
    M = X.shape[0]
    idx = list(range(1, M, 2))
    if M % 2 == 1:
        idx.append(M - 1)
    return X[idx]


def _upsample_dense(X: np.ndarray) -> np.ndarray:
    """Double the length; inserted steps average their flanking steps."""
    n, d = X.shape
    out = np.empty((2 * n, d), dtype=X.dtype)
    out[0::2] = X
    out[1:2 * n - 1:2] = 0.5 * (X[:-1] + X[1:])
    out[2 * n - 1] = X[-1]
    return out


def _encoder_hidden_infer(model: Autoencoder, X: np.ndarray):
    """Layer-4 hidden states (M_e, L) and gate records, running stats."""
    e1, e2, e3, e4 = model.encoder.cells
    X = _infer_layer(e1, X)
    X = _infer_layer(e2, X)
    X = _infer_layer(e3, _stride_dense(X))
    return _infer_layer(e4, _stride_dense(X), gates=True)


def encode(seq: FeatureSequence, model: Autoencoder,
           mode: str = "infer") -> EncodeResult:
    """Encode one feature sequence into binary codes.

    The gate record comes from the last encoder layer; d_series[t] is the
    Hamming distance between codes t+1 and t.
    """
    if seq.M < 1:
        raise EmptySequence(f"{seq.video_id}: empty feature sequence")
    if not seq.normalized:
        raise ValueError(f"{seq.video_id}: encode expects normalized features")
    if seq.D != model.D:
        raise ShapeMismatch(f"features D={seq.D}, model D={model.D}")
    if mode == "train":
        fwd = forward_batch_train([seq], model, update_stats=False)
        return fwd.encode_results()[0]
    X = seq.features.astype(model.dtype)
    hidden, fio = _encoder_hidden_infer(model, X)
    pre_bin = np.arctanh(
        np.clip(hidden, -1 + ARCTANH_MARGIN, 1 - ARCTANH_MARGIN))
    codes = (pre_bin >= 0).astype(np.uint8)
    return EncodeResult(codes=codes, d_series=_adjacent_hamming(codes),
                        gates=fio, M_e=codes.shape[0])


def decode(codes: EncodeResult, model: Autoencoder, target_len: int,
           mode: str = "infer") -> np.ndarray:
    """Reconstruct (target_len, D) features from binary codes."""
    if codes.M_e < 1:
        raise EmptyCodes("no codes to decode")
    if mode != "infer":
        raise ValueError("training-mode decoding runs through the trainer")
    X = (codes.codes.astype(model.dtype) * 2.0 - 1.0)
    d1, d2, d3, d4 = model.decoder.cells
    X = _upsample_dense(_infer_layer(d1, X))
    X = _upsample_dense(_infer_layer(d2, X))
    X = _infer_layer(d4, _infer_layer(d3, X))
    out = np.arctanh(np.clip(X, -1 + ARCTANH_MARGIN, 1 - ARCTANH_MARGIN))
    if len(out) >= target_len:
        return out[:target_len]
    pad = np.repeat(out[-1:], target_len - len(out), axis=0)
    return np.concatenate([out, pad], axis=0)


def forward(seq: FeatureSequence, model: Autoencoder,
            mode: str = "infer"):
    """Encode then decode back to the input length."""
    if mode == "train":
        fwd = forward_batch_train([seq], model, update_stats=False)
        return fwd.reconstructions()[0], fwd.encode_results()[0]
    enc = encode(seq, model, mode)
    return decode(enc, model, seq.M, mode), enc


# -- packed training forward ------------------------------------------------


class Layout:
    """Row layout of a ragged batch packed time-major.

    Items are sorted by decreasing length, so the items active at 1-based
    step t are a prefix of the batch: counts[t-1] of them, stored as rows
    offsets[t-1] .. offsets[t]-1 with item i at row offsets[t-1] + i.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        steps = np.arange(1, int(self.lengths[0]) + 1)
        self.counts = (self.lengths[None, :] >= steps[:, None]).sum(axis=1)
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        self.rows = int(self.offsets[-1])

    def item_rows(self, i: int, n: int | None = None) -> np.ndarray:
        """Rows of item i's first n steps (all of its steps by default)."""
        n = int(self.lengths[i]) if n is None else n
        return self.offsets[:n] + i

    def steps_items(self):
        """0-based step and item index of every row."""
        step = np.repeat(np.arange(len(self.counts)), self.counts)
        return step, np.arange(self.rows) - self.offsets[step]

    def stride(self):
        """(strided layout, source row of each of its rows).

        Keeps the 1-based even steps plus, for an odd length, the last.
        """
        out = Layout(-(-self.lengths // 2))
        k, i = out.steps_items()
        src = np.where(self.lengths[i] >= 2 * k + 2, 2 * k + 1, 2 * k)
        return out, self.offsets[src] + i

    def upsample(self):
        """(doubled layout, rows a, rows b): each new row is the mean of
        rows a and b. Even steps copy (a == b); inserted steps average
        their flanking steps, and replicate the last step at the end."""
        out = Layout(2 * self.lengths)
        s, i = out.steps_items()
        k = s // 2
        a = self.offsets[k] + i
        pair = (s % 2 == 1) & (self.lengths[i] >= k + 2)
        nxt = self.offsets[np.minimum(k + 1, len(self.counts) - 1)] + i
        return out, a, np.where(pair, nxt, a)


def _upsample(X, a, b):
    """(X[a] + X[b]) / 2 as one node."""
    xv = val(X)
    out_v = 0.5 * (xv[a] + xv[b])
    if not isinstance(X, Tensor):
        return out_v

    def bwd(g):
        buf = ad._buf(X)
        half = 0.5 * g
        np.add.at(buf, a, half)
        np.add.at(buf, b, half)

    return Tensor(out_v, (X,), bwd)


class _Workspace:
    """Cache and scratch arrays of one cell's fused layer, kept across
    training steps so each step does not fault in fresh pages.

    A forward claims the workspace and its backward releases it. A
    forward that finds it claimed (an earlier tape of this cell has not
    been backpropagated) takes a new workspace instead, so two live
    tapes never share arrays.
    """

    def __init__(self):
        self.flat = {}
        self.claimed = False

    def take(self, name, shape, dtype):
        size = int(np.prod(shape))
        buf = self.flat.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self.flat[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _claim_workspace(cell):
    ws = cell.workspace
    if ws is None or ws.claimed:
        ws = cell.workspace = _Workspace()
    ws.claimed = True
    return ws


def _gate_affine(d, dtype):
    """Per-column (scale, shift) turning tanh into the gate activations:
    sigmoid(z) = 0.5 tanh(z / 2) + 0.5 for f, i and o, tanh itself for g,
    so all four gates take one tanh pass."""
    half = np.full(d, 0.5, dtype)
    scale = np.concatenate((half, half, np.ones(d, dtype), half))
    shift = np.concatenate((half, half, np.zeros(d, dtype), half))
    return scale, shift


def bnlstm_layer(cell: BNLSTMCell, X, lay: Layout, update_stats=True,
                 want_gates=False):
    """Run a cell over a packed batch as one tape node.

    ``X`` is the packed (lay.rows, d_x) input, a tape tensor or an array.
    Returns the packed hidden states H, and with ``want_gates`` also a
    second node G (lay.rows, 3 d_h) holding the post-sigmoid (f, i, o)
    gates. Batch statistics, running-statistic updates and values are
    those of :func:`bnlstm_cell_step` applied step by step.

    The input GEMM is hoisted out of the recurrence into one product; the
    recurrent one runs weight-first against a contiguous copy of W_h.T.
    The backward pass is hand-written BPTT; it overwrites the cached
    normalized values with their gradients, so a tape runs backward once.
    """
    xv = val(X)
    if xv.ndim != 2 or xv.shape != (lay.rows, cell.d_x):
        raise ShapeMismatch(
            f"layer expects a ({lay.rows}, {cell.d_x}) packed input, got "
            f"{xv.shape}")
    d, n, dt = cell.d_h, lay.rows, xv.dtype
    steps, b1 = len(lay.counts), int(lay.counts[0])
    bounds = [(int(lay.offsets[t]), int(lay.counts[t])) for t in range(steps)]
    ws = _claim_workspace(cell)
    XA = ws.take("xa", (n, 4 * d), dt)    # normalized recurrent term
    XU = ws.take("xu", (n, 4 * d), dt)    # normalized input term
    ACT = ws.take("act", (n, 4 * d), dt)  # f, i, tanh(g), o
    HP = ws.take("hp", (n, d), dt)        # h_{t-1} of each row
    CP = ws.take("cp", (n, d), dt)        # c_{t-1} of each row
    XC = ws.take("xc", (n, d), dt)        # normalized cell state
    TC = ws.take("tc", (n, d), dt)        # tanh(BN(c))
    H = ws.take("h", (n, d), dt)
    flat = ws.take("flat", (4 * d * b1,), dt)  # recurrent GEMM products
    S = ws.take("s", (b1, 4 * d), dt)
    C = ws.take("c", (b1, d), dt)
    Q = ws.take("q", (b1, d), dt)
    inv_a = np.empty((steps, 4 * d), dt)
    inv_u = np.empty((steps, 4 * d), dt)
    inv_c = np.empty((steps, d), dt)

    W_h, W_x = cell.W_h.value, cell.W_x.value
    W_hT = np.ascontiguousarray(W_h.T)
    gh, gx, gc = cell.gamma_h.value, cell.gamma_x.value, cell.gamma_c.value
    scale, shift = _gate_affine(d, dt)
    gh_s, gx_s, b_s = gh * scale, gx * scale, cell.b.value * scale
    np.matmul(xv, W_x, out=XU)
    HP[:b1] = cell.h0.value
    CP[:b1] = cell.c0.value
    for t, (start, B) in enumerate(bounds):
        r = slice(start, start + B)
        xa, xu, act, c = XA[r], XU[r], ACT[r], C[:B]
        np.copyto(xa, np.matmul(W_hT, HP[r].T,
                                out=flat[:4 * d * B].reshape(4 * d, B)).T)
        _, mu_a, var_a, inv_a[t] = bn_normalize(xa, cell.site_h.eps, out=xa)
        _, mu_u, var_u, inv_u[t] = bn_normalize(xu, cell.site_x.eps, out=xu)
        np.multiply(xa, gh_s, out=act)
        act += np.multiply(xu, gx_s, out=S[:B])
        act += b_s
        np.tanh(act, out=act)
        act *= scale
        act += shift
        np.multiply(act[:, :d], CP[r], out=c)
        c += np.multiply(act[:, d:2 * d], act[:, 2 * d:3 * d], out=Q[:B])
        _, mu_c, var_c, inv_c[t] = bn_normalize(c, cell.site_c.eps, out=XC[r])
        tc = np.multiply(XC[r], gc, out=TC[r])
        tc += cell.beta_c.value
        np.tanh(tc, out=tc)
        np.multiply(act[:, 3 * d:], tc, out=H[r])
        if update_stats:
            cell.site_h.update(t + 1, mu_a, var_a)
            cell.site_x.update(t + 1, mu_u, var_u)
            cell.site_c.update(t + 1, mu_c, var_c)
        if t + 1 < steps:
            nb = bounds[t + 1][1]
            HP[r.stop:r.stop + nb] = H[r][:nb]
            CP[r.stop:r.stop + nb] = c[:nb]

    params = [cell.W_h, cell.W_x, cell.b, cell.gamma_h, cell.gamma_x,
              cell.gamma_c, cell.beta_c, cell.h0, cell.c0]
    gate_grad = []

    def bwd(dH):
        dG = gate_grad[0] if gate_grad else None
        db, dgh, dgx = (np.zeros(4 * d, dt) for _ in range(3))
        dgc, dbc = np.zeros(d, dt), np.zeros(d, dt)
        P = ws.take("p", (b1, 4 * d), dt)   # gradient w.r.t. the gates' input
        DH = ws.take("dh", (b1, d), dt)
        DCP = ws.take("dcp", (b1, d), dt)   # carry into c_{t-1}
        dhp = None                          # carry into h_{t-1}
        for t in range(steps - 1, -1, -1):
            start, B = bounds[t]
            nb = bounds[t + 1][1] if t + 1 < steps else 0
            r = slice(start, start + B)
            act, tc, xc, xa, xu = ACT[r], TC[r], XC[r], XA[r], XU[r]
            f, i, g, o = (act[:, k * d:(k + 1) * d] for k in range(4))
            p, s, q, dh = P[:B], S[:B], Q[:B], DH[:B]
            np.copyto(dh, dH[r])
            if nb:
                dh[:nb] += dhp[:nb]
            np.multiply(dh, tc, out=p[:, 3 * d:])
            np.multiply(tc, tc, out=q)
            np.subtract(1.0, q, out=q)
            q *= o
            q *= dh                                   # d/d BN(c)
            qsum, qx = q.sum(axis=0), np.einsum("bd,bd->d", q, xc)
            dgc += qx
            dbc += qsum
            q -= qsum / B
            dc = bn_centered_grad(q, xc, qx / B, inv_c[t] * gc, out=xc)
            if nb:
                dc[:nb] += DCP[:nb]
            np.multiply(dc, CP[r], out=p[:, :d])
            np.multiply(dc, g, out=p[:, d:2 * d])
            np.multiply(dc, i, out=p[:, 2 * d:3 * d])
            np.multiply(dc, f, out=DCP[:B])
            if dG is not None:
                p[:, :2 * d] += dG[r, :2 * d]
                p[:, 3 * d:] += dG[r, 2 * d:]
            np.subtract(1.0, act, out=s)
            s *= act
            np.multiply(g, g, out=s[:, 2 * d:3 * d])
            np.subtract(1.0, s[:, 2 * d:3 * d], out=s[:, 2 * d:3 * d])
            p *= s                                    # d/d pre-activation
            psum = p.sum(axis=0)
            pxa = np.einsum("bd,bd->d", p, xa)
            pxu = np.einsum("bd,bd->d", p, xu)
            db += psum
            dgh += pxa
            dgx += pxu
            p -= psum / B
            bn_centered_grad(p, xa, pxa / B, inv_a[t] * gh, out=xa)
            bn_centered_grad(p, xu, pxu / B, inv_u[t] * gx, out=xu)
            dhp = np.matmul(W_h, xa.T, out=flat[:d * B].reshape(d, B)).T
        DA, DU = XA, XU
        grads = [HP.T @ DA, xv.T @ DU, db, dgh, dgx, dgc, dbc,
                 dhp.sum(axis=0), DCP.sum(axis=0)]
        for prm, grad in zip(params, grads):
            prm.grad += grad
        if isinstance(X, Tensor):
            dX = DU @ W_x.T
            if X.grad is None:
                X.grad = dX
            else:
                X.grad += dX
        ws.claimed = False

    parents = tuple(params) + ((X,) if isinstance(X, Tensor) else ())
    out = Tensor(H, parents, bwd)
    if not want_gates:
        return out

    def gates_bwd(g):
        gate_grad.append(g)
        ad._buf(out)  # the layer's backward must run to pass it on

    gates = np.concatenate((ACT[:, :2 * d], ACT[:, 3 * d:]), axis=1)
    return out, Tensor(gates, (out,), gates_bwd)


@dataclass
class BatchForward:
    """Tape handles and layouts from one training-mode batch forward.

    Every tensor is packed time-major (see :class:`Layout`): ``codes``
    (+-1), ``prebin`` (the arctanh outputs feeding the sign) and
    ``gates`` (f, i, o side by side) over the encoder layout ``enc``,
    ``recon`` over the decoder layout ``dec``. Values stay valid until
    the tape has been backpropagated and the model runs forward again.
    """

    model: Autoencoder
    inp: Layout
    enc: Layout
    dec: Layout
    codes: Tensor
    gates: Tensor
    prebin: Tensor
    recon: Tensor

    def encode_results(self):
        out = []
        L = self.model.L
        for i in range(len(self.inp.lengths)):
            rows = self.enc.item_rows(i)
            codes = ((val(self.codes)[rows] + 1) / 2).astype(np.uint8)
            gates = val(self.gates)[rows]
            fio = tuple(gates[:, j * L:(j + 1) * L] for j in range(3))
            out.append(EncodeResult(codes=codes,
                                    d_series=_adjacent_hamming(codes),
                                    gates=fio, M_e=codes.shape[0]))
        return out

    def reconstructions(self):
        """Per item, its first M_i decoder rows (the cut to length M)."""
        rv = val(self.recon)
        return [rv[self.dec.item_rows(i, int(m))]
                for i, m in enumerate(self.inp.lengths)]


def prepare_inputs(seqs: list[FeatureSequence], dtype) -> np.ndarray:
    """The packed time-major input rows of a ragged batch (cacheable)."""
    lay = Layout([s.M for s in seqs])
    out = np.empty((lay.rows, seqs[0].D), dtype=dtype)
    for i, s in enumerate(seqs):
        out[lay.item_rows(i)] = s.features
    return out


def forward_batch_train(seqs: list[FeatureSequence], model: Autoencoder,
                        update_stats: bool = True,
                        binarize: str = "hard",
                        inputs: np.ndarray | None = None) -> BatchForward:
    """Training-mode forward over a ragged batch, on the tape.

    ``seqs`` must be sorted by decreasing length; ``inputs`` is their
    :func:`prepare_inputs`. Each cell is one node over the packed batch,
    and so are the strides, upsamplings, arctanhs and the sign. Decoder
    rows may overshoot an item's length; the losses ignore the
    overshoot, which realizes the cut-to-M contract.

    ``binarize="surrogate"`` swaps the hard sign for its clipped-identity
    surrogate (same gradient), making the whole loss finite-difference
    checkable; production training uses the default hard codes.
    """
    if any(s.M < 1 for s in seqs):
        raise EmptySequence("empty feature sequence in batch")
    lengths = np.array([s.M for s in seqs], dtype=np.int64)
    if np.any(lengths[:-1] < lengths[1:]):
        raise ValueError("batch items must be sorted by decreasing length")
    x = inputs if inputs is not None else prepare_inputs(seqs, model.dtype)

    inp = Layout(lengths)
    e1, e2, e3, e4 = model.encoder.cells
    s = bnlstm_layer(e1, x, inp, update_stats)
    s = bnlstm_layer(e2, s, inp, update_stats)
    lay3, rows = inp.stride()
    s = bnlstm_layer(e3, ad.gather_rows(s, rows), lay3, update_stats)
    enc, rows = lay3.stride()
    hid, gates = bnlstm_layer(e4, ad.gather_rows(s, rows), enc,
                              update_stats, want_gates=True)
    prebin = ad.arctanh_clamped(hid, ARCTANH_MARGIN)
    codes = (sgn_ste if binarize == "hard" else sgn_surrogate)(prebin)

    d1, d2, d3, d4 = model.decoder.cells
    s = bnlstm_layer(d1, codes, enc, update_stats)
    lay, a, b = enc.upsample()
    s = bnlstm_layer(d2, _upsample(s, a, b), lay, update_stats)
    dec, a, b = lay.upsample()
    s = bnlstm_layer(d3, _upsample(s, a, b), dec, update_stats)
    s = bnlstm_layer(d4, s, dec, update_stats)
    recon = ad.arctanh_clamped(s, ARCTANH_MARGIN)

    model.max_input_len = max(model.max_input_len, int(lengths[0]))
    return BatchForward(model, inp, enc, dec, codes, gates, prebin, recon)


# -- checkpoints -------------------------------------------------------------

_MCBN_HEADER = struct.Struct("<4sBB")
_MCBN_META = struct.Struct("<IIffI")


def _write_site(f, site: BNSiteStats):
    f.write(struct.pack("<I", site.max_train_timestep))
    for mean, var in zip(site.means, site.vars):
        f.write(mean.astype("<f4").tobytes())
        f.write(var.astype("<f4").tobytes())


def save_model(model: Autoencoder, path) -> None:
    with open(path, "wb") as f:
        f.write(_MCBN_HEADER.pack(b"MCBN", 1, len(model.cells)))
        for cell in model.cells:
            f.write(struct.pack("<II", cell.d_x, cell.d_h))
            for p in cell.parameters():
                f.write(p.value.astype("<f4").tobytes())
            for site in cell.sites():
                _write_site(f, site)
        f.write(_MCBN_META.pack(model.D, model.L, model.momentum,
                                model.eps, model.max_input_len))


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n):
        if self.pos + n > len(self.data):
            raise TruncatedFile(f"{self.path}: checkpoint payload is short")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, st: struct.Struct):
        return st.unpack(self.take(st.size))

    def floats(self, n, dtype):
        return np.frombuffer(self.take(4 * n), dtype="<f4").astype(dtype)


_DIMS = struct.Struct("<II")
_COUNT = struct.Struct("<I")


def load_model(path, dtype=np.float64) -> Autoencoder:
    """Rebuild an autoencoder from an MCBN checkpoint.

    save(load(f)) reproduces f byte for byte: values are stored as
    float32 and upcasting is exact.
    """
    r = _Reader(Path(path).read_bytes(), path)
    magic, version, n_layers = r.unpack(_MCBN_HEADER)
    if magic != b"MCBN":
        raise BadMagic(f"{path}: expected MCBN, found {magic!r}")
    if version != 1:
        raise UnsupportedVersion(f"{path}: MCBN version {version}")
    if n_layers % 2 != 0:
        raise TruncatedFile(f"{path}: odd layer count {n_layers}")

    rng = np.random.default_rng(0)
    cells = []
    for i in range(n_layers):
        d_x, d_h = r.unpack(_DIMS)
        cell = BNLSTMCell(d_x, d_h, rng, dtype=dtype,
                          tag=f"layer{i + 1}")
        for p in cell.parameters():
            p.value = r.floats(p.value.size, dtype).reshape(p.value.shape)
            p.grad = np.zeros_like(p.value)
            p.m = np.zeros_like(p.value)
            p.v = np.zeros_like(p.value)
        for site in cell.sites():
            (n_t,) = r.unpack(_COUNT)
            site.dtype = np.dtype(dtype)
            site.means = []
            site.vars = []
            for _ in range(n_t):
                site.means.append(r.floats(site.dim, dtype))
                site.vars.append(r.floats(site.dim, dtype))
        cells.append(cell)
    D, L, momentum, eps, max_len = r.unpack(_MCBN_META)

    half = n_layers // 2
    enc = EncoderStack.__new__(EncoderStack)
    enc.cells = cells[:half]
    enc.L = L
    dec = DecoderStack.__new__(DecoderStack)
    dec.cells = cells[half:]
    for i, cell in enumerate(cells):
        cell_tag = f"enc{i + 1}" if i < half else f"dec{i - half + 1}"
        for name in cell.FIELD_ORDER:
            getattr(cell, name).name = f"{cell_tag}.{name}"
        for site in cell.sites():
            site.momentum = float(np.float32(momentum))
            site.eps = float(np.float32(eps))
    model = Autoencoder(D, L, enc, dec, float(np.float32(momentum)),
                        float(np.float32(eps)), dtype)
    model.max_input_len = max_len
    return model
