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

One runner, :func:`bnlstm_layer`, serves training and inference. A
batch is packed time-major into one (sum_t B_t, d) array, B_t being the
number of items still active at step t (see ``Layout``).
``encode_batch`` packs many videos into passes of at most
``_ENCODE_ROWS`` input rows, ``encode`` is its one-item case, and
``decode`` runs a single video as a batch of one. Training normalizes
with the per-timestep batch statistics, which couple the batch items
(the statistics at step t use the items that reach t); each layer is
then a single tape node with a hand-written BPTT backward, and the
strides, upsamplings, arctanhs and the sign are one node each, so a
step's tape stays small whatever the sequence length. Inference
normalizes with the per-timestep running statistics instead, which
couple no items: every BN site is then a fixed affine map per step, so
the layer folds them into per-step and per-row constants before its
recurrence and runs on plain arrays without a tape, one small GEMM and
a dozen in-place ufuncs per step. Features or code-layer hidden states
that are not finite stop ``encode_batch`` with NonFiniteValues.

Checkpoint format MCBN, read with :class:`evhash.binfile.Reader`
(little-endian): magic "MCBN", version u8=1, layer count u8 (8), then
per layer: d_x u32, d_h u32 (not 0), the float32 tensors W_h, W_x, b,
gamma_h, gamma_x, gamma_c, beta_c, h0, c0, and the three statistic
sites (recurrent, input, cell), each as max_train_timestep u32 followed
per timestep by a mean vector then a variance vector (float32): the
site's ``BNSiteStats.stats`` array, row by row. After the layers: D u32,
L u32, momentum f32, eps f32, max train input length u32.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, val
from .binfile import F32, Reader
from .errors import (
    EmptyCodes,
    EmptySequence,
    MalformedFile,
    NonFiniteValues,
    ShapeMismatch,
)
from .ingest import FeatureSequence
from .numerics import (BNSiteStats, Parameter, bn_centered_grad, bn_normalize,
                       sgn_ste)


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

    def __init__(self, values, momentum=0.1, eps=1e-5, tag=""):
        """``values`` are the nine parameter arrays in FIELD_ORDER; the
        running statistics start empty, in the arrays' dtype."""
        for name, value in zip(self.FIELD_ORDER, values):
            setattr(self, name, Parameter(value, f"{tag}.{name}"))
        self.d_x, self.d_h = self.W_x.value.shape[0], self.W_h.value.shape[0]
        dtype = self.W_h.value.dtype
        self.site_h = BNSiteStats(4 * self.d_h, momentum, eps, dtype)
        self.site_x = BNSiteStats(4 * self.d_h, momentum, eps, dtype)
        self.site_c = BNSiteStats(self.d_h, momentum, eps, dtype)
        self.workspace = None  # the fused training layer's arrays

    def parameters(self):
        return [getattr(self, name) for name in self.FIELD_ORDER]

    def sites(self):
        return [self.site_h, self.site_x, self.site_c]


def init_cell(d_x: int, d_h: int, rng: np.random.Generator, momentum=0.1,
              eps=1e-5, dtype=np.float64, tag="") -> BNLSTMCell:
    """A freshly initialized cell: weights uniform(-k, k) with
    k = 1/sqrt(fan-in), BN scales 0.1; biases, shifts and initial states
    zero."""
    kx, kh = 1.0 / np.sqrt(d_x), 1.0 / np.sqrt(d_h)
    values = (rng.uniform(-kh, kh, size=(d_h, 4 * d_h)),
              rng.uniform(-kx, kx, size=(d_x, 4 * d_h)),
              np.zeros(4 * d_h), np.full(4 * d_h, 0.1), np.full(4 * d_h, 0.1),
              np.full(d_h, 0.1), np.zeros(d_h), np.zeros(d_h), np.zeros(d_h))
    return BNLSTMCell([np.asarray(v, dtype=dtype) for v in values],
                      momentum, eps, tag)


# -- the autoencoder ---------------------------------------------------------


class Autoencoder:
    """Four encoder cells (the last of width L) and four decoder cells
    (the last of width D)."""

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
        return self.encoder + self.decoder

    def parameters(self):
        return [p for cell in self.cells for p in cell.parameters()]


def build_model(D=1024, L=64, encoder_dims=(256, 256, 64), momentum=0.1,
                eps=1e-5, seed=0, dtype=np.float64) -> Autoencoder:
    """Construct a freshly initialized autoencoder (see :func:`init_cell`).

    The decoder mirrors the encoder: its hidden widths are the encoder's
    third, second and first, then D.
    """
    rng = np.random.default_rng(seed)

    def stack(prefix, d_in, hidden):
        dims = zip((d_in, *hidden[:-1]), hidden)
        return [init_cell(dx, dh, rng, momentum, eps, dtype, f"{prefix}{i}")
                for i, (dx, dh) in enumerate(dims, start=1)]

    e1, e2, e3 = encoder_dims
    encoder = stack("enc", D, (e1, e2, e3, L))
    decoder = stack("dec", L, (e3, e2, e1, D))
    return Autoencoder(D, L, encoder, decoder, momentum, eps, dtype)


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
    # hashing's last event detection on this result, as (key, ends); the
    # key holds a copy of d_series' bytes (see hashing._event_ends)
    detected: tuple = field(default=(None, ()), init=False, repr=False,
                            compare=False)


def _adjacent_hamming(codes: np.ndarray) -> np.ndarray:
    if len(codes) < 2:
        return np.zeros(0, dtype=np.int64)
    return (codes[1:] != codes[:-1]).sum(axis=1).astype(np.int64)


def _encode_result(codes: np.ndarray, gates: np.ndarray, L: int):
    """One video's EncodeResult from its +-1 code rows and (f, i, o) gate
    rows (M_e, 3 L)."""
    bits = ((codes + 1) / 2).astype(np.uint8)
    return EncodeResult(codes=bits, d_series=_adjacent_hamming(bits),
                        gates=tuple(gates[:, j * L:(j + 1) * L]
                                    for j in range(3)),
                        M_e=bits.shape[0])


# -- the packed layout -----------------------------------------------------


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

    def item_rows(self, i: int) -> np.ndarray:
        """Rows of item i's steps."""
        return self.offsets[:self.lengths[i]] + i

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
        size = math.prod(shape)
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


def _bnlstm_running(cell: BNLSTMCell, xv, lay: Layout, want_gates):
    """:func:`bnlstm_layer` with running statistics, on plain arrays.

    Each BN site is then a fixed affine map per step, folded into
    constants before the loop: the recurrent BN, gamma_h and the gate
    scale of :func:`_gate_affine` into a per-step column scale A[t]; the
    input GEMM, input BN, gamma_x, the bias and the recurrent mean into
    a per-row constant (the initial ACT); the cell BN with gamma_c and
    beta_c into a per-step scale and shift. A step is one ``h @ W_h``
    and a dozen in-place ufuncs, reading h_{t-1} and c_{t-1} from the
    previous step's rows of H and C.
    """
    d, n, dt = cell.d_h, lay.rows, xv.dtype
    (m_a, inv_a), (m_u, inv_u), (m_c, inv_c) = (  # one row per step
        (mean, 1.0 / np.sqrt(var + site.eps)) for site in cell.sites()
        for mean, var in [site.running(len(lay.counts))])
    scale, shift = _gate_affine(d, dt)
    A = inv_a * (cell.gamma_h.value * scale)
    c_scale = inv_c * cell.gamma_c.value
    c_shift = cell.beta_c.value - m_c * c_scale
    step, _ = lay.steps_items()
    su, sa = np.minimum(step, len(m_u) - 1), np.minimum(step, len(A) - 1)
    ACT = np.matmul(xv, cell.W_x.value, out=np.empty((n, 4 * d), dt))
    ACT -= m_u[su]
    ACT *= (inv_u * (cell.gamma_x.value * scale))[su]
    ACT += (cell.b.value * scale - m_a * A)[sa]

    H, C = np.empty((n, d), dt), np.empty((n, d), dt)
    h, c = cell.h0.value[None], cell.c0.value[None]  # broadcast at step 1
    W_h, la, lc = cell.W_h.value, len(A) - 1, len(c_scale) - 1
    for t, (start, B) in enumerate(zip(lay.offsets.tolist(),
                                       lay.counts.tolist())):
        r = slice(start, start + B)
        act, p = ACT[r], h[:B] @ W_h
        p *= A[min(t, la)]
        act += p
        np.tanh(act, out=act)
        act *= scale
        act += shift                  # f, i, tanh(g), o
        c = np.multiply(act[:, :d], c[:B], out=C[r])
        h = np.multiply(act[:, d:2 * d], act[:, 2 * d:3 * d], out=H[r])
        c += h
        np.multiply(c, c_scale[min(t, lc)], out=h)
        h += c_shift[min(t, lc)]
        np.tanh(h, out=h)
        h *= act[:, 3 * d:]
    if not want_gates:
        return H
    return H, np.concatenate((ACT[:, :2 * d], ACT[:, 3 * d:]), axis=1)


def bnlstm_layer(cell: BNLSTMCell, X, lay: Layout, stats="train",
                 want_gates=False):
    """Run a cell over a packed batch.

    ``X`` is the packed (lay.rows, d_x) input, a tape tensor or an array.
    Returns the packed hidden states H, and with ``want_gates`` also G
    (lay.rows, 3 d_h), the post-sigmoid (f, i, o) gates side by side.
    ``stats`` picks the normalizer of every BN site: ``"train"`` takes
    each step's batch statistics and momentum-updates the running ones,
    ``"running"`` applies the stored running statistics of each step.

    Each step is the BN-LSTM cell of :class:`BNLSTMCell`; the tests hold
    it to a step-by-step reference built from tape ops. With batch
    statistics H and G are tape nodes; the backward pass is hand-written
    BPTT, which overwrites the cached normalized values with their
    gradients, so a tape runs backward once. The input GEMM is hoisted
    out of the recurrence into one product; the recurrent one runs
    weight-first against a contiguous copy of W_h.T. With running
    statistics :func:`_bnlstm_running` runs instead: H and G are plain
    arrays, and the cell's workspace is left alone.
    """
    if stats not in ("train", "running"):
        raise ValueError(f"unknown statistics {stats!r}")
    xv = val(X)
    if xv.ndim != 2 or xv.shape != (lay.rows, cell.d_x):
        raise ShapeMismatch(
            f"layer expects a ({lay.rows}, {cell.d_x}) packed input, got "
            f"{xv.shape}")
    if stats == "running":
        return _bnlstm_running(cell, xv, lay, want_gates)
    d, n, dt = cell.d_h, lay.rows, xv.dtype
    steps, b1 = len(lay.counts), int(lay.counts[0])
    bounds = [(int(lay.offsets[t]), int(lay.counts[t])) for t in range(steps)]
    ws = _claim_workspace(cell)
    ea, eu, ec = (site.eps for site in cell.sites())
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
    # before the temporary W_h.T copy: arrays that outlive it, allocated
    # after it, pin its freed heap pages (+11 MB peak RSS in c10's step)
    inv_a = np.empty((steps, 4 * d), dt)
    inv_u = np.empty((steps, 4 * d), dt)
    inv_c = np.empty((steps, d), dt)
    mv_a = np.empty((steps, 2, 4 * d), dt)  # batch (mean, var) per step
    mv_u = np.empty((steps, 2, 4 * d), dt)
    mv_c = np.empty((steps, 2, d), dt)

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
        xa, xu, act, c, xc = XA[r], XU[r], ACT[r], C[:B], XC[r]
        np.copyto(xa, np.matmul(W_hT, HP[r].T,
                                out=flat[:4 * d * B].reshape(4 * d, B)).T)
        _, mv_a[t, 0], mv_a[t, 1], inv_a[t] = bn_normalize(xa, ea, out=xa)
        _, mv_u[t, 0], mv_u[t, 1], inv_u[t] = bn_normalize(xu, eu, out=xu)
        np.multiply(xa, gh_s, out=act)
        act += np.multiply(xu, gx_s, out=S[:B])
        act += b_s
        np.tanh(act, out=act)
        act *= scale
        act += shift
        np.multiply(act[:, :d], CP[r], out=c)
        c += np.multiply(act[:, d:2 * d], act[:, 2 * d:3 * d], out=Q[:B])
        _, mv_c[t, 0], mv_c[t, 1], inv_c[t] = bn_normalize(c, ec, out=xc)
        tc = np.multiply(xc, gc, out=TC[r])
        tc += cell.beta_c.value
        np.tanh(tc, out=tc)
        np.multiply(act[:, 3 * d:], tc, out=H[r])
        if t + 1 < steps:
            nb = bounds[t + 1][1]
            HP[r.stop:r.stop + nb] = H[r][:nb]
            CP[r.stop:r.stop + nb] = c[:nb]
    for site, block in zip(cell.sites(), (mv_a, mv_u, mv_c)):
        site.update(1, block)

    G = np.concatenate((ACT[:, :2 * d], ACT[:, 3 * d:]), axis=1) \
        if want_gates else None
    params = cell.parameters()
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

    return out, Tensor(G, (out,), gates_bwd)


@dataclass
class BatchForward:
    """Tape handles and layouts from one training-mode batch forward.

    Every tensor is packed time-major (see :class:`Layout`): ``codes``
    (+-1), ``prebin`` (the arctanh outputs feeding the sign) and
    ``gates`` (f, i, o side by side) over the encoder layout ``enc``,
    ``recon`` over the decoder layout ``dec``. Values stay valid until
    the tape has been backpropagated and the model runs forward again.
    """

    inp: Layout
    enc: Layout
    dec: Layout
    codes: Tensor
    gates: Tensor
    prebin: Tensor
    recon: Tensor


def _encoder(model: Autoencoder, x, inp: Layout, stats: str):
    """Two full-rate layers, stride, a third layer, stride, the code
    layer. Returns the encoder layout and the code layer's hidden states
    and (f, i, o) gates over it."""
    e1, e2, e3, e4 = model.encoder
    s = bnlstm_layer(e1, x, inp, stats)
    s = bnlstm_layer(e2, s, inp, stats)
    lay3, rows = inp.stride()
    s = bnlstm_layer(e3, ad.gather_rows(s, rows), lay3, stats)
    enc, rows = lay3.stride()
    hid, gates = bnlstm_layer(e4, ad.gather_rows(s, rows), enc, stats,
                              want_gates=True)
    return enc, hid, gates


def _decoder(model: Autoencoder, codes, enc: Layout, stats: str):
    """The mirrored stack from +-1 codes over ``enc``: (decoder layout,
    reconstructed features)."""
    d1, d2, d3, d4 = model.decoder
    s = bnlstm_layer(d1, codes, enc, stats)
    lay, a, b = enc.upsample()
    s = bnlstm_layer(d2, _upsample(s, a, b), lay, stats)
    dec, a, b = lay.upsample()
    s = bnlstm_layer(d3, _upsample(s, a, b), dec, stats)
    s = bnlstm_layer(d4, s, dec, stats)
    return dec, ad.arctanh_clamped(s)


def prepare_inputs(seqs: list[FeatureSequence], dtype) -> np.ndarray:
    """The packed time-major input rows of a ragged batch (cacheable)."""
    lay = Layout([s.M for s in seqs])
    out = np.empty((lay.rows, seqs[0].D), dtype=dtype)
    for i, s in enumerate(seqs):
        out[lay.item_rows(i)] = s.features
    return out


def forward_batch_train(seqs: list[FeatureSequence], model: Autoencoder,
                        inputs: np.ndarray | None = None) -> BatchForward:
    """Training-mode forward over a ragged batch, on the tape.

    ``seqs`` must be sorted by decreasing length; ``inputs`` is their
    :func:`prepare_inputs`. Each cell is one node over the packed batch,
    and so are the strides, upsamplings, arctanhs and the sign. Every BN
    site normalizes with the batch statistics and momentum-updates its
    running ones, which no training loss reads. Decoder rows may
    overshoot an item's length; the losses ignore the overshoot, which
    realizes the cut-to-M contract.
    """
    if any(s.M < 1 for s in seqs):
        raise EmptySequence("empty feature sequence in batch")
    lengths = np.array([s.M for s in seqs], dtype=np.int64)
    if np.any(lengths[:-1] < lengths[1:]):
        raise ValueError("batch items must be sorted by decreasing length")
    x = inputs if inputs is not None else prepare_inputs(seqs, model.dtype)

    inp = Layout(lengths)
    enc, hid, gates = _encoder(model, x, inp, "train")
    prebin = ad.arctanh_clamped(hid)
    codes = sgn_ste(prebin)
    dec, recon = _decoder(model, codes, enc, "train")

    model.max_input_len = max(model.max_input_len, int(lengths[0]))
    return BatchForward(inp, enc, dec, codes, gates, prebin, recon)


# -- inference ---------------------------------------------------------------


# Input rows of one packed encode pass: 32 MB of float32 features at D = 1024.
_ENCODE_ROWS = 8192


def encode_batch(seqs: list[FeatureSequence],
                 model: Autoencoder) -> list[EncodeResult]:
    """Encode feature sequences into binary codes, one result per item in
    input order.

    The items are packed in the model's dtype, sorted by decreasing
    length (see ``Layout``), and each pass of at most ``_ENCODE_ROWS``
    input rows is one encoder run with running statistics; an item longer
    than that runs alone. Those statistics couple no items, so every item
    gets the codes it gets alone. Each item's gate record comes from the
    last encoder layer; d_series[t] is the Hamming distance between codes
    t+1 and t. An empty, unnormalized or wrongly sized item raises before
    any pass runs. Features (after the cast to the model's dtype) or
    code-layer hidden states that are not finite raise NonFiniteValues
    naming their item, since a NaN would read as bit 0.
    """
    for seq in seqs:
        if seq.M < 1:
            raise EmptySequence(f"{seq.video_id}: empty feature sequence")
        if not seq.normalized:
            raise ValueError(f"{seq.video_id}: encode expects normalized "
                             f"features")
        if seq.D != model.D:
            raise ShapeMismatch(f"features D={seq.D}, model D={model.D}")
    passes, rows = [], _ENCODE_ROWS
    for i in sorted(range(len(seqs)), key=lambda i: -seqs[i].M):
        if rows + seqs[i].M > _ENCODE_ROWS:
            passes.append([])
            rows = 0
        passes[-1].append(i)
        rows += seqs[i].M
    out = [None] * len(seqs)
    for batch in passes:
        for i, res in zip(batch, _encode_pass([seqs[i] for i in batch],
                                              model)):
            out[i] = res
    return out


def _encode_pass(seqs, model):
    """EncodeResults of ``seqs``, sorted by decreasing length, from one
    packed encoder run."""
    lay = Layout([s.M for s in seqs])
    with np.errstate(over="ignore"):  # an overflow is reported below
        X = prepare_inputs(seqs, model.dtype)
    _check_finite(X, lay, seqs, "feature values")
    enc, hid, gates = _encoder(model, X, lay, "running")
    _check_finite(hid, enc, seqs, "hidden states in the code layer")
    codes = sgn_ste(ad.arctanh_clamped(hid))
    return [_encode_result(codes[r], gates[r], model.L)
            for r in map(enc.item_rows, range(len(seqs)))]


def _check_finite(a, lay: Layout, seqs, what):
    finite = np.isfinite(a).all(axis=1)
    if not finite.all():
        _, item = lay.steps_items()
        raise NonFiniteValues(f"{seqs[item[~finite].min()].video_id}: "
                              f"non-finite {what}")


def encode(seq: FeatureSequence, model: Autoencoder) -> EncodeResult:
    """Encode one feature sequence into binary codes: the one-item
    :func:`encode_batch`, with its checks."""
    return encode_batch([seq], model)[0]


def decode(codes: EncodeResult, model: Autoencoder,
           target_len: int) -> np.ndarray:
    """Reconstruct (target_len, D) features from binary codes."""
    if codes.M_e < 1:
        raise EmptyCodes("no codes to decode")
    x = codes.codes.astype(model.dtype) * 2.0 - 1.0
    _, out = _decoder(model, x, Layout([codes.M_e]), "running")
    if len(out) >= target_len:
        return out[:target_len]
    pad = np.repeat(out[-1:], target_len - len(out), axis=0)
    return np.concatenate([out, pad], axis=0)


def forward(seq: FeatureSequence, model: Autoencoder):
    """Encode then decode back to the input length."""
    enc = encode(seq, model)
    return decode(enc, model, seq.M), enc


# -- checkpoints -------------------------------------------------------------

_MCBN_HEADER = struct.Struct("<4sBB")
_MCBN_META = struct.Struct("<IIffI")


def save_model(model: Autoencoder, path) -> None:
    """Write ``model`` as MCBN. Each array is written from its own buffer
    when it already is contiguous little-endian float32, else from one
    converted copy."""
    with open(path, "wb") as f:
        f.write(_MCBN_HEADER.pack(b"MCBN", 1, len(model.cells)))
        for cell in model.cells:
            f.write(struct.pack("<II", cell.d_x, cell.d_h))
            for p in cell.parameters():
                f.write(np.ascontiguousarray(p.value, "<f4"))
            for site in cell.sites():
                f.write(struct.pack("<I", site.max_train_timestep))
                f.write(np.ascontiguousarray(site.stats, "<f4"))
        f.write(_MCBN_META.pack(model.D, model.L, model.momentum,
                                model.eps, model.max_input_len))


_DIMS = struct.Struct("<II")
_COUNT = struct.Struct("<I")


def load_model(path, dtype=np.float64) -> Autoencoder:
    """Rebuild an autoencoder from an MCBN checkpoint.

    save(load(f)) reproduces f byte for byte: values are stored as
    float32 and upcasting is exact. A file with a layer of width 0, whose
    layer widths do not chain D -> ... -> L -> ... -> D, or with bytes
    after the trailer, raises MalformedFile.
    """
    r = Reader(path, b"MCBN", _MCBN_HEADER)
    (n_layers,) = r.fields
    if n_layers != 8:
        raise MalformedFile(f"{path}: {n_layers} layers, expected 8")

    dims, layers = [], []
    for i in range(n_layers):
        d_x, d_h = r.unpack(_DIMS)
        if d_h == 0:
            # its statistic sites would take no bytes for any step count
            raise MalformedFile(f"{path}: layer {i + 1} has no hidden units")
        if dims and d_x != dims[-1][1]:
            raise MalformedFile(f"{path}: layer {i + 1} takes {d_x} inputs, "
                                f"layer {i} emits {dims[-1][1]}")
        dims.append((d_x, d_h))
        shapes = [(d_h, 4 * d_h), (d_x, 4 * d_h), *[(4 * d_h,)] * 3,
                  *[(d_h,)] * 4]
        values = [r.array(F32, shape).astype(dtype) for shape in shapes]
        sites = []
        for dim in (4 * d_h, 4 * d_h, d_h):
            (n_t,) = r.unpack(_COUNT)
            sites.append(r.array(F32, (n_t, 2, dim)).astype(dtype))
        layers.append((values, sites))
    D, L, momentum, eps, max_len = r.unpack(_MCBN_META)
    r.close()
    if (dims[0][0], dims[3][1], dims[7][1]) != (D, L, D):
        raise MalformedFile(f"{path}: layer widths {dims} do not run "
                            f"D={D} -> L={L} -> D")

    momentum, eps = float(np.float32(momentum)), float(np.float32(eps))
    cells = []
    for i, (values, sites) in enumerate(layers):
        tag = f"enc{i + 1}" if i < 4 else f"dec{i - 3}"
        cell = BNLSTMCell(values, momentum, eps, tag)
        for site, stats in zip(cell.sites(), sites):
            site.stats = stats
        cells.append(cell)
    model = Autoencoder(D, L, cells[:4], cells[4:], momentum, eps, dtype)
    model.max_input_len = max_len
    return model
