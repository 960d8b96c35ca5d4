"""Training objective: reconstruction + gate regularization + code
diversity, optimized with Adam.

Training builds each term as one tape node over the packed batch
(:func:`recon_loss_packed`, :func:`memory_loss_packed`,
:func:`diversity_loss_packed`), each with a hand-written backward pass.
:func:`recon_loss`, :func:`memory_loss` and :func:`diversity_loss` give
one item's or one batch's value from the same kernels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .errors import (
    BatchTooSmall,
    DoubleNormalize,
    EmptyTrainSet,
    LengthMismatch,
    NonFiniteLoss,
    ShapeMismatch,
)
from .ingest import FeatureSequence
from .model import (Autoencoder, Layout, forward_batch_train, prepare_inputs,
                    save_model)
from .numerics import AdamConfig, adam_step


@dataclass(frozen=True)
class LossBreakdown:
    """Batch-level summary: recon and memory are means over the batch."""

    recon: float
    memory: float
    diversity: float
    total: float


@dataclass
class TrainConfig:
    """A run's settings; Adam's betas and epsilon are numerics constants."""

    batch_size: int = 32
    epochs: int = 1
    lr: float = 1e-3
    memory_threshold: int = 16  # bits; event-transition cutoff in the gate loss
    seed: int = 0
    checkpoint_every: int = 0   # epochs between checkpoints; 0 = none
    checkpoint_dir: Path | None = None

    def __post_init__(self):
        if self.batch_size < 2:
            raise BatchTooSmall("diversity loss needs at least 2 items")
        if self.memory_threshold <= 0:
            raise ValueError("memory threshold must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint interval must be nonnegative")
        if self.checkpoint_every and self.checkpoint_dir is None:
            raise ValueError("checkpoints need a directory")


def recon_loss(recon, target, L: int):
    """Squared reconstruction error, scaled by 1/(L*M).

    The scale uses the hash length L, not the feature dimension. This is
    :func:`recon_loss_packed` over one item.
    """
    rv, tv = val(recon), val(target)
    if rv.shape != tv.shape:
        raise ShapeMismatch(f"reconstruction {rv.shape} vs target {tv.shape}")
    m = rv.shape[0]
    return recon_loss_packed(recon, tv, np.arange(m),
                             np.full(m, 1.0 / (L * m)))[0]


def memory_loss(gates, d_series, th: int, L: int):
    """Gate regularizer weighted by the adjacent-Hamming series.

    ``gates`` is (f, i, o), each (M_e, L) post-sigmoid. For each
    transition t (gates taken at t, d_t between codes t and t+1):
    when d_t >= th the event is changing, so the forget and output gates
    should close and the input gate open: the term is
    sum(f^2 + o^2 + (1-i)^2). Otherwise the event continues and the
    complementary term sum((1-f^2) + (1-o^2) + i^2) applies. Each term is
    multiplied by d_t (a constant: no gradient flows through it) and the
    total is scaled by 1/(3 * L^2 * M_e), which bounds the loss to [0, 1].
    Training computes the same value with :func:`memory_loss_packed`.
    """
    f, i, o = gates
    m_e = f.shape[0]
    d_series = np.asarray(d_series)
    if d_series.shape[0] != m_e - 1:
        raise LengthMismatch(
            f"{m_e} gate steps need {m_e - 1} distances, got {d_series.shape[0]}")
    change, cont = _memory_terms(f[:-1], i[:-1], o[:-1], d_series, th, L,
                                 m_e)[2:]
    return np.asarray(change.sum() + cont.sum())


def diversity_loss(codes_list, L: int):
    """Mean pairwise code similarity over a batch; lower is better.

    ``codes_list`` holds one (M_e_j, L) matrix of +-1 codes per video.
    For each of the B(B-1)/2 pairs, similarity 1 - Hamming/L is averaged
    over the shared timesteps; the result is the mean over pairs, in
    [0, 1]. Identical codes score 1, complementary codes 0. Training
    computes the same value with :func:`diversity_loss_packed`.
    """
    b = len(codes_list)
    if b < 2:
        raise BatchTooSmall("diversity needs at least 2 videos")
    lengths = np.array([len(c) for c in codes_list], dtype=np.int64)
    padded = np.zeros((b, int(lengths.max()), L),
                      np.result_type(*codes_list))
    for n, c in enumerate(codes_list):
        padded[n, :len(c)] = c
    return _diversity(padded, lengths, L)[0]


def total_loss(recon_per_video, memory_per_video, diversity) -> LossBreakdown:
    """Combine per-video terms: mean(recon + memory) over the batch,
    plus the batch-level diversity."""
    recon = float(np.mean(recon_per_video))
    memory = float(np.mean(memory_per_video))
    diversity = float(diversity)
    return LossBreakdown(recon=recon, memory=memory, diversity=diversity,
                         total=recon + memory + diversity)


# -- loss kernels and packed nodes ---------------------------------------


def _memory_terms(f, i, o, d, th: int, L: int, m_e):
    """Per transition row, the (n, 1) float64 weights of its change and
    its continuation term (d_t / (3 L^2 M_e) on the one that applies, 0
    on the other), then both weighted terms entry by entry."""
    d = d.astype(np.float64)
    is_change = d >= th
    den = 3.0 * L * L * m_e
    w_change = (d * is_change / den)[:, None]
    w_cont = (d * ~is_change / den)[:, None]
    fo = f * f + o * o
    u = 1.0 - i
    return (w_change, w_cont, (fo + u * u) * w_change,
            ((2.0 - fo) + i * i) * w_cont)


def _diversity(codes, lengths, L: int):
    """Diversity of zero-padded (B, T, L) codes whose items have the
    given lengths, with each pair's weight for the backward pass.

    The pair dots are exact integers; the pair terms are summed in pair
    order, one after another, in the codes' dtype.
    """
    b = len(lengths)
    j, k = np.triu_indices(b, 1)
    t = np.minimum(lengths[j], lengths[k])
    dt = codes.dtype.type
    dots = np.einsum("jtl,ktl->jk", codes, codes)[j, k]
    # mean over t of (L + <b_j, b_k>) / (2L) == mean of 1 - H/L
    pair_w = (1.0 / (2.0 * L * t)).astype(dt)
    terms = (dots + (t * L).astype(dt)) * pair_w
    return np.add.accumulate(terms)[-1] * dt(2.0 / (b * (b - 1))), pair_w


def recon_loss_packed(recon, target, rows, row_w):
    """sum_r row_w[r] * ||recon[rows[r]] - target[r]||^2 as one node.

    ``recon`` is a packed decoder output and ``target`` the packed input
    rows; ``rows`` maps each target row to its decoder row. Returns the
    loss and each target row's squared error.
    """
    diff = val(recon)[rows] - target
    row_sq = np.einsum("nd,nd->n", diff, diff)
    out_v = np.asarray(row_sq @ row_w)
    if not isinstance(recon, ad.Tensor):
        return out_v, row_sq

    def bwd(g):
        np.multiply(diff, (2.0 * g * row_w)[:, None], out=diff)
        ad._buf(recon)[rows] += diff

    return ad.Tensor(out_v, (recon,), bwd), row_sq


def memory_loss_packed(gates, codes, enc: Layout, th: int, L: int):
    """The batch mean of :func:`memory_loss` as one node over the packed
    gates (f, i, o side by side) of the encoder layout ``enc``.

    The distances come from the +-1 ``codes`` and carry no gradient.
    Returns the loss and each item's memory loss. With no transition in
    the batch the loss is a plain 0.
    """
    gv, cv = val(gates), val(codes)
    b = len(enc.lengths)
    # item-major transitions: item n's steps 0..M_e-2, each with its next
    n_trans = enc.lengths - 1
    bounds = np.concatenate(([0], np.cumsum(n_trans)))
    item = np.repeat(np.arange(b), n_trans)
    step = np.arange(bounds[-1]) - bounds[item]
    rows = enc.offsets[step] + item
    d = ((cv[rows] > 0) != (cv[enc.offsets[step + 1] + item] > 0)).sum(axis=1)
    gate_rows = gv[rows]
    f, i, o = gate_rows[:, :L], gate_rows[:, L:2 * L], gate_rows[:, 2 * L:]
    w_change, w_cont, change, cont = _memory_terms(f, i, o, d, th, L,
                                                   enc.lengths[item])
    # each item's block is summed on its own, as memory_loss sums it: a
    # padded block would be grouped, and rounded, differently
    per_item = [change[a:z].sum() + cont[a:z].sum()
                for a, z in zip(bounds[:-1], bounds[1:])]
    out_v = np.asarray(sum(per_item) * (1.0 / b))
    if not len(rows):
        return out_v, per_item

    def bwd(g):
        gb = g * (1.0 / b)
        gc = (gb * w_change).astype(gv.dtype)
        gw = (gb * w_cont).astype(gv.dtype)
        # a row has one nonzero weight at most, so each difference and
        # product below rounds as the two terms' gradients summed would
        dg = np.empty_like(gate_rows)
        np.multiply(2.0 * f, gc - gw, out=dg[:, :L])
        np.subtract((2.0 * i) * gw, (2.0 * (1.0 - i)) * gc,
                    out=dg[:, L:2 * L])
        np.multiply(2.0 * o, gc - gw, out=dg[:, 2 * L:])
        ad._buf(gates)[rows] += dg

    return ad.Tensor(out_v, (gates,), bwd), per_item


def diversity_loss_packed(codes, enc: Layout, L: int):
    """:func:`diversity_loss` as one node over the packed +-1 ``codes``
    of the encoder layout ``enc``."""
    cv = val(codes)
    b = len(enc.lengths)
    step, item = enc.steps_items()
    padded = np.zeros((b, int(enc.lengths[0]), L), cv.dtype)
    padded[item, step] = cv
    out_v, pair_w = _diversity(padded, enc.lengths, L)
    j, k = np.triu_indices(b, 1)

    def bwd(g):
        w = np.zeros((b, b), cv.dtype)
        w[j, k] = w[k, j] = g * cv.dtype.type(2.0 / (b * (b - 1))) * pair_w
        # partners one at a time, in index order: the order the per-pair
        # reference rounds in, which a matmul need not keep
        acc = np.zeros_like(padded)
        for n in range(b):
            acc += w[:, n, None, None] * padded[n]
        ad._buf(codes)[...] += acc[item, step]

    return ad.Tensor(np.asarray(out_v), (codes,), bwd)


# -- trainer ----------------------------------------------------------------


def batch_loss(model: Autoencoder, seqs: list[FeatureSequence], th: int,
               inputs=None):
    """Training-mode forward plus loss for one batch (sorted by length).

    ``inputs`` is the batch's :func:`prepare_inputs`, computed when not
    given. Returns (total loss tensor, LossBreakdown of its value).
    """
    if len(seqs) < 2:
        raise BatchTooSmall("a training batch needs at least 2 videos")
    if inputs is None:
        inputs = prepare_inputs(seqs, model.dtype)
    fwd = forward_batch_train(seqs, model, inputs=inputs)
    L = model.L
    b = len(seqs)

    # reconstruction: each input row is compared with the decoder row of
    # the same step and item; the per-item scale 1/(B * L * M_i) leaves
    # decoder steps beyond an item's length out (the truncate-to-M cut)
    m_lens = fwd.inp.lengths
    step, item = fwd.inp.steps_items()
    row_w = 1.0 / (b * L * m_lens[item].astype(np.float64))
    recon_term, row_sq = recon_loss_packed(
        fwd.recon, inputs, fwd.dec.offsets[step] + item, row_w)
    recon_vals = np.bincount(item, weights=row_sq, minlength=b) / (L * m_lens)

    mem, mem_vals = memory_loss_packed(fwd.gates, fwd.codes, fwd.enc, th, L)
    div = diversity_loss_packed(fwd.codes, fwd.enc, L)
    total = ad.addn([recon_term, mem, div])
    breakdown = total_loss(recon_vals, mem_vals, float(val(div)))
    return total, breakdown


def _make_batches(seqs: list[FeatureSequence], batch_size: int):
    """Group into batches of similar length (each sorted long-to-short)."""
    order = sorted(seqs, key=lambda s: (-s.M, s.video_id))
    batches = [order[i:i + batch_size]
               for i in range(0, len(order), batch_size)]
    if len(batches) > 1 and len(batches[-1]) < 2:
        tail = batches.pop()
        batches[-1] = batches[-1] + tail
    return batches


def train(train_set: list[FeatureSequence], cfg: TrainConfig,
          model: Autoencoder):
    """Optimize the model on the train set; returns the per-epoch log.

    Batches are fixed groups of similar-length videos; their order is
    reshuffled every epoch with the seeded generator. The adjacent-
    Hamming weights are recomputed from the hard codes each step and
    never carry gradient.
    """
    if not train_set:
        raise EmptyTrainSet("nothing to train on")
    if any(not s.normalized for s in train_set):
        raise DoubleNormalize("train expects normalized features")
    if not (0 < cfg.memory_threshold <= model.L):
        raise ValueError(f"memory threshold must lie in (0, {model.L}]")
    batches = _make_batches(train_set, cfg.batch_size)
    if any(len(b) < 2 for b in batches):
        raise BatchTooSmall("cannot form batches of at least 2 videos")
    rng = np.random.default_rng(cfg.seed)
    adam = AdamConfig(lr=cfg.lr)
    params = model.parameters()
    prepared = [prepare_inputs(b, model.dtype) for b in batches]
    log: list[LossBreakdown] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(batches))
        sums = np.zeros(4)
        for bi in order:
            total, bd = batch_loss(model, batches[bi], cfg.memory_threshold,
                                   inputs=prepared[bi])
            if not np.isfinite(float(val(total))):
                raise NonFiniteLoss(f"epoch {epoch}, batch {bi}: "
                                    f"loss {float(val(total))}")
            total.backward()
            adam_step(params, adam)
            sums += (bd.recon, bd.memory, bd.diversity, bd.total)
        sums /= len(batches)
        log.append(LossBreakdown(*sums))
        if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            save_model(model, Path(cfg.checkpoint_dir) / f"epoch{epoch:05d}.mcbn")
    return model, log


def write_loss_log(log: list[LossBreakdown], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "recon", "memory", "diversity", "total"])
        for e, bd in enumerate(log, start=1):
            w.writerow([e, repr(bd.recon), repr(bd.memory),
                        repr(bd.diversity), repr(bd.total)])
