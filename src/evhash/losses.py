"""Training objective: reconstruction + gate regularization + code
diversity, optimized with Adam.

All three component losses accept either plain arrays or tape tensors,
so the same definitions serve the trainer and the tests.
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
from .model import (Autoencoder, _adjacent_hamming, forward_batch_train,
                    prepare_inputs, save_model)
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
    batch_size: int = 32
    epochs: int = 1
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    memory_threshold: int = 16  # bits; event-transition cutoff in the gate loss
    seed: int = 0
    checkpoint_every: int = 0   # epochs between checkpoints; 0 = none
    checkpoint_dir: Path | None = None

    def __post_init__(self):
        if self.batch_size < 2:
            raise BatchTooSmall("diversity loss needs at least 2 items")
        if self.memory_threshold <= 0:
            raise ValueError("memory threshold must be positive")


def recon_loss(recon, target, L: int):
    """Squared reconstruction error, scaled by 1/(L*M).

    The scale uses the hash length L, not the feature dimension.
    """
    rv, tv = val(recon), val(target)
    if rv.shape != tv.shape:
        raise ShapeMismatch(f"reconstruction {rv.shape} vs target {tv.shape}")
    m = rv.shape[0]
    return ad.scale(ad.sum_all(ad.square(ad.sub(recon, target))),
                    1.0 / (L * m))


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
    """
    f, i, o = gates
    m_e = val(f).shape[0]
    d_series = np.asarray(d_series, dtype=np.float64)
    if d_series.shape[0] != m_e - 1:
        raise LengthMismatch(
            f"{m_e} gate steps need {m_e - 1} distances, got {d_series.shape[0]}")
    if m_e == 1:
        return np.asarray(0.0)
    ft = ad.slice_rows(f, 0, m_e - 1)
    it = ad.slice_rows(i, 0, m_e - 1)
    ot = ad.slice_rows(o, 0, m_e - 1)
    transition = ad.addn([
        ad.square(ft),
        ad.square(ot),
        ad.square(ad.sub(1.0, it)),
    ])
    within = ad.add(
        ad.sub(2.0, ad.add(ad.square(ft), ad.square(ot))),
        ad.square(it))
    is_trans = (d_series >= th)
    w_trans = (d_series * is_trans)[:, None] / (3.0 * L * L * m_e)
    w_within = (d_series * ~is_trans)[:, None] / (3.0 * L * L * m_e)
    return ad.add(ad.wsum(transition, w_trans), ad.wsum(within, w_within))


def diversity_loss(codes_list, L: int):
    """Mean pairwise code similarity over a batch; lower is better.

    ``codes_list`` holds one (M_e_j, L) matrix of +-1 codes per video.
    For each of the B(B-1)/2 pairs, similarity 1 - Hamming/L is averaged
    over the shared timesteps; the result is the mean over pairs, in
    [0, 1]. Identical codes score 1, complementary codes 0.
    """
    b = len(codes_list)
    if b < 2:
        raise BatchTooSmall("diversity needs at least 2 videos")
    terms = []
    for j in range(b - 1):
        for k in range(j + 1, b):
            cj, ck = codes_list[j], codes_list[k]
            t = min(val(cj).shape[0], val(ck).shape[0])
            dot = ad.sum_all(ad.mul(ad.slice_rows(cj, 0, t),
                                    ad.slice_rows(ck, 0, t)))
            # mean over t of (L + <b_j, b_k>) / (2L) == mean of 1 - H/L
            terms.append(ad.scale(ad.add(dot, float(t * L)),
                                  1.0 / (2.0 * L * t)))
    return ad.scale(ad.addn(terms), 2.0 / (b * (b - 1)))


def total_loss(recon_per_video, memory_per_video, diversity) -> LossBreakdown:
    """Combine per-video terms: mean(recon + memory) over the batch,
    plus the batch-level diversity."""
    recon = float(np.mean(recon_per_video))
    memory = float(np.mean(memory_per_video))
    diversity = float(diversity)
    return LossBreakdown(recon=recon, memory=memory, diversity=diversity,
                         total=recon + memory + diversity)


# -- trainer ----------------------------------------------------------------


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


def batch_loss(model: Autoencoder, seqs: list[FeatureSequence], th: int,
               update_stats: bool = True, binarize: str = "hard",
               inputs=None):
    """Training-mode forward plus loss for one batch (sorted by length).

    ``inputs`` is the batch's :func:`prepare_inputs`, computed when not
    given. Returns (total loss tensor, LossBreakdown of its value).
    """
    if len(seqs) < 2:
        raise BatchTooSmall("a training batch needs at least 2 videos")
    if inputs is None:
        inputs = prepare_inputs(seqs, model.dtype)
    fwd = forward_batch_train(seqs, model, update_stats=update_stats,
                              binarize=binarize, inputs=inputs)
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

    per_video_mem = []
    mem_vals = []
    codes_items = []
    for i in range(b):
        rows = fwd.enc.item_rows(i)
        codes = ad.gather_rows(fwd.codes, rows)
        codes_items.append(codes)
        d_series = _adjacent_hamming(val(codes) > 0)
        g = ad.gather_rows(fwd.gates, rows)
        gates = tuple(ad.slice_cols(g, j * L, (j + 1) * L) for j in range(3))
        ml = memory_loss(gates, d_series, th, L)
        per_video_mem.append(ml)
        mem_vals.append(float(val(ml)))
    div = diversity_loss(codes_items, L)
    total = ad.addn([
        recon_term,
        ad.scale(ad.addn(per_video_mem), 1.0 / b),
        div,
    ])
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
    adam = AdamConfig(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                      eps_hat=cfg.eps_hat)
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
        if (cfg.checkpoint_every and cfg.checkpoint_dir is not None
                and epoch % cfg.checkpoint_every == 0):
            save_model(model, Path(cfg.checkpoint_dir) / f"epoch{epoch:05d}.mcbn")
    return model, log


def write_loss_log(log: list[LossBreakdown], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "recon", "memory", "diversity", "total"])
        for e, bd in enumerate(log, start=1):
            w.writerow([e, repr(bd.recon), repr(bd.memory),
                        repr(bd.diversity), repr(bd.total)])
