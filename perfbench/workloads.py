"""The benchmark's three workloads: ``train``, ``copy_eval``, ``index_mixed``.

Each is a closed loop with one client in one process. The untraced pass
gives the end-to-end metrics; ``trace=True`` adds a second, traced pass
over the same work for the per-layer metrics and the tracing overhead.
Every workload makes its inputs from the seed and checks its outputs.
"""

from __future__ import annotations

import resource
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evhash import autodiff, bench, hashing, index, ingest, losses
from evhash import model as model_mod
from evhash.errors import DataError

import cells
import oracles
from tracing import OpClock, Tracer, median, patched_attrs, tail

OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_s_p50", "s"),
              ("write_s_p50", "s"))

PER_LAYER = (
    ("model.forward_s", "s"), ("losses.loss_s", "s"),
    ("autodiff.backward_s", "s"), ("numerics.adam_s", "s"),
    ("autodiff.tape_nodes", "count"), ("autodiff.matmul_nodes", "count"),
    ("model.gemm_flops", "flop"),
    *((f"model.gemm_flops.{c}", "flop") for c in cells.CELL_NAMES),
    ("model.gemm_floor_s", "s"),
    *((f"model.gemm_floor_s.{c}", "s") for c in cells.CELL_NAMES),
    ("model.checkpoint_save_s", "s"), ("model.checkpoint_load_s", "s"),
    ("ingest.extract_s", "s"), ("ingest.frames", "count"),
    ("ingest.normalize_s", "s"), ("bench.crop_s", "s"), ("bench.self_s", "s"),
    ("model.encode_s", "s"), ("model.encode_steps", "count"),
    ("hashing.hash_s", "s"),
    *((f"hashing.events.{m}", "count") for m in hashing.MODES),
    ("index.query_s", "s"), ("index.add_s", "s"),
    ("index.entries_scanned", "count"), ("index.k_returned", "count"),
    ("index.event_pairs", "count"), ("index.save_s", "s"),
    ("index.load_s", "s"), ("index.file_bytes_per_event", "B"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)   # name -> passed
    e2e: dict = field(default_factory=dict)      # END_TO_END name -> value
    named: dict = field(default_factory=dict)    # name -> (value, unit)
    layers: dict = field(default_factory=dict)   # PER_LAYER name -> value
    lines: list = field(default_factory=list)
    trace: dict | None = None

    def layer_metrics(self):
        return {name: {"value": float(self.layers.get(name, 0.0)),
                       "unit": unit} for name, unit in PER_LAYER}


# -- tracing targets ------------------------------------------------------------


def tape_size(root) -> tuple[int, int]:
    """(nodes, matmul nodes) reachable from ``root`` through its parents."""
    seen = {id(root)}
    stack = [root]
    matmuls = 0
    while stack:
        node = stack.pop()
        if node._bwd is not None and node._bwd.__qualname__.startswith("matmul."):
            matmuls += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), matmuls


def _trace_targets(tr: Tracer):
    """Every public call the workloads make into evhash, wrapped under the
    name its caller looks up: ``losses.train`` finds its helpers in
    ``evhash.losses``, ``bench.run_eval`` in ``evhash.bench``, and the
    benchmark's own calls go through ``evhash.index`` and ``evhash.model``."""

    def tape(args, kwargs):
        nodes, matmuls = tape_size(args[0])
        tr.count("autodiff.tape_nodes", nodes)
        tr.count("autodiff.matmul_nodes", matmuls)

    def frames(args, kwargs):
        tr.count("ingest.frames", len(args[0].frames))

    def steps(args, kwargs, res):
        tr.count("model.encode_steps", res.M_e)

    def events(args, kwargs, res):
        tr.count(f"hashing.events.{res.mode}", res.E)

    def scan(args, kwargs):
        db, query = args[0], args[1]
        tr.count("index.query_calls")
        tr.count("index.entries_scanned", len(db.entries))
        tr.count("index.event_pairs",
                 query.E * sum(len(e.packed) for e in db.entries.values()))

    def returned(args, kwargs, res):
        tr.count("index.k_returned", len(res))

    query = ("index.query_topk", scan, returned)
    return [
        (losses, "forward_batch_train", "model.forward_batch_train", None, None),
        (losses, "batch_loss", "losses.batch_loss", None, None),
        (losses, "adam_step", "numerics.adam_step", None, None),
        (autodiff.Tensor, "backward", "autodiff.backward", tape, None),
        (model_mod, "save_model", "model.save_model", None, None),
        (model_mod, "load_model", "model.load_model", None, None),
        (bench, "run_eval", "bench.run_eval", None, None),
        (bench, "crop_frames", "bench.crop_frames", None, None),
        (bench, "extract_features", "ingest.extract_features", frames, None),
        (bench, "normalize", "ingest.normalize", None, None),
        (bench, "encode", "model.encode", None, steps),
        (bench, "hash_video", "hashing.hash_video", None, events),
        (bench, "db_add", "index.db_add", None, None),
        (bench, "query_topk", *query),
        (index, "db_add", "index.db_add", None, None),
        (index, "query_topk", *query),
        (index, "db_save", "index.db_save", None, None),
        (index, "db_load", "index.db_load", None, None),
    ]


def _traced(tracer):
    return tracer.patched(_trace_targets(tracer)) if tracer else nullcontext()


# -- shared helpers -------------------------------------------------------------


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(make, repeats):
    """Run ``make`` ``repeats`` times; (median seconds, last result)."""
    times = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous inputs go before building new ones
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return median(times), result


def _synth_set(seed, n, duration_s):
    """n procedural videos, their ids, norm stats and normalized features."""
    videos = [bench.synth_video(seed * 1000 + i, duration_s) for i in range(n)]
    ids = [f"vid{i:04d}" for i in range(n)]
    feats = [ingest.extract_features(v, vid) for v, vid in zip(videos, ids)]
    stats = ingest.compute_norm_stats(feats)
    return videos, ids, stats, [ingest.normalize(f, stats) for f in feats]


LR = 3e-3          # c10's Adam learning rate
MODEL_SEED = 7     # c10's model and batching seed


@dataclass(frozen=True)
class ModelSpec:
    """c10's model (tests/test_acceptance.py)."""

    L: int = 8
    enc_dims: tuple = (16, 16, 8)
    th: int = 2

    def build(self):
        return model_mod.build_model(D=ingest.FEATURE_DIM, L=self.L,
                                     encoder_dims=self.enc_dims,
                                     seed=MODEL_SEED, dtype=np.float32)

    def train_config(self, batch_size, epochs):
        return losses.TrainConfig(batch_size=batch_size, epochs=epochs,
                                  lr=LR, memory_threshold=self.th,
                                  seed=MODEL_SEED)


def _share(n, total):
    return n / total if total else 0.0


def _base_named(out):
    out.named.update(setup_s=(out.e2e["setup_s"], "s"),
                     peak_rss_mb=(out.e2e["peak_rss_mb"], "MB"),
                     ops_failed_share=(_share(out.failed, out.attempted),
                                       "share"))


# -- train -----------------------------------------------------------------------

WARMUP_STEPS = 1
MIN_STEPS = 2
CHECKPOINT_SAVES = 3   # timed save_model calls after each Adam step


@dataclass(frozen=True)
class TrainSpec:
    """c10: 20 synthetic 20 s videos in one batch of 20."""

    videos: int = 20
    duration_s: int = 20
    model: ModelSpec = ModelSpec()
    # reference step time (2-core CPU): --seconds / step_s steps are timed
    step_s: float = 3.5


def _train_pass(spec: TrainSpec, train_set, steps, tracer=None):
    """One ``losses.train`` call of warm-up + ``steps`` Adam steps on a
    fresh model, checkpointed after every step by CHECKPOINT_SAVES
    ``save_model`` calls that are timed apart from the step. Returns (model,
    loss log, timed step seconds, save seconds, whether
    save_model(load_model(f)) reproduces f byte for byte, error)."""
    net = spec.model.build()
    cfg = spec.model.train_config(len(train_set), WARMUP_STEPS + steps)
    clock = OpClock(tracer.next_op if tracer else None)
    saves, resumed = [], []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as d:
        a, b = Path(d) / "a.mcbn", Path(d) / "b.mcbn"

        def checkpointed(adam_step):
            def step(*args, **kwargs):
                result = adam_step(*args, **kwargs)
                clock.tick()
                for _ in range(CHECKPOINT_SAVES):
                    a.unlink(missing_ok=True)  # each save writes a new file
                    t0 = time.perf_counter()
                    model_mod.save_model(net, a)
                    saves.append(time.perf_counter() - t0)
                resumed.append(time.perf_counter())
                return result
            return step

        log, error = [], None
        with _traced(tracer), patched_attrs(
                [(losses, "adam_step", checkpointed(losses.adam_step))]):
            resumed.append(time.perf_counter())
            try:
                _, log = losses.train(train_set, cfg, net)
            except DataError as exc:
                error = exc
            roundtrip = False
            if a.exists():
                model_mod.save_model(model_mod.load_model(a, dtype=net.dtype), b)
                roundtrip = a.read_bytes() == b.read_bytes()
    times = [e - s for s, e in zip(resumed, clock.stamps)][WARMUP_STEPS:]
    return net, log, times, saves, roundtrip, error


def _loss_rows(log):
    return [(bd.recon, bd.memory, bd.diversity, bd.total) for bd in log]


def run_train(seed, seconds, trace, spec=TrainSpec(), setup_repeats=5):
    steps = max(MIN_STEPS, round(seconds / spec.step_s))
    rss0 = _max_rss_mb()
    setup_s, (_, _, _, train_set) = _timed_setup(
        lambda: _synth_set(seed, spec.videos, spec.duration_s),
        1 if trace else setup_repeats)
    net, log, times, saves, roundtrip, error = _train_pass(spec, train_set,
                                                           steps)
    attempted = WARMUP_STEPS + steps
    finite = [bool(np.isfinite(r).all()) for r in _loss_rows(log)]
    out = Outcome(attempted=attempted,
                  failed=attempted - len(log) + finite.count(False))
    out.e2e = {"setup_s": setup_s, "peak_rss_mb": _max_rss_mb() - rss0,
               "write_s_p50": median(saves)}
    out.checks["loss finite"] = error is None and all(finite)
    out.checks["checkpoint round trip is byte-identical"] = roundtrip
    if not times:
        raise RuntimeError(f"no timed train step completed: {error}")

    lengths = [s.M for s in train_set]
    flops = cells.step_flops(net, lengths)
    floor = cells.gemm_floor(net, lengths, net.dtype)
    per_cell = " | ".join(f"{c} {flops[c] / 1e9:.3f} GFLOP {floor[c]:.4f} s"
                          for c in cells.CELL_NAMES)
    for i, t in enumerate(times, start=1):
        out.lines.append(f"step {i}/{len(times)}: {t:.4f} s | GEMM flops "
                         f"(computed) and measured GEMM floor per cell: "
                         f"{per_cell}")
    out.lines.append(f"step GEMM total: {sum(flops.values()) / 1e9:.3f} GFLOP "
                     f"(computed), floor {sum(floor.values()):.4f} s (measured)")

    step_p50 = median(times)
    out.e2e["op_s_p50"] = step_p50
    out.named["train_step_s"] = (step_p50, f"s (median of {len(times)} steps)")
    _base_named(out)
    if not trace:
        return out

    tracer = Tracer()
    _, log_t, times_t, saves_t, _, _ = _train_pass(spec, train_set, steps,
                                                   tracer)
    out.checks["traced and untraced loss sequences are bit-identical"] = \
        _loss_rows(log) == _loss_rows(log_t)
    timed_ops = set(range(WARMUP_STEPS, WARMUP_STEPS + steps))
    total, self_t = tracer.layer_times(timed_ops)
    all_total, _ = tracer.layer_times()
    n = len(times_t)
    out.layers = {
        "model.forward_s": total["model.forward_batch_train"] / n,
        "losses.loss_s": self_t["losses.batch_loss"] / n,
        "autodiff.backward_s": total["autodiff.backward"] / n,
        "numerics.adam_s": total["numerics.adam_step"] / n,
        "autodiff.tape_nodes": tracer.counted("autodiff.tape_nodes", timed_ops) / n,
        "autodiff.matmul_nodes":
            tracer.counted("autodiff.matmul_nodes", timed_ops) / n,
        "model.gemm_flops": sum(flops.values()),
        "model.gemm_floor_s": sum(floor.values()),
        "model.checkpoint_save_s":
            all_total["model.save_model"] / (len(saves_t) + 1),
        "model.checkpoint_load_s": all_total["model.load_model"],
        "trace.overhead_s": sum(times_t) / n - sum(times) / len(times),
    }
    for c in cells.CELL_NAMES:
        out.layers[f"model.gemm_flops.{c}"] = flops[c]
        out.layers[f"model.gemm_floor_s.{c}"] = floor[c]
    out.trace = tracer.dump()
    return out


# -- copy_eval ---------------------------------------------------------------------


# reference time of the whole eval (2-core CPU): each run queries all copies
# of round(sources * --seconds / EVAL_S) sources picked by the seed
EVAL_S = 30.0
# The picked sources are split over this many run_eval calls, so that the
# database write is timed at several points of the run, not in one burst.
EVALS = 4


@dataclass(frozen=True)
class CopyEvalSpec:
    """c10's evaluation: every time-cropped copy of 20 sources of 20 s."""

    sources: int = 20
    duration_s: int = 20
    model: ModelSpec = ModelSpec()
    # the model is prepared by a few Adam steps on the first rows of each
    # source; later encoder steps reuse the last trained BN statistics
    prep_steps: int = 2
    prep_rows: int = 32
    check_sources: int = 3    # sources in the repeated-report check
    check_every: int = 25     # every n-th ranking is checked by a full scan


def _copy_eval_setup(seed, spec: CopyEvalSpec):
    videos, ids, stats, train_set = _synth_set(seed, spec.sources,
                                               spec.duration_s)
    net = spec.model.build()
    prep = [ingest.FeatureSequence(s.video_id, s.features[:spec.prep_rows],
                                   normalized=True) for s in train_set]
    losses.train(prep, spec.model.train_config(len(prep), spec.prep_steps), net)
    return videos, ids, stats, net


def _eval_pass(spec: CopyEvalSpec, env, copies, tracer=None, sample_every=0):
    """``bench.run_eval`` over ``copies``, timing each query from its crop
    and each source's database write (its 3 hashes and 3 adds) from the
    end of its ``encode`` to the next source's ``extract_features`` call.

    Returns (report or None, per-query seconds, per-source write seconds,
    sampled (db, query, k, ranking) tuples of every ``sample_every``-th
    query_topk call)."""
    videos, ids, stats, net = env
    clock = OpClock(tracer.next_op if tracer else None)
    ingested, encoded = OpClock(), OpClock()
    sampled = []
    calls = [0]

    def sampling(fn):
        def query_topk(db, query, k):
            res = fn(db, query, k)
            calls[0] += 1
            if calls[0] % sample_every == 0:
                sampled.append((db, query, k, res))
            return res
        return query_topk

    with _traced(tracer), patched_attrs(
            [(bench, "crop_frames", clock.before(bench.crop_frames)),
             (bench, "extract_features",
              ingested.before(bench.extract_features)),
             (bench, "encode", encoded.after(bench.encode))]
            + ([(bench, "query_topk", sampling(bench.query_topk))]
               if sample_every else [])):
        try:
            report = bench.run_eval(
                videos, ids, net, stats, copies=copies, T_s=4.0,
                detect_cfg=hashing.EventDetectConfig(hard_threshold=spec.model.th))
        except DataError:
            report = None
        t1 = time.perf_counter()
    times = np.diff([*clock.stamps, t1]) if clock.stamps else []
    n = len(videos)
    write_s = ([b - a for a, b in zip(encoded.stamps[:n],
                                      [*ingested.stamps[1:n], clock.stamps[0]])]
               if clock.stamps else [])
    return report, [float(t) for t in times], write_s, sampled


def _rankings_match_oracle(sampled) -> bool:
    return bool(sampled) and all(
        [vid for vid, _ in res] == oracles.naive_rank(db, q)[:k]
        for db, q, k, res in sampled)


def _eval_passes(spec: CopyEvalSpec, env, groups, tracer=None,
                 sample_every=0):
    """One ``_eval_pass`` per group of copies, each building its own
    database. Returns (reports, per-query seconds, per-source write
    seconds, sampled rankings, ops of the database builds)."""
    reports, times, write_s, sampled, build_ops = [], [], [], [], set()
    for copies in groups:
        if tracer:
            tracer.next_op()
            build_ops.add(tracer.op)
        report, t, w, s = _eval_pass(spec, env, copies, tracer, sample_every)
        reports.append(report)
        times += t
        write_s += w
        sampled += s
    return reports, times, write_s, sampled, build_ops


def run_copy_eval(seed, seconds, trace, spec=CopyEvalSpec(), setup_repeats=3):
    rss0 = _max_rss_mb()
    setup_s, env = _timed_setup(lambda: _copy_eval_setup(seed, spec),
                                1 if trace else setup_repeats)
    videos, ids, stats, net = env
    n_sources = min(spec.sources, max(1, round(spec.sources * seconds
                                               / EVAL_S)))
    picked = sorted(np.random.default_rng(seed).choice(
        spec.sources, n_sources, replace=False))
    groups = [[c for i in part
               for c in bench.make_copies(spec.duration_s, source_id=ids[i])]
              for part in np.array_split(picked, EVALS) if len(part)]
    reports, times, write_s, sampled, _ = _eval_passes(
        spec, env, groups, sample_every=spec.check_every)
    q = sum(len(g) for g in groups)
    failed = sum(len(g) for g, r in zip(groups, reports) if r is None)
    out = Outcome(attempted=q, failed=failed)
    if failed or len(times) != q:
        raise RuntimeError("bench.run_eval failed on the timed copies")
    out.e2e = {"setup_s": setup_s, "peak_rss_mb": _max_rss_mb() - rss0,
               "op_s_p50": median(times), "write_s_p50": median(write_s)}
    out.checks["sampled rankings equal the naive full scan"] = \
        _rankings_match_oracle(sampled)

    if trace:
        tracer = Tracer()
        reports_t, times_t, _, _, build_ops = _eval_passes(spec, env, groups,
                                                           tracer)
        out.checks["traced and untraced reports are identical"] = \
            repr(reports) == repr(reports_t)
    else:
        k = min(spec.check_sources, spec.sources)
        small = (videos[:k], ids[:k], stats, net)
        few = [bench.make_copies(spec.duration_s, source_id=ids[i])[-1]
               for i in range(k)]
        report_a, _, _, _ = _eval_pass(spec, small, few)
        report_b, _, _, _ = _eval_pass(spec, small, few)
        out.checks["repeated reports are identical"] = \
            report_a is not None and repr(report_a) == repr(report_b)

    out.named["eval_queries_per_s"] = (
        1.0 / out.e2e["op_s_p50"],
        f"1/s (inverse of the median of {q} queries, 3 modes each)")
    _base_named(out)
    out.lines.append(f"copies evaluated: {q} of "
                     f"{spec.sources * len(bench.make_copies(spec.duration_s))}"
                     f", in {len(groups)} evals with a database build each")
    if not trace:
        return out

    query_ops = set(range(tracer.op + 1)) - build_ops
    total, self_t = tracer.layer_times()
    calls = tracer.counted("index.query_calls")
    out.layers = {
        "ingest.extract_s": total["ingest.extract_features"] / q,
        "ingest.frames": tracer.counted("ingest.frames") / q,
        "ingest.normalize_s": total["ingest.normalize"] / q,
        "bench.crop_s": total["bench.crop_frames"] / q,
        "bench.self_s": self_t["bench.run_eval"] / q,
        "model.encode_s": total["model.encode"] / q,
        "model.encode_steps": tracer.counted("model.encode_steps") / q,
        "hashing.hash_s": total["hashing.hash_video"] / q,
        "index.query_s": total["index.query_topk"] / q,
        "index.add_s": total["index.db_add"] / q,
        "index.entries_scanned": tracer.counted("index.entries_scanned") / calls,
        "index.k_returned": tracer.counted("index.k_returned") / calls,
        "index.event_pairs": tracer.counted("index.event_pairs") / calls,
        "trace.overhead_s": sum(times_t) / q - sum(times) / q,
    }
    for m in hashing.MODES:
        out.layers[f"hashing.events.{m}"] = \
            tracer.counted(f"hashing.events.{m}", query_ops) / q
    out.trace = tracer.dump()
    return out


# -- index_mixed -------------------------------------------------------------------

INDEX_L = 64
MIN_S, MAX_S = 4, 60     # video durations the entries' event counts model
# Assumed, not measured: the share of queries that are planted copies, the
# adds served per query, and the bits flipped per planted event.
PLANTED_SHARE = 0.8
ADDS_PER_QUERY = 2
MAX_FLIPS = 3
TOP_K = 10
# Each run builds this many fresh databases in turn, so that the write phase
# is timed at several points of the run, not in one burst.
EPOCHS = 4


@dataclass(frozen=True)
class IndexSpec:
    """A paper-size (L=64) database of about 10k entries, read and written."""

    entries: int = 10_000
    pool: int = 256           # simulated videos whose event counts entries draw
    # reference query time at 10k entries (2-core CPU): about
    # --seconds / query_s queries are served, a multiple of EPOCHS
    query_s: float = 0.2
    min_queries: int = 24
    check_every: int = 16     # every n-th query is checked by a full scan


@dataclass
class Query:
    vh: hashing.VideoHash
    source: str | None        # the planted entry, None for unrelated queries


@dataclass
class Entry:
    """A hash waiting to be added, kept packed until its add is served."""

    video_id: str
    packed: np.ndarray        # (E, L/8) uint8, bit order of index.pack_codes
    duration_s: float

    def video_hash(self) -> hashing.VideoHash:
        bits = np.unpackbits(self.packed, axis=1, bitorder="little")
        return hashing.VideoHash(self.video_id, INDEX_L, bits,
                                 np.arange(1, len(bits) + 1), "events",
                                 self.duration_s)


def events_mode_counts(rng, spec: IndexSpec):
    """(duration, event count) that events mode gives simulated 4-60 s videos.

    The encoder is modelled as ideal for events mode: its code changes at
    every shot boundary of ``bench.synth_video`` (2-8 s shots) and nowhere
    else, each shot with a fresh uniform code. ``hashing.detect_event_ends``
    at the L/4 cutoff turns the codes into events: one per shot, fewer
    where a shot is shorter than the minimum event length. This is a model,
    not a measurement of the repo's encoder.
    """
    cfg = hashing.EventDetectConfig(hard_threshold=INDEX_L // 4)
    steps_per_s = 25 / hashing.FRAMES_PER_STEP
    out = []
    for _ in range(spec.pool):
        t = int(rng.integers(MIN_S, MAX_S + 1))
        m_e = model_mod.encoder_len(-(-25 * t // 2))
        shot_ends = np.cumsum(rng.uniform(2.0, 8.0, size=t // 2 + 1)) * steps_per_s
        shot = np.searchsorted(shot_ends, np.arange(m_e), side="right")
        codes = rng.integers(0, 2, size=(shot[-1] + 1, INDEX_L),
                             dtype=np.uint8)[shot]
        d = (codes[1:] != codes[:-1]).sum(axis=1)
        out.append((t, len(hashing.detect_event_ends(d, cfg, m_e))))
    return out


def _random_entries(rng, pool, prefix, n):
    picks = rng.integers(0, len(pool), size=n)
    counts = [pool[p][1] for p in picks]
    packed = rng.integers(0, 256, size=(sum(counts), INDEX_L // 8),
                          dtype=np.uint8)
    starts = np.cumsum([0] + counts)
    return [Entry(f"{prefix}{i:05d}", packed[starts[i]:starts[i + 1]],
                  float(pool[picks[i]][0]))
            for i in range(n)]


def _index_setup(seed, spec: IndexSpec, n_queries):
    """The plan: EPOCHS epochs, each a write phase of one round per entry,
    then rounds of a few adds and a query. Every epoch adds the same
    entries in the same order to a fresh database and serves its own share
    of the queries. Entries, extra entries and queries all come from the
    seed."""
    rng = np.random.default_rng(seed)
    pool = events_mode_counts(rng, spec)
    base = _random_entries(rng, pool, "e", spec.entries)
    per_epoch = n_queries // EPOCHS
    extra = _random_entries(rng, pool, "x", per_epoch * ADDS_PER_QUERY)
    unrelated = iter(_random_entries(rng, pool, "u", n_queries))
    queries = []
    for qi in range(n_queries):
        if rng.random() >= PLANTED_SHARE:
            queries.append(Query(next(unrelated).video_hash(), None))
            continue
        src = base[int(rng.integers(0, len(base)))].video_hash()
        run = int(rng.integers(1, src.E + 1))
        a = int(rng.integers(0, src.E - run + 1))
        ev = src.events[a:a + run].copy()
        for row in ev:
            flips = rng.choice(INDEX_L, int(rng.integers(1, MAX_FLIPS + 1)),
                               replace=False)
            row[flips] ^= 1
        queries.append(Query(hashing.VideoHash(
            f"q{qi:05d}", INDEX_L, ev, np.arange(1, run + 1), "events",
            src.duration_seconds * run / src.E), src.video_id))
    write = [[("add", e)] for e in base]
    epochs = []
    for lo in range(0, n_queries, per_epoch):
        epochs.append(write + [
            [("add", e) for e in extra[i * ADDS_PER_QUERY:
                                       (i + 1) * ADDS_PER_QUERY]]
            + [("query", query)]
            for i, query in enumerate(queries[lo:lo + per_epoch])])
    return epochs


def _index_pass(plan, tracer=None, sample_every=0):
    """Serve each epoch's rounds against a fresh database, then save and
    reload the last one. An epoch's first rounds are single adds (the write
    phase); each later round is a few adds followed by one query. Every
    ``sample_every``-th query is kept with the database size it saw; as all
    epochs add the same entries, the last database holds what each saw."""
    res = {"add_s": [], "query_s": [], "rankings": [], "sampled": [],
           "failed": 0, "planted_first": True}
    for epoch in plan:
        db = index.HashDatabase(INDEX_L, "events")
        for ops in epoch:
            if tracer:
                tracer.next_op()
            for kind, item in ops:
                vh = item.video_hash() if kind == "add" else item.vh
                t0 = time.perf_counter()
                try:
                    if kind == "add":
                        index.db_add(db, vh)
                    else:
                        ranking = index.query_topk(db, vh, TOP_K)
                except DataError:
                    res["failed"] += 1
                    continue
                res[f"{kind}_s"].append(time.perf_counter() - t0)
                if kind != "query":
                    continue
                ids = [vid for vid, _ in ranking]
                res["rankings"].append(ids)
                if item.source is not None:
                    res["planted_first"] &= ids[0] == item.source
                if sample_every and len(res["query_s"]) % sample_every == 1:
                    res["sampled"].append((vh, len(db), ids))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as d:
        path = Path(d) / "db.vhdb"
        t0 = time.perf_counter()
        index.db_save(db, path)
        t1 = time.perf_counter()
        loaded = index.db_load(path)
        t2 = time.perf_counter()
        res["bytes"] = path.stat().st_size
    res.update(db=db, save_s=t1 - t0, load_s=t2 - t1, roundtrip=loaded == db,
               events=sum(len(e.packed) for e in db.entries.values()))
    return res


def run_index_mixed(seed, seconds, trace, spec=IndexSpec(), setup_repeats=15):
    n_queries = EPOCHS * max(-(-spec.min_queries // EPOCHS),
                             round(seconds / spec.query_s / EPOCHS))
    rss0 = _max_rss_mb()
    setup_s, plan = _timed_setup(lambda: _index_setup(seed, spec, n_queries),
                                 1 if trace else setup_repeats)
    r = _index_pass(plan, sample_every=spec.check_every)
    q, a = r["query_s"], r["add_s"]
    out = Outcome(attempted=sum(len(ops) for epoch in plan for ops in epoch),
                  failed=r["failed"])
    out.e2e = {"setup_s": setup_s, "peak_rss_mb": _max_rss_mb() - rss0,
               "op_s_p50": median(q), "write_s_p50": median(a)}
    out.checks["planted copies rank their source first"] = r["planted_first"]
    out.checks["sampled rankings equal the naive full scan"] = \
        bool(r["sampled"]) and all(
            ids == oracles.full_scan_rank(r["db"], vh, n)[:TOP_K]
            for vh, n, ids in r["sampled"])
    out.checks["db_load(db_save(db)) equals db"] = r["roundtrip"]

    tail_s, tail_pct = tail(q)
    out.named = {
        "index_query_s_p50": (median(q), f"s ({len(q)} queries)"),
        "index_query_s_tail": (tail_s, f"s (p{tail_pct:.1f} of {len(q)})"),
        "index_adds_per_s": (len(a) / sum(a), f"1/s ({len(a)} adds)"),
    }
    _base_named(out)
    out.lines.append(f"database: {len(r['db'])} entries, {r['events']} events, "
                     f"{r['bytes']} bytes saved in {r['save_s']:.4f} s, "
                     f"loaded in {r['load_s']:.4f} s")
    if not trace:
        return out

    rankings = r["rankings"]
    del r  # the traced pass builds its own database
    tracer = Tracer()
    with _traced(tracer):
        rt = _index_pass(plan, tracer)
    out.checks["traced and untraced rankings are identical"] = \
        rt["rankings"] == rankings
    total, _ = tracer.layer_times()
    nq, na = len(rt["query_s"]), len(rt["add_s"])
    out.layers = {
        "index.query_s": total["index.query_topk"] / nq,
        "index.add_s": total["index.db_add"] / na,
        "index.entries_scanned": tracer.counted("index.entries_scanned") / nq,
        "index.k_returned": tracer.counted("index.k_returned") / nq,
        "index.event_pairs": tracer.counted("index.event_pairs") / nq,
        "index.save_s": total["index.db_save"],
        "index.load_s": total["index.db_load"],
        "index.file_bytes_per_event": rt["bytes"] / rt["events"],
        "trace.overhead_s": (sum(rt["query_s"]) + sum(rt["add_s"])
                             - sum(q) - sum(a)) / (nq + na),
    }
    out.trace = tracer.dump()
    return out


WORKLOADS = {"train": run_train, "copy_eval": run_copy_eval,
             "index_mixed": run_index_mixed}
