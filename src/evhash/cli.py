"""Command-line pipeline: synth -> ingest -> stats -> train -> hash ->
db-build -> query / eval / dseries.

Results go to stdout, progress to stderr. Exit codes: 0 on success,
1 on usage errors (a bad flag value among them), 2 on data errors (bad,
missing or unreadable files, mismatched inputs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench, hashing, index, ingest, losses, model as model_mod
from .errors import DataError

_DTYPES = {"float64": np.float64, "float32": np.float32}


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_seed_sidecar(artifact_path, seed: int) -> None:
    Path(f"{artifact_path}.seed.txt").write_text(f"{seed}\n")


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    durations = args.durations
    if durations is None:
        rng = np.random.default_rng(args.seed)
        durations = [int(rng.integers(args.min_duration,
                                      args.max_duration + 1))
                     for _ in range(args.count)]
    copies = []
    for i, dur in enumerate(durations):
        vid = f"vid{i:04d}"
        seq = bench.synth_video(args.seed + i, dur)
        ingest.write_fseq(seq, out / f"{vid}.fseq")
        copies.extend(bench.make_copies(dur, source_id=vid))
        _progress(f"synth {vid}: {dur}s, {len(seq.frames)} frames")
    bench.write_copies_csv(copies, out / "copies.csv")
    _write_seed_sidecar(out / "corpus", args.seed)
    print(f"{len(durations)} videos, {len(copies)} copy specs -> {out}")
    return 0


def cmd_ingest(args) -> int:
    seq = ingest.load_fseq(args.infile)
    vid = args.id if args.id else Path(args.outfile).stem
    feats = ingest.extract_features(seq, vid)
    ingest.write_feat(feats, args.outfile)
    print(f"{args.outfile}: M={feats.M} D={feats.D}")
    return 0


def cmd_stats(args) -> int:
    seqs = [ingest.load_feat(p) for p in args.feats]
    stats = ingest.compute_norm_stats(seqs)
    ingest.write_norm_stats(stats, args.outfile)
    print(f"{args.outfile}: D={stats.D} over {len(seqs)} sequences")
    return 0


def cmd_train(args) -> int:
    stats = ingest.load_norm_stats(args.stats)
    train_set = [ingest.normalize(ingest.load_feat(p), stats)
                 for p in args.feats]
    dims = tuple(args.enc_dims)
    if len(dims) != 3:
        raise DataError(f"--enc-dims needs three values, got {len(dims)}")
    dtype = _DTYPES[args.dtype]
    net = model_mod.build_model(D=stats.D, L=args.L, encoder_dims=dims,
                                seed=args.seed, dtype=dtype)
    cfg = losses.TrainConfig(
        batch_size=args.batch_size, epochs=args.epochs, lr=args.lr,
        memory_threshold=args.th, seed=args.seed,
        checkpoint_every=args.ckpt_every,
        checkpoint_dir=Path(args.ckpt_dir) if args.ckpt_dir else None)
    if cfg.checkpoint_dir is not None:
        cfg.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    _progress(f"training {len(train_set)} videos for {cfg.epochs} epochs")
    net, log = losses.train(train_set, cfg, net)
    model_mod.save_model(net, args.outfile)
    _write_seed_sidecar(args.outfile, args.seed)
    if args.loss_log:
        losses.write_loss_log(log, args.loss_log)
    print(f"{args.outfile}: epoch1 total={log[0].total:.6f} "
          f"epoch{len(log)} total={log[-1].total:.6f}")
    return 0


def _detect_cfg(args) -> hashing.EventDetectConfig:
    return hashing.EventDetectConfig(hard_threshold=args.th)


def _load_normalized(feat_path, stats_path):
    feats = ingest.load_feat(feat_path)
    if feats.normalized:
        return feats
    if not stats_path:
        raise DataError(f"{feat_path} is unnormalized; pass --stats")
    return ingest.normalize(feats, ingest.load_norm_stats(stats_path))


def cmd_hash(args) -> int:
    net = model_mod.load_model(args.model)
    feats = _load_normalized(args.feat, args.stats)
    enc = model_mod.encode(feats, net)
    duration = (2.0 * feats.M / 25.0 if args.duration is None
                else args.duration)
    vh = hashing.hash_video(enc, args.mode, _detect_cfg(args), args.ts,
                            feats.video_id, duration)
    hashing.write_video_hash(vh, args.outfile)
    print(f"{args.outfile}: {vh.E} events x {vh.L} bits")
    return 0


def cmd_db_build(args) -> int:
    hashes = [hashing.load_video_hash(p) for p in args.hashes]
    if not hashes:
        raise DataError("db-build needs at least one hash file")
    db = index.HashDatabase(hashes[0].L, args.mode)
    for vh in hashes:
        index.db_add(db, vh)
    index.db_save(db, args.outfile)
    print(f"{args.outfile}: {len(db)} videos, L={db.L}, mode={db.mode}")
    return 0


def cmd_db_add(args) -> int:
    db = index.db_load(args.db)
    index.db_add(db, hashing.load_video_hash(args.hash))
    out = args.out if args.out else args.db
    index.db_save(db, out)
    print(f"{out}: {len(db)} videos")
    return 0


def cmd_query(args) -> int:
    db = index.db_load(args.db)
    vh = hashing.load_video_hash(args.hash)
    for vid, dist in index.query_topk(db, vh, args.topk):
        print(f"{vid} {dist:.3f}")
    return 0


def cmd_eval(args) -> int:
    net = model_mod.load_model(args.model)
    stats = ingest.load_norm_stats(args.stats)
    fseq_paths = sorted(Path(args.fseq_dir).glob("*.fseq"))
    if not fseq_paths:
        raise DataError(f"no .fseq files in {args.fseq_dir}")
    videos = [ingest.load_fseq(p) for p in fseq_paths]
    ids = [p.stem for p in fseq_paths]
    copies = bench.load_copies_csv(args.copies) if args.copies else None
    report = bench.run_eval(
        videos, ids, net, stats, copies=copies, modes=args.modes, T_s=args.ts,
        detect_cfg=_detect_cfg(args),
        progress=lambda done, total: _progress(f"eval {done}/{total} queries"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in bench.write_report_csvs(report, out_dir):
        print(path)
    return 0


def cmd_dseries(args) -> int:
    net = model_mod.load_model(args.model)
    feats = _load_normalized(args.feat, args.stats)
    enc = model_mod.encode(feats, net)
    hashing.write_d_series_csv(enc, args.outfile, _detect_cfg(args))
    print(f"{args.outfile}: {max(enc.M_e - 1, 0)} transitions")
    return 0


# -- parser -------------------------------------------------------------------


def _int_at_least(low: int, what: str):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")


def _learning_rate(text: str) -> float:
    """--lr: a finite value >= 0, as ``numerics.AdamConfig`` takes."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite learning rate >= 0, got {text!r}")
    return value


def _hash_duration(text: str) -> float:
    """--duration: finite, > 0 and within float32, as VHDB stores it."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 < value <= index.MAX_SECONDS:
        raise argparse.ArgumentTypeError(
            f"expected a duration > 0 within float32, got {text!r}")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(t) for t in text.split(",")]


# a synthetic video is at least one copy long
_duration = _int_at_least(bench.MIN_COPY,
                          f"a whole number of seconds >= {bench.MIN_COPY}")


def _durations(text: str) -> list[int]:
    return [_duration(t) for t in text.split(",")]


def _sample_period(text: str) -> float:
    """--ts: a sampling period of at least one encoder step once rounded."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (np.isfinite(value) and hashing.sample_interval_steps(value) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected a period that rounds to at least one encoder step "
            f"({hashing.encoder_step_time(1) / 2:g} s or more), got {text!r}")
    return value


def _modes(text: str) -> tuple[str, ...]:
    modes = tuple(text.split(","))
    for mode in modes:
        if mode not in hashing.MODES:
            raise argparse.ArgumentTypeError(
                f"unknown hash mode {mode!r} (choose from "
                f"{', '.join(hashing.MODES)})")
    return modes


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="evhash",
        description="event-based video hashing and segment copy retrieval")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn, parser=sp)
        return sp

    sp = add("synth", cmd_synth, "generate a synthetic corpus + copy specs")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--count", type=_positive_int, default=20)
    sp.add_argument("--seed", type=_nonnegative_int, default=0)
    sp.add_argument("--min-duration", type=_duration, default=20)
    sp.add_argument("--max-duration", type=_duration, default=60)
    sp.add_argument("--durations", type=_durations,
                    help="comma-separated seconds, overrides --count/--min/--max")

    sp = add("ingest", cmd_ingest, "FSEQ -> FEAT feature extraction")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--id", help="video id (default: output file stem)")

    sp = add("stats", cmd_stats, "FEAT list -> NRM1 normalization stats")
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("feats", nargs="+")

    sp = add("train", cmd_train, "train the autoencoder on FEAT files")
    sp.add_argument("--stats", required=True)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--loss-log")
    sp.add_argument("--epochs", type=_positive_int, default=100)
    sp.add_argument("--batch-size", type=int, default=32)
    sp.add_argument("--lr", type=_learning_rate, default=1e-3)
    sp.add_argument("--th", type=_positive_int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--L", type=_positive_int, default=64)
    sp.add_argument("--enc-dims", type=_positive_ints, default="256,256,64")
    sp.add_argument("--dtype", choices=sorted(_DTYPES), default="float64")
    sp.add_argument("--ckpt-every", type=_nonnegative_int, default=0,
                    help="epochs between checkpoints (0: none)")
    sp.add_argument("--ckpt-dir")
    sp.add_argument("feats", nargs="+")

    sp = add("hash", cmd_hash, "MCBN + FEAT -> video hash (text form)")
    sp.add_argument("--model", required=True)
    sp.add_argument("--stats", help="NRM1 file (needed for raw FEAT input)")
    sp.add_argument("--feat", required=True)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--mode", choices=hashing.MODES, default="events")
    sp.add_argument("--ts", type=_sample_period, default=4.0)
    sp.add_argument("--th", type=_positive_int, default=16)
    sp.add_argument("--duration", type=_hash_duration,
                    help="true duration in seconds (default: 2*M/25)")

    sp = add("db-build", cmd_db_build, "hash files -> VHDB database")
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--mode", choices=hashing.MODES, default="events")
    sp.add_argument("hashes", nargs="+")

    sp = add("db-add", cmd_db_add, "add one hash to an existing VHDB")
    sp.add_argument("--db", required=True)
    sp.add_argument("--hash", required=True)
    sp.add_argument("--out", help="output path (default: rewrite --db)")

    sp = add("query", cmd_query, "rank database videos for a query hash")
    sp.add_argument("--db", required=True)
    sp.add_argument("--hash", required=True)
    sp.add_argument("--topk", type=_positive_int, default=10)

    sp = add("eval", cmd_eval, "full copy-retrieval evaluation -> CSV reports")
    sp.add_argument("--model", required=True)
    sp.add_argument("--stats", required=True)
    sp.add_argument("--fseq-dir", required=True)
    sp.add_argument("--copies", help="copies.csv (default: enumerate all)")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--ts", type=_sample_period, default=4.0)
    sp.add_argument("--th", type=_positive_int, default=16)
    sp.add_argument("--modes", type=_modes,
                    default="events,sample,sample_and_events")

    sp = add("dseries", cmd_dseries, "adjacent-Hamming profile -> CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--stats", help="NRM1 file (needed for raw FEAT input)")
    sp.add_argument("--feat", required=True)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--th", type=_positive_int, default=16)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train" and args.th > args.L:
            args.parser.error(f"argument --th: must not exceed --L "
                              f"({args.L}), got {args.th}")
        if args.command == "train" and args.ckpt_every and not args.ckpt_dir:
            args.parser.error("argument --ckpt-every: needs --ckpt-dir")
        if args.command == "train" and args.ckpt_dir and not args.ckpt_every:
            args.parser.error("argument --ckpt-dir: needs --ckpt-every "
                              "above 0")
        if (args.command == "synth"
                and args.min_duration > args.max_duration):
            args.parser.error(f"argument --max-duration: must be at least "
                              f"--min-duration ({args.min_duration}), got "
                              f"{args.max_duration}")
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
