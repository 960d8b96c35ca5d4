import struct
from pathlib import Path

import numpy as np
import pytest

from evhash import ingest
from evhash import model as M
from evhash.cli import main
from evhash.index import db_load


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["query", "--db", "x.vhdb"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_data_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fseq"
        bad.write_bytes(b"XXXX" + bytes(30))
        code = main(["ingest", "--in", str(bad),
                     "--out", str(tmp_path / "o.feat")])
        assert code == 2

    @pytest.mark.parametrize("num, den", [(0, 1), (25, 0)])
    def test_zero_frame_rate_exit_2(self, tmp_path, capsys, num, den):
        bad = tmp_path / "bad.fseq"
        bad.write_bytes(struct.pack("<4sBHHIII", b"FSEQ", 1, 2, 2, num, den,
                                    1) + bytes(4))
        assert main(["ingest", "--in", str(bad),
                     "--out", str(tmp_path / "o.feat")]) == 2

    def test_empty_feat_stats_exit_2(self, tmp_path, capsys):
        feat = tmp_path / "e.feat"
        ingest.write_feat(ingest.FeatureSequence(
            "e", np.zeros((0, ingest.FEATURE_DIM))), feat)
        out = tmp_path / "s.nrm1"
        assert main(["stats", "--out", str(out), str(feat)]) == 2
        assert not out.exists()


class TestQueryMalformedInputs:
    """``evhash query`` ends in exit code 2, not a traceback, on a corrupt
    database or hash file."""

    HASH = "# evhash-vh 1 mode=events L=16 duration=2.0 id=q\n3 0a0b\n"

    @pytest.fixture
    def files(self, tmp_path):
        vh = tmp_path / "q.vh"
        vh.write_text(self.HASH)
        db = tmp_path / "db.vhdb"
        assert main(["db-build", "--out", str(db), "--mode", "events",
                     str(vh)]) == 0
        return db, vh

    def query(self, db, vh, capsys):
        code = main(["query", "--db", str(db), "--hash", str(vh)])
        capsys.readouterr()
        return code

    def test_valid_files(self, files, capsys):
        assert self.query(*files, capsys) == 0

    @pytest.mark.parametrize("case", ["no events", "trailing bytes",
                                      "non-utf8 id"])
    def test_bad_database(self, files, capsys, case):
        db, vh = files
        data = db.read_bytes()
        if case == "no events":  # event count 0, its code bytes dropped
            data = data[:-6] + struct.pack("<I", 0)
        elif case == "trailing bytes":
            data += b"\0\0"
        else:
            data = data.replace(b"q", b"\xff")
        db.write_bytes(data)
        assert self.query(db, vh, capsys) == 2

    @pytest.mark.parametrize("text", [
        "# evhash-vh 1 mode=events\n3 0a0b\n",
        HASH.replace("0a0b", "0a"),
        HASH.replace("0a0b", "0a0b0c"),
        HASH.replace("0a0b", "zz0b"),
        HASH.replace("2.0", "nan"),
        HASH.replace("events", "shots"),
        HASH.split("\n")[0] + "\n",
    ], ids=["short header", "short code", "long code", "bad hex",
            "nan duration", "unknown mode", "no events"])
    def test_bad_hash(self, files, capsys, text):
        db, vh = files
        vh.write_text(text)
        assert self.query(db, vh, capsys) == 2

    def test_binary_hash(self, files, capsys):
        db, vh = files
        vh.write_bytes(bytes(range(128, 256)))
        assert self.query(db, vh, capsys) == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> ingest -> stats -> train -> hash -> db: shared artifacts."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    assert main(["synth", "--out-dir", str(data), "--seed", "5",
                 "--durations", "8,8,12"]) == 0
    feats = []
    for fseq in sorted(data.glob("*.fseq")):
        feat = data / (fseq.stem + ".feat")
        assert main(["ingest", "--in", str(fseq), "--out", str(feat)]) == 0
        feats.append(str(feat))
    stats = data / "stats.nrm1"
    assert main(["stats", "--out", str(stats), *feats]) == 0
    model = root / "model.mcbn"
    log = root / "loss.csv"
    assert main(["train", "--stats", str(stats), "--out", str(model),
                 "--loss-log", str(log), "--epochs", "2", "--lr", "1e-3",
                 "--batch-size", "3", "--L", "8", "--enc-dims", "8,8,6",
                 "--th", "2", "--seed", "1", *feats]) == 0
    hashes = []
    for feat in feats:
        vh = root / (feat.rsplit("/", 1)[-1][:-5] + ".vh")
        assert main(["hash", "--model", str(model), "--stats", str(stats),
                     "--feat", feat, "--out", str(vh), "--mode", "events",
                     "--th", "2"]) == 0
        hashes.append(str(vh))
    db = root / "db.vhdb"
    assert main(["db-build", "--out", str(db), "--mode", "events",
                 *hashes]) == 0
    return root, data, stats, model, db, feats, hashes


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, data, stats, model, db, feats, hashes = pipeline
        assert (data / "copies.csv").exists()
        assert (data / "corpus.seed.txt").read_text().strip() == "5"
        assert (root / "loss.csv").read_text().startswith("epoch,")
        assert len(db_load(db)) == 3

    def test_query_self_retrieval(self, pipeline, capsys):
        root, data, stats, model, db, feats, hashes = pipeline
        code, out = run(["query", "--db", str(db), "--hash", hashes[0],
                         "--topk", "5"], capsys)
        assert code == 0
        first = out.strip().splitlines()[0].split()
        assert first[0] == "vid0000"
        assert first[1] == "0.000"

    def test_db_add_duplicate_is_data_error(self, pipeline, capsys):
        root, data, stats, model, db, feats, hashes = pipeline
        assert main(["db-add", "--db", str(db), "--hash", hashes[0],
                     "--out", str(root / "db2.vhdb")]) == 2

    @pytest.mark.parametrize("case", ["two-layer model", "nan features",
                                      "nan mean", "zero std",
                                      "stats trailing bytes"])
    def test_hash_rejects_bad_inputs(self, pipeline, tmp_path, capsys, case):
        root, data, stats, model, db, feats, hashes = pipeline
        model_in, feat_in, stats_in = model, feats[0], stats
        if case == "two-layer model":
            net = M.load_model(model)
            model_in = tmp_path / "m.mcbn"
            M.save_model(M.Autoencoder(net.D, net.L, net.encoder[:1],
                                       net.decoder[-1:], net.momentum,
                                       net.eps, net.dtype), model_in)
        elif case == "nan features":
            seq = ingest.load_feat(feats[0])
            seq.features[3, 5] = np.nan
            feat_in = tmp_path / "f.feat"
            ingest.write_feat(seq, feat_in)
        elif case == "stats trailing bytes":
            stats_in = tmp_path / "s.nrm1"
            stats_in.write_bytes(stats.read_bytes() + bytes(7))
        else:
            ns = ingest.load_norm_stats(stats)
            if case == "nan mean":
                ns.mean[7] = np.nan
            else:
                ns.std[7] = 0.0
            stats_in = tmp_path / "s.nrm1"
            ingest.write_norm_stats(ns, stats_in)
        code, _ = run(["hash", "--model", str(model_in), "--stats",
                       str(stats_in), "--feat", str(feat_in), "--out",
                       str(tmp_path / "q.vh"), "--th", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["ingest", "stats"])
    def test_trailing_bytes_exit_2(self, pipeline, tmp_path, capsys, command):
        root, data, stats, model, db, feats, hashes = pipeline
        src = data / "vid0000.fseq" if command == "ingest" else Path(feats[0])
        bad = tmp_path / src.name
        bad.write_bytes(src.read_bytes() + bytes(7))
        out = str(tmp_path / "out")
        argv = (["ingest", "--in", str(bad), "--out", out]
                if command == "ingest" else ["stats", "--out", out, str(bad)])
        assert run(argv, capsys)[0] == 2

    def test_dseries(self, pipeline, capsys):
        root, data, stats, model, db, feats, hashes = pipeline
        out_csv = root / "d.csv"
        code, _ = run(["dseries", "--model", str(model), "--stats",
                       str(stats), "--feat", feats[0], "--out", str(out_csv),
                       "--th", "2"], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "step,d_t,is_event_end"
        assert len(lines) == 25  # M=100 -> M_e=25 -> 24 transitions

    def test_eval_reports(self, pipeline, capsys):
        root, data, stats, model, db, feats, hashes = pipeline
        out_dir = root / "report"
        # restrict to the generated copies for a quick run
        code, out = run(["eval", "--model", str(model), "--stats", str(stats),
                         "--fseq-dir", str(data), "--copies",
                         str(data / "copies.csv"), "--out-dir", str(out_dir),
                         "--th", "2"], capsys)
        assert code == 0
        for name in ("report.csv", "report_slide2mod4.csv", "buckets.csv",
                     "buckets_slide2mod4.csv"):
            assert (out_dir / name).exists()

    @pytest.mark.parametrize("text", [
        "source_id,T_fv,slide,start\nvid0000,8,0,0\n",
        "source_id,T_fv,slide,start,T_c\nvid0000,8,0,0,four\n",
        "source_id,T_fv,slide,start,T_c\nvid0000,8,0\n",
        "source_id,T_fv,slide,start,T_c\nnosuch,8,0,0,4\n",
    ], ids=["missing column", "non-integer field", "short row",
            "unknown source"])
    def test_eval_rejects_bad_copies(self, pipeline, tmp_path, capsys, text):
        root, data, stats, model, db, feats, hashes = pipeline
        copies = tmp_path / "copies.csv"
        copies.write_text(text)
        out_dir = tmp_path / "report"
        code, _ = run(["eval", "--model", str(model), "--stats", str(stats),
                       "--fseq-dir", str(data), "--copies", str(copies),
                       "--out-dir", str(out_dir), "--th", "2"], capsys)
        assert code == 2
        assert not out_dir.exists()

    def test_idempotent_rerun(self, pipeline):
        root, data, stats, model, db, feats, hashes = pipeline
        model2 = root / "model2.mcbn"
        assert main(["train", "--stats", str(stats), "--out", str(model2),
                     "--epochs", "2", "--lr", "1e-3", "--batch-size", "3",
                     "--L", "8", "--enc-dims", "8,8,6", "--th", "2",
                     "--seed", "1", *feats]) == 0
        assert model.read_bytes() == model2.read_bytes()
