"""The five binary loaders share one reader, ``evhash.binfile.Reader``:
each rejects a bad magic, an unknown version and a short header the same
way, and no mutation of a valid file ends in anything but a load or a
DataError."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evhash import ingest
from evhash import model as M
from evhash.errors import BadMagic, DataError, TruncatedFile, UnsupportedVersion
from evhash.hashing import VideoHash
from evhash.index import HashDatabase, db_add, db_load, db_save


def write_fseq(path):
    frames = np.arange(2 * 4 * 3, dtype=np.uint8).reshape(2, 4, 3)
    ingest.write_fseq(ingest.FrameSequence(3, 4, Fraction(25), frames), path)


def write_feat(path):
    seq = ingest.FeatureSequence("f", np.arange(12.0).reshape(3, 4))
    ingest.write_feat(seq, path)


def write_nrm1(path):
    stats = ingest.NormStats(mean=np.arange(3.0), std=np.ones(3))
    ingest.write_norm_stats(stats, path)


def write_mcbn(path):
    model = M.build_model(D=3, L=2, encoder_dims=(2, 2, 2), seed=1)
    rng = np.random.default_rng(2)
    # running statistics, so the statistic sites hold timesteps
    M.forward_batch_train([ingest.FeatureSequence("a", rng.normal(
        size=(5, 3)))], model)
    M.save_model(model, path)


def write_vhdb(path):
    db = HashDatabase(12, "events")
    for vid, n in (("a", 1), ("bé", 2)):
        bits = (np.arange(n * 12).reshape(n, 12) % 3 == 0).astype(np.uint8)
        db_add(db, VideoHash(vid, 12, bits, np.arange(1, n + 1), "events",
                             float(n)))
    db_save(db, path)


FORMATS = {
    "FSEQ": (write_fseq, ingest.load_fseq),
    "FEAT": (write_feat, ingest.load_feat),
    "NRM1": (write_nrm1, ingest.load_norm_stats),
    "MCBN": (write_mcbn, M.load_model),
    "VHDB": (write_vhdb, db_load),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of a small valid file of each format, by magic."""
    path = tmp_path_factory.mktemp("binfile") / "valid"
    files = {}
    for magic, (write, load) in FORMATS.items():
        write(path)
        load(path)
        files[magic] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("binfile") / "mutated"


@pytest.mark.parametrize("magic", FORMATS)
def test_bad_magic_and_version(valid, magic, tmp_path):
    good, path, load = valid[magic], tmp_path / "x", FORMATS[magic][1]
    path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(BadMagic):
        load(path)
    path.write_bytes(good[:4] + b"\x02" + good[5:])
    with pytest.raises(UnsupportedVersion):
        load(path)


@pytest.mark.parametrize("magic", FORMATS)
def test_short_header_is_truncated(valid, magic, tmp_path):
    path = tmp_path / "x"
    path.write_bytes(valid[magic][:5])
    with pytest.raises(TruncatedFile):
        FORMATS[magic][1](path)


@pytest.mark.parametrize("magic", FORMATS)
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_mutated_file_loads_or_raises_data_error(valid, scratch, magic, data):
    """One byte overwritten anywhere (header included), a truncation to
    any length, or 1-8 appended bytes: the loader returns or raises a
    DataError, never any other exception."""
    good = valid[magic]
    bad = bytearray(good)
    kind = data.draw(st.sampled_from(["overwrite", "truncate", "append"]))
    if kind == "overwrite":
        at = data.draw(st.integers(0, len(good) - 1), label="offset")
        # 0 and 255 often: they zero or max out a size or rate field
        bad[at] = data.draw(st.sampled_from([0, 255]) | st.integers(0, 255),
                            label="byte")
    elif kind == "truncate":
        del bad[data.draw(st.integers(0, len(good) - 1)):]
    else:
        bad += data.draw(st.binary(min_size=1, max_size=8))
    scratch.write_bytes(bytes(bad))
    try:
        FORMATS[magic][1](scratch)
    except DataError:
        pass
