import builtins
import errno
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo import dataio
from mamimo.dataio import (
    BadMagicError,
    DatasetIndex,
    IndexFormatError,
    SampleRecord,
    TruncatedFileError,
    VersionMismatchError,
    iter_samples,
    load_index,
    radio_config_from_mapping,
    read_sample,
    sample_file_size,
    save_index,
    write_sample,
)
from mamimo.localization import build_fingerprints, save_fingerprints
from mamimo.model import CsiSample, Position3, RadioConfig

from conftest import random_csi_matrix


class TestSampleFiles:
    def test_full_size_sample_is_51212_bytes(self, tmp_path, rng):
        sample = CsiSample(random_csi_matrix(rng, 64, 100))
        path = tmp_path / "000000.bin"
        assert write_sample(path, sample) == 12 + 8 * 64 * 100 == 51212
        assert path.stat().st_size == 51212

    def test_minimal_sample_is_20_bytes(self, tmp_path):
        path = tmp_path / "000000.bin"
        assert write_sample(path, CsiSample(np.ones((1, 1)))) == 20
        assert path.stat().st_size == 20

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        sample = CsiSample(random_csi_matrix(rng, 64, 100))
        path = tmp_path / "00a_Z-.bin"
        write_sample(path, sample)
        loaded = read_sample(path)
        assert np.array_equal(loaded.h, sample.h)
        assert loaded.sample_id == "00a_Z-"

    def test_file_roundtrip_bit_exact(self, tmp_path, rng):
        # file -> memory -> file is always an identity
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_sample(first, CsiSample(rng.standard_normal((3, 5)) * (1 + 1j)))
        write_sample(second, read_sample(first))
        assert first.read_bytes() == second.read_bytes()

    def test_layout_pinned_by_hand_built_file(self, tmp_path):
        # header, then per antenna and subcarrier a float32 I followed by a float32 Q
        h = np.array([[0.5 - 1.25j, -3.0 + 0.0j, 1e-3 + 7.0j],
                      [2.0 + 0.25j, -0.0 - 6.5j, 1e6 - 1e-6j]]).astype(np.complex64)
        body = b"".join(struct.pack("<ff", v.real, v.imag) for v in h.ravel())
        raw = struct.pack("<4sBBHHH", b"CSI1", 1, 0, 2, 3, 0) + body
        hand = tmp_path / "hand01.bin"
        hand.write_bytes(raw)
        loaded = read_sample(hand)
        assert loaded.h.dtype == np.complex128
        assert np.array_equal(loaded.h, h.astype(np.complex128))
        written = tmp_path / "ours01.bin"
        write_sample(written, CsiSample(h.astype(np.complex128)))
        assert written.read_bytes() == raw

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        write_sample(path, CsiSample(np.ones((1, 1))))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(data)
        with pytest.raises(BadMagicError):
            read_sample(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "x.bin"
        write_sample(path, CsiSample(np.ones((2, 3))))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            read_sample(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"CSI1\x01")
        with pytest.raises(TruncatedFileError):
            read_sample(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "x.bin"
        write_sample(path, CsiSample(np.ones((1, 1))))
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(TruncatedFileError):
            read_sample(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.bin"
        write_sample(path, CsiSample(np.ones((1, 1))))
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(data)
        with pytest.raises(VersionMismatchError):
            read_sample(path)

    def test_dimension_overflow(self, tmp_path):
        sample = CsiSample(np.ones((70000, 1)))
        with pytest.raises(ValueError):
            write_sample(tmp_path / "x.bin", sample)

    def test_no_temp_files_left(self, tmp_path, rng):
        write_sample(tmp_path / "x.bin", CsiSample(random_csi_matrix(rng, 4, 4)))
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    @given(m=st.integers(1, 8), f=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, m, f, seed):
        rng = np.random.default_rng(seed)
        sample = CsiSample(random_csi_matrix(rng, m, f))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.bin"
            size = write_sample(path, sample)
            assert size == sample_file_size(m, f)
            assert np.array_equal(read_sample(path).h, sample.h)


def make_dataset(tmp_path, rng, n=5):
    records = []
    for i in range(n):
        sid = f"{i:06d}"
        path = tmp_path / f"{sid}.bin"
        write_sample(path, CsiSample(random_csi_matrix(rng, 2, 3), sample_id=sid))
        records.append(SampleRecord(sid, path, Position3(float(i), 2.5 * i, 1000.0), i % 4))
    return DatasetIndex(records=records, topology="ura", radio=RadioConfig())


class TestIndex:
    def test_save_load_roundtrip(self, tmp_path, rng):
        index = make_dataset(tmp_path, rng)
        save_index(tmp_path / "index.csv", index)
        loaded = load_index(tmp_path / "index.csv")
        assert len(loaded) == 5
        assert loaded.topology == "ura"
        assert loaded.radio == RadioConfig()
        assert [r.sample_id for r in loaded] == [r.sample_id for r in index]
        assert [r.label for r in loaded] == [r.label for r in index]
        assert [r.user_id for r in loaded] == [r.user_id for r in index]

    def test_no_radio_with_other_comments(self, tmp_path, rng):
        index = make_dataset(tmp_path, rng, n=2)
        index.radio = None
        path = tmp_path / "index.csv"
        save_index(path, index)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + ["# snr_db = 20.0"] + lines[1:]) + "\n")
        loaded = load_index(path)
        assert loaded.radio is None
        assert loaded.topology == "ura" and len(loaded) == 2

    def test_index_cut_at_a_line_boundary_rejected(self, tmp_path, rng):
        save_index(tmp_path / "index.csv", make_dataset(tmp_path, rng))
        path = tmp_path / "index.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0] == "# rows = 5\n"
        path.write_text("".join(lines[:-2]))
        with pytest.raises(IndexFormatError, match=r"index\.csv: .* declares 5 rows, found 3"):
            load_index(path)
        path.write_text("".join(lines[1:-2]))  # no count: loads as it stands
        assert len(load_index(path)) == 3

    def test_empty_index(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("sample_id,user_id,x_mm,y_mm,z_mm\n")
        assert len(load_index(path)) == 0
        path.write_text("")
        assert len(load_index(path)) == 0

    def test_duplicate_id_names_the_id(self, tmp_path, rng):
        index = make_dataset(tmp_path, rng, n=2)
        rows = ("sample_id,user_id,x_mm,y_mm,z_mm\n"
                "000001,0,1.0,2.0,3.0\n"
                "000001,0,4.0,5.0,6.0\n")
        (tmp_path / "index.csv").write_text(rows)
        with pytest.raises(IndexFormatError, match="000001"):
            load_index(tmp_path / "index.csv")

    def test_malformed_row(self, tmp_path):
        (tmp_path / "index.csv").write_text("000001,0,1.0\n")
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "index.csv")

    def test_missing_file(self, tmp_path):
        (tmp_path / "index.csv").write_text("ghost1,0,1.0,2.0,3.0\n")
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "index.csv")

    @pytest.mark.parametrize("sample_id", ["abc", "ab.def", "../abc"])
    def test_bad_sample_id_names_the_line_before_any_file_lookup(self, tmp_path, sample_id):
        (tmp_path / "index.csv").write_text("sample_id,user_id,x_mm,y_mm,z_mm\n"
                                            f"{sample_id},0,1.0,2.0,3.0\n")
        with pytest.raises(IndexFormatError, match="index.csv:2: sample_id must be"):
            load_index(tmp_path / "index.csv")

    @pytest.mark.parametrize("user_id", [-1, 12, 99])
    def test_user_id_outside_the_pilots_names_the_line(self, tmp_path, rng, user_id):
        write_sample(tmp_path / "000000.bin", CsiSample(random_csi_matrix(rng, 2, 3)))
        with pytest.raises(ValueError):  # nor can save_index write such a row
            SampleRecord("000000", tmp_path / "000000.bin", Position3(0.0, 0.0, 0.0), user_id)
        (tmp_path / "index.csv").write_text("sample_id,user_id,x_mm,y_mm,z_mm\n"
                                            f"000000,{user_id},1.0,2.0,3.0\n")
        with pytest.raises(IndexFormatError, match=f"index.csv:2: user_id {user_id} "):
            load_index(tmp_path / "index.csv")

    def test_labels_roundtrip_exact(self, tmp_path, rng):
        # float labels survive the CSV exactly via repr
        path = tmp_path / "000000.bin"
        write_sample(path, CsiSample(random_csi_matrix(rng, 1, 1)))
        label = Position3(-1252.5, 1000.0000000001, 0.1 + 0.2)
        index = DatasetIndex([SampleRecord("000000", path, label)])
        save_index(tmp_path / "index.csv", index)
        assert load_index(tmp_path / "index.csv").records[0].label == label

    def test_id_with_trailing_newline_rejected(self, tmp_path, rng):
        # such an id would split its index row over two lines
        with pytest.raises(ValueError):
            SampleRecord("abcdef\n", tmp_path / "000000.bin", Position3(0.0, 0.0, 0.0))
        path = tmp_path / "abcdef\n.bin"
        write_sample(path, CsiSample(random_csi_matrix(rng, 1, 1)))
        assert read_sample(path).sample_id == "000000"


class TestConfigText:
    def test_parse_key_value(self, tmp_path):
        # text after a second '#', empty comments and blank lines are ignored
        path = tmp_path / "index.csv"
        path.write_text("#\n# # a note = ignored\n\n# carrier_hz = 3.5e9\n\n"
                        "  # topology = ula # inline\nsample_id,user_id,x_mm,y_mm,z_mm\n")
        loaded = load_index(path)
        assert loaded.radio == RadioConfig(carrier_hz=3.5e9)
        assert loaded.topology == "ula"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("# topology = ura\n\n# free text here\nsample_id,user_id,x_mm,y_mm,z_mm\n")
        with pytest.raises(IndexFormatError, match=r"index\.csv:3: expected '# key = value'"):
            load_index(path)

    def test_radio_from_mapping(self):
        # an old index.csv still carries the deleted link-budget fields; they are skipped
        r = radio_config_from_mapping({"carrier_hz": "3.5e9", "tx_power_dbm": "20",
                                       "rx_gain_db": "15.0", "symbol_duration_s": "7.1e-06"})
        assert r == RadioConfig(carrier_hz=3.5e9)

    @pytest.mark.parametrize("comment", ["# carrier_hz = abc", "# pilot_count = 1.5",
                                         "# pilot_count = 99", "# no key here"])
    def test_malformed_radio_comment_names_the_index(self, tmp_path, comment):
        path = tmp_path / "index.csv"
        path.write_text(f"# topology = ura\n{comment}\nsample_id,user_id,x_mm,y_mm,z_mm\n")
        with pytest.raises(IndexFormatError, match="index.csv"):
            load_index(path)


class TestStreaming:
    def test_yields_records_with_samples(self, tmp_path, rng):
        index = make_dataset(tmp_path, rng)
        out = list(iter_samples(index))
        assert len(out) == 5
        for rec, sample in out:
            assert sample.label == rec.label
            assert sample.user_id == rec.user_id
            assert sample.sample_id == rec.sample_id

    def test_reads_lazily(self, tmp_path, rng):
        index = make_dataset(tmp_path, rng)
        it = iter_samples(index)
        next(it)
        # corrupting a later file only matters when the stream reaches it
        index.records[3].path.write_bytes(b"JUNKJUNKJUNK")
        next(it)  # record 1 still fine
        next(it)
        with pytest.raises(BadMagicError):
            next(it)


class _FullDisk:
    """A file that keeps its first ``budget`` bytes, then fails as a full disk does."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        data = bytes(chunk)
        self.fh.write(data[:self.budget])
        if len(data) > self.budget:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)


class TestAtomicWrites:
    @pytest.mark.parametrize("name", ["000000.bin", "index.csv", "db.fpdb"])
    def test_write_failing_mid_body_keeps_the_old_file(self, tmp_path, rng, monkeypatch, name):
        index = make_dataset(tmp_path, rng)
        samples = [read_sample(r.path, label=r.label) for r in index]
        path = tmp_path / name
        smaller = DatasetIndex(records=index.records[:2], topology="ura", radio=RadioConfig())
        write = {"000000.bin": lambda: write_sample(path, CsiSample(random_csi_matrix(rng, 2, 3))),
                 "index.csv": lambda: save_index(path, smaller),
                 "db.fpdb": lambda: save_fingerprints(build_fingerprints(samples[:2]), path)}[name]
        save_index(tmp_path / "index.csv", index)
        save_fingerprints(build_fingerprints(samples), tmp_path / "db.fpdb")
        old = path.read_bytes()
        listing = sorted(tmp_path.iterdir())
        # 24 bytes: past the CSI1 header and into the body, past the FPDB header and tag
        monkeypatch.setattr(dataio, "open", lambda file, mode="r", **kw:
                            _FullDisk(builtins.open(file, mode, **kw), 24), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write()
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == listing
