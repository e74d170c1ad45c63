"""Bit-exact persistence of CSI samples and the position-label index.

One sample per file. The container is little-endian and self-describing:

    offset  size  field
    0       4     magic "CSI1"
    4       1     version (= 1)
    5       1     pad
    6       2     antenna count M (u16)
    8       2     subcarrier count F (u16)
    10      2     pad
    12      8*M*F body: antenna-major complex entries, float32 I then Q

so a 64x100 sample occupies exactly 12 + 8*64*100 = 51,212 bytes. Writes
are atomic (temp file then rename), so readers never observe a partial
file. I/Q values are stored as float32: a file round-trips through memory
bit-exactly, and an in-memory sample round-trips bit-exactly whenever its
entries are float32-representable (true for anything that has been on disk
once).

The index is a UTF-8 CSV ``sample_id,user_id,x_mm,y_mm,z_mm`` whose leading
``#`` comment lines carry the topology tag and the radio configuration in
``key = value`` form.

Externally published CSI collections ship in their own layouts; importing
one means writing a converter that emits this container and index, which is
the intended extension point.
"""

from __future__ import annotations

import csv
import os
import struct
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .geometry import parse_config_text, radio_config_from_mapping
from .model import CsiSample, Position3, RadioConfig, SAMPLE_ID_PATTERN

MAGIC = b"CSI1"
VERSION = 1
_HEADER = struct.Struct("<4sBBHHH")
HEADER_SIZE = _HEADER.size  # 12


class DatasetIOError(Exception):
    """Base class for container and index format errors."""


class BadMagicError(DatasetIOError):
    pass


class VersionMismatchError(DatasetIOError):
    pass


class TruncatedFileError(DatasetIOError):
    pass


class IndexFormatError(DatasetIOError):
    pass


def sample_file_size(n_antennas: int, n_subcarriers: int) -> int:
    return HEADER_SIZE + 8 * n_antennas * n_subcarriers


def write_sample(path, csi: CsiSample) -> int:
    """Write one sample; returns the byte count. Atomic temp-then-rename."""
    m, f = csi.n_antennas, csi.n_subcarriers
    if m > 0xFFFF or f > 0xFFFF:
        raise ValueError(f"matrix dimensions {m}x{f} exceed the 16-bit header fields")
    header = _HEADER.pack(MAGIC, VERSION, 0, m, f, 0)
    body = np.empty((m, f, 2), dtype="<f4")
    body[:, :, 0] = csi.h.real
    body[:, :, 1] = csi.h.imag
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(body.tobytes())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return sample_file_size(m, f)


def read_sample(path, label: Position3 | None = None, user_id: int = 0) -> CsiSample:
    """Read one sample file, validating magic, version and size.

    The binary container carries only the matrix; label and user_id come
    from the index (or the caller). The sample_id is recovered from the
    filename when it matches the six-character id charset.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise TruncatedFileError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
        magic, version, _, m, f, _ = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise VersionMismatchError(f"{path}: version {version}, expected {VERSION}")
        body_size = 8 * m * f
        body = fh.read(body_size)
        if len(body) < body_size:
            raise TruncatedFileError(
                f"{path}: body has {len(body)} bytes, header declares {body_size}"
            )
        if fh.read(1):
            raise TruncatedFileError(f"{path}: trailing bytes after declared body")
    iq = np.frombuffer(body, dtype="<f4").reshape(m, f, 2)
    h = iq[:, :, 0].astype(np.complex128) + 1j * iq[:, :, 1].astype(np.complex128)
    sample_id = path.stem if SAMPLE_ID_PATTERN.fullmatch(path.stem) else "000000"
    return CsiSample(h, label=label, user_id=user_id, sample_id=sample_id)


@dataclass(frozen=True, slots=True)
class SampleRecord:
    """One index row: where a sample lives and where it was measured."""

    sample_id: str
    path: Path
    label: Position3
    user_id: int = 0

    def __post_init__(self):
        if not SAMPLE_ID_PATTERN.fullmatch(self.sample_id):
            raise ValueError(f"sample_id must be 6 chars of [0-9A-Za-z_-], got {self.sample_id!r}")


@dataclass
class DatasetIndex:
    """Ordered sample records plus the capture configuration snapshot."""

    records: list[SampleRecord] = field(default_factory=list)
    topology: str = ""
    radio: RadioConfig | None = None

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def save_index(path, index: DatasetIndex) -> None:
    """Write the index CSV with config comments, LF line endings."""
    lines = [f"# topology = {index.topology}"]
    if index.radio is not None:
        for f in fields(RadioConfig):
            lines.append(f"# {f.name} = {getattr(index.radio, f.name)!r}")
    lines.append("sample_id,user_id,x_mm,y_mm,z_mm")
    for rec in index.records:
        lines.append(f"{rec.sample_id},{rec.user_id},"
                     f"{rec.label.x!r},{rec.label.y!r},{rec.label.z!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_index(path) -> DatasetIndex:
    """Load an index CSV; sample files are resolved next to the index.

    Fails on duplicate sample ids (naming the id), malformed rows and
    referenced files that do not exist.
    """
    path = Path(path)
    base = path.parent
    comments = []
    records: list[SampleRecord] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("#"):
                comments.append(line.lstrip()[1:])
                continue
            row = next(csv.reader([line]))
            if row[0] == "sample_id":  # column header
                continue
            if len(row) != 5:
                raise IndexFormatError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
            sample_id = row[0]
            if sample_id in seen:
                raise IndexFormatError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
            seen.add(sample_id)
            try:
                user_id = int(row[1])
                label = Position3(float(row[2]), float(row[3]), float(row[4]))
            except ValueError as exc:
                raise IndexFormatError(f"{path}:{lineno}: {exc}") from exc
            sample_path = base / f"{sample_id}.bin"
            if not sample_path.exists():
                raise FileNotFoundError(f"{path}:{lineno}: missing sample file {sample_path}")
            records.append(SampleRecord(sample_id, sample_path, label, user_id))
    config = parse_config_text("\n".join(comments))
    has_radio = any(f.name in config for f in fields(RadioConfig))
    radio = radio_config_from_mapping(config) if has_radio else None
    return DatasetIndex(records=records, topology=config.get("topology", ""), radio=radio)


def iter_samples(index: DatasetIndex):
    """Stream (record, sample) pairs, one sample resident at a time."""
    for rec in index.records:
        yield rec, read_sample(rec.path, label=rec.label, user_id=rec.user_id)
