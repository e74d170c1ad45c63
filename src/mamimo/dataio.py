"""Bit-exact persistence of CSI samples and the position-label index.

One sample per file. The container is little-endian and self-describing:

    offset  size  field
    0       4     magic "CSI1"
    4       1     version (= 1)
    5       1     pad
    6       2     antenna count M (u16)
    8       2     subcarrier count F (u16)
    10      2     pad
    12      8*M*F body: antenna-major little-endian complex64 entries
                  (float32 I then Q per entry)

so a 64x100 sample occupies exactly 12 + 8*64*100 = 51,212 bytes. I/Q
values are stored as float32: a file round-trips through memory bit-exactly,
and an in-memory sample round-trips bit-exactly whenever its entries are
float32-representable (true for anything that has been on disk once).

Every file mamimo writes goes through ``write_atomic`` (temp file, then
rename), so readers see the old file or the new one, never a partial one;
files get mode 0o666 less the umask. ``CSI1`` and ``FPDB`` are read back
through ``read_header`` (magic, version, length) and ``check_size``, which
holds the file to its declared size before any body is allocated.

The index is a UTF-8 CSV ``sample_id,user_id,x_mm,y_mm,z_mm`` whose leading
``#`` comment lines carry the row count, the topology tag and the radio
configuration in ``key = value`` form. ``# rows = N`` comes first; an index
whose rows disagree with it (a copy cut short) is refused, and an index
without it loads as it stands.

Externally published CSI collections ship in their own layouts; importing
one means writing a converter that emits this container and index, which is
the intended extension point.
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .model import MAX_USERS, CsiSample, Position3, RadioConfig, SAMPLE_ID_PATTERN

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


def write_atomic(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` to a new ``<path>.<random>.tmp``, then rename
    it over ``path``. On any failure the temp file is removed and the previous
    file, if any, stays. The file is created with mode 0o666 less the umask."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_header(fh, path, magic: bytes, version: int, header: struct.Struct) -> tuple:
    """Read and unpack a container header that starts with a four-byte ``magic``
    and a version byte. Checks the magic, then the version, then the length, so
    a short file of another format is named by its magic."""
    data = fh.read(header.size)
    if len(data) >= 4 and data[:4] != magic:
        raise BadMagicError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    if len(data) >= 5 and data[4] != version:
        raise VersionMismatchError(f"{path}: version {data[4]}, expected {version}")
    if len(data) < header.size:
        raise TruncatedFileError(f"{path}: file shorter than the {header.size}-byte header")
    return header.unpack(data)


def check_size(fh, path, declared: int) -> None:
    """Fail unless the open file is exactly ``declared`` bytes long. Callers check
    before allocating the body, because a corrupt header may declare GiBs."""
    size = os.fstat(fh.fileno()).st_size
    if size != declared:
        raise TruncatedFileError(f"{path}: {size} bytes, the header declares {declared}")


def write_sample(path, csi: CsiSample) -> int:
    """Write one sample with ``write_atomic``; returns the byte count."""
    m, f = csi.n_antennas, csi.n_subcarriers
    if m > 0xFFFF or f > 0xFFFF:
        raise ValueError(f"matrix dimensions {m}x{f} exceed the 16-bit header fields")
    write_atomic(path, _HEADER.pack(MAGIC, VERSION, 0, m, f, 0), csi.h.astype("<c8"))
    return sample_file_size(m, f)


def read_sample(path, label: Position3 | None = None, user_id: int = 0) -> CsiSample:
    """Read one sample file, validating magic, version and size.

    The binary container carries only the matrix; label and user_id come
    from the index (or the caller). The sample_id is recovered from the
    filename when it matches the six-character id charset.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        _, _, _, m, f, _ = read_header(fh, path, MAGIC, VERSION, _HEADER)
        check_size(fh, path, sample_file_size(m, f))
        h = np.empty((m, f), dtype="<c8")  # read in place; CsiSample widens it
        fh.readinto(h)
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
        if not 0 <= self.user_id < MAX_USERS:
            raise ValueError(f"user_id {self.user_id} not in [0, {MAX_USERS})")


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


def radio_config_from_mapping(values: dict[str, str]) -> RadioConfig:
    """Build a RadioConfig from the keys ``save_index`` writes, using defaults
    for the rest; each value is cast to the type of its field's default."""
    return RadioConfig(**{f.name: type(f.default)(values[f.name])
                          for f in fields(RadioConfig) if f.name in values})


def save_index(path, index: DatasetIndex) -> None:
    """Write the index CSV with the row count and config comments, LF line endings."""
    lines = [f"# rows = {len(index.records)}", f"# topology = {index.topology}"]
    if index.radio is not None:
        for f in fields(RadioConfig):
            lines.append(f"# {f.name} = {getattr(index.radio, f.name)!r}")
    lines.append("sample_id,user_id,x_mm,y_mm,z_mm")
    for rec in index.records:
        lines.append(f"{rec.sample_id},{rec.user_id},"
                     f"{rec.label.x!r},{rec.label.y!r},{rec.label.z!r}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_index(path) -> DatasetIndex:
    """Load an index CSV; sample files are resolved next to the index.

    Fails on duplicate sample ids (naming the id), malformed rows (a bad
    sample id or a user id outside [0, MAX_USERS) among them), a ``#`` line
    that is not ``key = value``, bad radio values, missing sample files and a
    ``# rows`` count that the rows do not match.
    """
    path = Path(path)
    base = path.parent
    config: dict[str, str] = {}
    records: list[SampleRecord] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("#"):
                text = line.lstrip()[1:].split("#", 1)[0]
                key, eq, value = text.partition("=")
                if eq:
                    config[key.strip()] = value.strip()
                elif text.strip():
                    raise IndexFormatError(f"{path}:{lineno}: expected '# key = value', "
                                           f"got {line!r}")
                continue
            row = next(csv.reader([line]))
            if row[0] == "sample_id":  # column header
                continue
            if len(row) != 5:
                raise IndexFormatError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
            sample_id = row[0]
            try:  # validates the ids before the sample file is looked up
                record = SampleRecord(sample_id, base / f"{sample_id}.bin",
                                      Position3(float(row[2]), float(row[3]), float(row[4])),
                                      int(row[1]))
            except ValueError as exc:
                raise IndexFormatError(f"{path}:{lineno}: {exc}") from exc
            if sample_id in seen:
                raise IndexFormatError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
            seen.add(sample_id)
            if not record.path.exists():
                raise FileNotFoundError(f"{path}:{lineno}: missing sample file {record.path}")
            records.append(record)
    declared = config.get("rows", str(len(records)))
    if declared != str(len(records)):
        raise IndexFormatError(f"{path}: the index declares {declared} rows, found {len(records)}")
    has_radio = any(f.name in config for f in fields(RadioConfig))
    try:
        radio = radio_config_from_mapping(config) if has_radio else None
    except ValueError as exc:
        raise IndexFormatError(f"{path}: comment header: {exc}") from exc
    return DatasetIndex(records=records, topology=config.get("topology", ""), radio=radio)


def iter_samples(index: DatasetIndex):
    """Stream (record, sample) pairs, one sample resident at a time."""
    for rec in index.records:
        yield rec, read_sample(rec.path, label=rec.label, user_id=rec.user_id)
