"""CSI fingerprint localization with a k-nearest-neighbour matcher.

A fingerprint database maps deterministic CSI feature vectors to the
positions they were recorded at; a query CSI is located by averaging the
labels of its nearest fingerprints, which one blocked kernel finds for a
single query, a batch or a leave-one-out pass alike. The interface is
minimal (CSI in, position out) so a learned model can replace the matcher.
"""

from __future__ import annotations

import csv
import enum
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import BadMagicError, TruncatedFileError, VersionMismatchError
from .model import CsiSample, Position3


class FeatureMode(enum.Enum):
    RAW_UNIT_NORM = "raw_unit_norm"
    MAGNITUDE_ONLY = "magnitude_only"
    PHASE_RELATIVE = "phase_relative_to_first_antenna"


class Weighting(enum.Enum):
    UNIFORM = "uniform"
    INVERSE_DISTANCE = "inverse_distance"


@dataclass(frozen=True, slots=True)
class FeatureConfig:
    mode: FeatureMode = FeatureMode.RAW_UNIT_NORM


def extract_features(csi: CsiSample, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Turn a CSI matrix into a real feature vector.

    raw_unit_norm: real and imaginary parts of all entries stacked and
    divided by the Frobenius norm (length 2*M*F, unit norm, invariant to
    positive scaling). magnitude_only: entry magnitudes, unit-normalized.
    phase_relative_to_first_antenna: per subcarrier, entry phases minus the
    antenna-0 phase, wrapped to (-pi, pi]; invariant to a global phase
    rotation.
    """
    h = csi.h
    if cfg.mode is FeatureMode.PHASE_RELATIVE:
        if np.any(np.abs(h) == 0.0):
            raise ValueError("phase features need nonzero entries")
        return np.angle(h * np.conj(h[0:1, :])).ravel()
    if cfg.mode is FeatureMode.RAW_UNIT_NORM:
        vec, norm = np.concatenate([h.real.ravel(), h.imag.ravel()]), np.linalg.norm(h)
    elif cfg.mode is FeatureMode.MAGNITUDE_ONLY:
        vec = np.abs(h).ravel()
        norm = np.linalg.norm(vec)
    else:
        raise ValueError(f"unknown feature mode {cfg.mode!r}")
    if norm == 0.0:
        raise ValueError("cannot extract features from an all-zero CSI matrix")
    return vec / norm


class FingerprintDb:
    """Feature vectors with their recording positions, in insertion order."""

    def __init__(self, features, labels_mm, config: FeatureConfig, topology: str = ""):
        features = np.array(features, dtype=np.float64, order="C")
        labels_mm = np.array(labels_mm, dtype=np.float64, order="C")
        if features.ndim != 2 or labels_mm.ndim != 2 or labels_mm.shape[1] != 3:
            raise ValueError("features must be (N, D) and labels (N, 3)")
        if features.shape[0] != labels_mm.shape[0]:
            raise ValueError("features and labels must have equal length")
        if not (np.isfinite(features).all() and np.isfinite(labels_mm).all()):
            raise ValueError("features and labels must be finite")
        features.flags.writeable = labels_mm.flags.writeable = False
        self.features = features
        self.labels_mm = labels_mm
        self.config = config
        self.topology = topology

    def __len__(self):
        return self.features.shape[0]


def build_fingerprints(samples, cfg: FeatureConfig = FeatureConfig(),
                       topology: str = "") -> FingerprintDb:
    """Build a database from labelled samples, streaming one at a time."""
    rows, labels = [], []
    for sample in samples:
        if sample.label is None:
            raise ValueError(f"sample {sample.sample_id!r} has no position label")
        rows.append(extract_features(sample, cfg))
        labels.append(sample.label.as_array())
    dim = rows[0].shape[0] if rows else 0
    features = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    labels_mm = np.array(labels, dtype=np.float64).reshape(len(rows), 3)
    return FingerprintDb(features, labels_mm, cfg, topology)


# Distances per query block (64 MiB; a 2,601-node leave-one-out is one block, which
# numpy multiplies by its own transpose) and features per cache-sized re-rank gather.
_BLOCK_ELEMENTS, _GATHER_ELEMENTS = 1 << 23, 1 << 16


def _nearest(db: FingerprintDb, q: np.ndarray, k: int, exclude_self: bool = False):
    """(B, k) indices and distances of the k nearest fingerprints to each (B, D)
    query row; ``exclude_self`` keeps database row i off query row i. Candidates
    lie within four rounding bounds gamma_{D+2} (max|x| + |q|)^2 of the k-th
    smallest expanded |x|^2 - 2 q.x + |q|^2, which no true or direct-form
    neighbour exceeds (gamma_n = n eps / (1 - n eps)). The direct
    ``norm(x - q)`` re-ranks them stably: ties go to the lower database index.
    """
    x = db.features
    n, dim = x.shape
    if not 1 <= k <= n - exclude_self or q.shape[1] != dim:
        raise ValueError(f"need k in [1, {n - exclude_self}] and {dim} query features, "
                         f"got k={k} and {q.shape[1]}")
    sqx, sqq = np.einsum("nd,nd->n", x, x), np.einsum("bd,bd->b", q, q)
    u = (dim + 2) * np.finfo(np.float64).eps
    margin = 4.0 * u / (1.0 - u) * (np.sqrt(sqx.max()) + np.sqrt(sqq)) ** 2
    rows, pairs = max(1, _BLOCK_ELEMENTS // n), max(1, _GATHER_ELEMENTS // dim)
    idx, dist = np.empty((len(q), k), dtype=np.intp), np.empty((len(q), k))
    for s in range(0, len(q), rows):
        qb = q[s:s + rows]
        d2 = -2.0 * (qb @ x.T) + sqx + sqq[s:s + rows, None]
        if exclude_self:
            d2[np.arange(len(qb)), np.arange(s, s + len(qb))] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        r, c = np.nonzero(d2 <= (kth + margin[s:s + rows])[:, None])  # row-major: c ascends
        exact = np.concatenate([np.linalg.norm(x[c[p:p + pairs]] - qb[r[p:p + pairs]], axis=1)
                                for p in range(0, len(c), pairs)])
        first = np.searchsorted(r, np.arange(len(qb)))
        take = np.lexsort((exact, r))[first[:, None] + np.arange(k)]
        idx[s:s + rows], dist[s:s + rows] = c[take], exact[take]
    return idx, dist


def _weighted_label_mean(db: FingerprintDb, idx, dists, weighting: Weighting) -> np.ndarray:
    labels = db.labels_mm[idx]  # (B, k, 3), one row of estimates per query
    if weighting is Weighting.UNIFORM:
        return labels.mean(axis=1)
    weights = 1.0 / (dists + 1e-12)
    return (labels * weights[..., None]).sum(axis=1) / weights.sum(axis=1)[:, None]


def knn_locate(db: FingerprintDb, query: CsiSample, k: int = 5,
               weighting: Weighting = Weighting.INVERSE_DISTANCE) -> Position3:
    """Estimate the query position as the (inverse-distance) weighted mean of the
    positions of its k nearest fingerprints in feature space (ties by database order)."""
    q = extract_features(query, db.config)[None, :]
    return Position3(*map(float, _weighted_label_mean(db, *_nearest(db, q, k), weighting)[0]))


@dataclass(frozen=True)
class LocalizationReport:
    errors_mm: np.ndarray
    sample_ids: tuple[str, ...]
    mean_mm: float
    median_mm: float
    p95_mm: float

    @classmethod
    def from_errors(cls, errors_mm, sample_ids=None) -> "LocalizationReport":
        errors_mm = np.asarray(errors_mm, dtype=np.float64)
        if errors_mm.size == 0:
            raise ValueError("no errors to report")
        if np.any(errors_mm < 0):
            raise ValueError("errors must be nonnegative")
        if sample_ids is None:
            sample_ids = tuple(f"{i:06d}" for i in range(errors_mm.size))
        return cls(errors_mm=errors_mm, sample_ids=tuple(sample_ids),
                   mean_mm=float(np.mean(errors_mm)),
                   median_mm=float(np.median(errors_mm)),
                   p95_mm=float(np.percentile(errors_mm, 95)))


def evaluate_localizer(db: FingerprintDb, test_samples, k: int = 5,
                       weighting: Weighting = Weighting.INVERSE_DISTANCE) -> LocalizationReport:
    """Locate every labelled test sample, as one batch, and aggregate the errors."""
    samples = list(test_samples)
    test = build_fingerprints(samples, db.config)
    if len(test) == 0:
        raise ValueError("test set is empty")
    d = _weighted_label_mean(db, *_nearest(db, test.features, k), weighting) - test.labels_mm
    errors = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)  # as Position3.distance_mm
    return LocalizationReport.from_errors(errors, [s.sample_id for s in samples])


def leave_one_out_report(db: FingerprintDb, k: int = 4,
                         weighting: Weighting = Weighting.INVERSE_DISTANCE) -> LocalizationReport:
    """Locate every fingerprint as a query that may not match itself, which equals
    querying a database with that row removed; ties still go by database order."""
    est = _weighted_label_mean(db, *_nearest(db, db.features, k, exclude_self=True), weighting)
    return LocalizationReport.from_errors(np.linalg.norm(est - db.labels_mm, axis=1))


def report_to_csv(report: LocalizationReport, path) -> None:
    """Export ``sample_id,err_mm`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "err_mm"])
        for sid, err in zip(report.sample_ids, report.errors_mm):
            writer.writerow([sid, repr(float(err))])


# ---------------------------------------------------------------------------
# persistence: same container discipline as the sample files, FPDB magic
# ---------------------------------------------------------------------------

FPDB_MAGIC = b"FPDB"
FPDB_VERSION = 1
_FPDB_HEADER = struct.Struct("<4sBBHII")  # magic, version, mode, tag length, N, D


def save_fingerprints(db: FingerprintDb, path) -> None:
    tag = db.topology.encode("utf-8")
    if len(tag) > 0xFFFF:
        raise ValueError("topology tag too long")
    mode_index = list(FeatureMode).index(db.config.mode)
    header = _FPDB_HEADER.pack(FPDB_MAGIC, FPDB_VERSION, mode_index, len(tag),
                               len(db), db.features.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(tag)
        fh.write(db.features.astype("<f8").tobytes())
        fh.write(db.labels_mm.astype("<f8").tobytes())


def load_fingerprints(path) -> FingerprintDb:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_FPDB_HEADER.size)
        if len(header) < _FPDB_HEADER.size:
            raise TruncatedFileError(f"{path}: file shorter than the header")
        magic, version, mode_index, tag_len, n, d = _FPDB_HEADER.unpack(header)
        if magic != FPDB_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {FPDB_MAGIC!r}")
        if version != FPDB_VERSION:
            raise VersionMismatchError(f"{path}: version {version}, expected {FPDB_VERSION}")
        tag = fh.read(tag_len)
        body = fh.read(8 * n * d + 8 * n * 3)
        if len(tag) < tag_len or len(body) < 8 * n * d + 8 * n * 3:
            raise TruncatedFileError(f"{path}: body shorter than the header declares")
        if fh.read(1):
            raise TruncatedFileError(f"{path}: trailing bytes after declared body")
    features = np.frombuffer(body[: 8 * n * d], dtype="<f8").reshape(n, d)
    labels = np.frombuffer(body[8 * n * d:], dtype="<f8").reshape(n, 3)
    mode = list(FeatureMode)[mode_index]
    return FingerprintDb(features, labels, FeatureConfig(mode), tag.decode("utf-8"))
