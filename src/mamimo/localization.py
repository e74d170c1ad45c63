"""CSI fingerprint localization with a k-nearest-neighbour matcher.

A fingerprint database maps deterministic CSI feature vectors to the
positions they were recorded at; a query CSI is located by averaging the
labels of its nearest fingerprints, which one blocked kernel finds for a
single query, a batch or a leave-one-out pass alike (which screens in float32
and re-ranks in float64). The interface is minimal (CSI in, position out) so a
learned model can replace the matcher.
"""

from __future__ import annotations

import csv
import enum
import itertools
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import BadMagicError, DatasetIOError, TruncatedFileError, VersionMismatchError
from .model import CsiSample, Position3


class FeatureMode(enum.Enum):
    """The feature map; its index in this enum is the FPDB header's mode byte."""

    RAW_UNIT_NORM = "raw_unit_norm"


@dataclass(frozen=True, slots=True)
class FeatureConfig:
    mode: FeatureMode = FeatureMode.RAW_UNIT_NORM


def extract_features(csi: CsiSample) -> np.ndarray:
    """Turn a CSI matrix into a real feature vector: the real and imaginary
    parts of all entries stacked and divided by the Frobenius norm (length
    2*M*F, unit norm, invariant to positive scaling)."""
    h = csi.h
    vec, norm = np.concatenate([h.real.ravel(), h.imag.ravel()]), np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot extract features from an all-zero CSI matrix")
    return vec / norm


class FingerprintDb:
    """Feature vectors with their recording positions, in insertion order.

    The database takes ownership of its arrays: C-contiguous float64 input
    is kept as it is, not copied, and locked read-only; ``sqnorms`` holds
    the rows' squared norms that every query reads.
    """

    def __init__(self, features, labels_mm, config: FeatureConfig, topology: str = ""):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels_mm = np.ascontiguousarray(labels_mm, dtype=np.float64)
        if features.ndim != 2 or labels_mm.ndim != 2 or labels_mm.shape[1] != 3:
            raise ValueError("features must be (N, D) and labels (N, 3)")
        if features.shape[0] != labels_mm.shape[0]:
            raise ValueError("features and labels must have equal length")
        if not (np.isfinite(features).all() and np.isfinite(labels_mm).all()):
            raise ValueError("features and labels must be finite")
        sqnorms = np.einsum("nd,nd->n", features, features)
        _check_sqnorms(sqnorms, "features")
        features.flags.writeable = labels_mm.flags.writeable = sqnorms.flags.writeable = False
        self.features, self.sqnorms = features, sqnorms
        self.labels_mm = labels_mm
        self.config = config
        self.topology = topology

    def __len__(self):
        return self.features.shape[0]


def build_fingerprints(samples, cfg: FeatureConfig = FeatureConfig(),
                       topology: str = "") -> FingerprintDb:
    """Build a database from labelled samples, streaming each row into one matrix."""
    labels = []

    def rows():
        for sample in samples:
            if sample.label is None:
                raise ValueError(f"sample {sample.sample_id!r} has no position label")
            labels.append(sample.label.as_array())
            yield extract_features(sample)

    it = rows()
    first = next(it, None)
    if first is None:
        features = np.empty((0, 0))
    else:
        features = np.fromiter(itertools.chain([first], it), dtype=(np.float64, first.size))
    labels_mm = np.array(labels, dtype=np.float64).reshape(len(labels), 3)
    return FingerprintDb(features, labels_mm, cfg, topology)


# Distances per query block (64 MiB; a 2,601-node leave-one-out is one block),
# features per 2 MiB re-rank gather, and features per float32 screening chunk.
_BLOCK_ELEMENTS, _GATHER_ELEMENTS, _SCREEN_FEATURES = 1 << 23, 1 << 18, 2048
_U32, _TINY32 = 2.0 ** -24, float(np.finfo(np.float32).tiny)


def _check_sqnorms(sqnorms: np.ndarray, what: str) -> None:
    if not np.isfinite(4.0 * sqnorms.max(initial=0.0)):
        raise ValueError(f"{what} too large: 4 |x|^2 must be finite")


def _nearest(db: FingerprintDb, q: np.ndarray | None, k: int):
    """(B, k) indices and distances of the k nearest fingerprints to each (B, D)
    query row; ``q=None`` is leave-one-out, each row never matching itself.
    Candidates lie within four rounding bounds gamma_{D+2} (max|x| + |q|)^2 of
    the k-th smallest expanded |x|^2 - 2 q.x + |q|^2, which no true or
    direct-form neighbour exceeds (gamma_n = n eps / (1 - n eps)). Leave-one-out
    sums q.x in float32 over L-feature chunks scaled by a power of two to row
    norms below 1, adding 4 alpha max|x| |q| (alpha = gamma_m(u) (1 + u)^2 + 2u
    + u^2, u = 2^-24, m = L + ceil(D / L)) and, for underflow, four times
    8 D tiny32 per scaled product. Queries keep float64: one is a memory-bound
    pass that a cast would double. The direct ``norm(x - q)`` re-ranks stably,
    each leave-one-out pair once: ties go to the lower database index.
    """
    x, self_join = db.features, q is None
    q = x if self_join else q
    n, dim = x.shape
    if not 1 <= k <= n - self_join or q.shape[1] != dim:
        raise ValueError(f"need k in [1, {n - self_join}] and {dim} query features, "
                         f"got k={k} and {q.shape[1]}")
    sqx, sqq = db.sqnorms, db.sqnorms if self_join else np.einsum("bd,bd->b", q, q)
    _check_sqnorms(sqq, "query features")
    top, u = np.sqrt(sqx.max()), (dim + 2) * np.finfo(np.float64).eps
    margin = 4.0 * u / (1.0 - u) * (top + np.sqrt(sqq)) ** 2
    rows = max(1, min(_BLOCK_ELEMENTS // n, len(q)))
    factor = -2.0
    if self_join:
        width = max(1, min(_SCREEN_FEATURES, _BLOCK_ELEMENTS // n))
        m = width + -(-dim // width)
        alpha = m * _U32 / (1.0 - m * _U32) * (1.0 + _U32) ** 2 + 2.0 * _U32 + _U32 ** 2
        e = int(np.frexp(top)[1])  # x * 2^-e has row norms below 1, exactly
        margin += 4.0 * alpha * top * np.sqrt(sqq) + np.ldexp(32.0 * dim * _TINY32, 2 * e)
        scale, factor = np.ldexp(1.0, -e), np.ldexp(-2.0, 2 * e)
        cast = np.empty(n * width, dtype=np.float32)
        gram, part = np.empty((2, rows, n), dtype=np.float32)  # the block's sum and one chunk's
    d2, ranked = np.empty((2, min(64, rows), n))  # thresholded 64 rows at a time
    r, c = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for s in range(0, len(q), rows):
        b = min(rows, len(q) - s)
        if self_join:
            for f in range(0, dim, width):
                y = cast[:n * min(width, dim - f)].reshape(n, -1)
                np.multiply(x[:, f:f + width], scale, out=y)
                np.matmul(y[s:s + b], y.T, out=(part if f else gram)[:b])  # syrk if one block
                if f:
                    gram[:b] += part[:b]
            g = gram[:b]
        else:
            g = q[s:s + b] @ x.T
        for i in range(s, s + b, 64):
            t = d2[:min(64, s + b - i)]  # -2 q.x + |x|^2 + |q|^2 in float64
            np.multiply(g[i - s:i - s + len(t)], factor, out=t, dtype=np.float64)
            t += sqx
            t += sqq[i:i + len(t), None]
            if self_join:
                t[np.arange(len(t)), np.arange(i, i + len(t))] = np.inf
            np.copyto(ranked[:len(t)], t)
            ranked[:len(t)].partition(k - 1, axis=1)
            rt, ct = np.nonzero(t <= (ranked[:len(t), k - 1] + margin[i:i + len(t)])[:, None])
            r.append(rt + i)
            c.append(ct)  # row-major: c ascends within a row
    r, c = np.concatenate(r), np.concatenate(c)
    qr, xc = r, c  # re-rank norm(x[xc] - q[qr]), qr ascending
    if self_join:  # |x_i - x_j| and |x_j - x_i| have the same bits: measure each pair once
        pair, inverse = np.unique(np.minimum(r, c) * n + np.maximum(r, c), return_inverse=True)
        qr, xc = np.divmod(pair, n)
    pairs = max(1, _GATHER_ELEMENTS // dim)
    exact, gather = np.empty(len(xc)), np.empty((min(pairs, len(xc)), dim))
    for p in range(0, len(xc), pairs):  # each query row broadcast against its candidates
        rp = qr[p:p + pairs]
        diff = np.take(x, xc[p:p + pairs], axis=0, out=gather[:len(rp)], mode="clip")
        starts = np.flatnonzero(np.diff(rp, prepend=-1)).tolist()
        for a, z in zip(starts, starts[1:] + [len(rp)]):
            diff[a:z] -= q[rp[a]]
        np.multiply(diff, diff, out=diff)  # then np.linalg.norm's own sqrt(sum), in place
        np.sqrt(np.add.reduce(diff, axis=1), out=exact[p:p + len(rp)])
    exact = exact[inverse] if self_join else exact
    first = np.searchsorted(r, np.arange(len(q)))
    take = np.lexsort((exact, r))[first[:, None] + np.arange(k)]
    return c[take], exact[take]


def _weighted_label_mean(db: FingerprintDb, idx, dists) -> np.ndarray:
    """Inverse-distance weighted mean of the (B, k) neighbours' labels, per query."""
    labels = db.labels_mm[idx]  # (B, k, 3), one row of estimates per query
    weights = 1.0 / (dists + 1e-12)
    return (labels * weights[..., None]).sum(axis=1) / weights.sum(axis=1)[:, None]


def knn_locate(db: FingerprintDb, query: CsiSample, k: int = 5) -> Position3:
    """Estimate the query position as the inverse-distance weighted mean of the
    positions of its k nearest fingerprints in feature space (ties by database order)."""
    q = extract_features(query)[None, :]
    return Position3(*map(float, _weighted_label_mean(db, *_nearest(db, q, k))[0]))


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


def evaluate_localizer(db: FingerprintDb, test_samples, k: int = 5) -> LocalizationReport:
    """Locate every labelled test sample, as one batch, and aggregate the errors.
    The samples stream: only their features and ids are kept."""
    ids = []

    def tracked():
        for sample in test_samples:
            ids.append(sample.sample_id)
            yield sample

    test = build_fingerprints(tracked(), db.config)
    if len(test) == 0:
        raise ValueError("test set is empty")
    d = _weighted_label_mean(db, *_nearest(db, test.features, k)) - test.labels_mm
    errors = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)  # as Position3.distance_mm
    return LocalizationReport.from_errors(errors, ids)


def leave_one_out_report(db: FingerprintDb, k: int = 4) -> LocalizationReport:
    """Locate every fingerprint as a query that may not match itself, which equals
    querying a database with that row removed; ties still go by database order."""
    est = _weighted_label_mean(db, *_nearest(db, None, k))
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


class FeatureModeError(DatasetIOError):
    """The header's feature-mode byte names no FeatureMode."""


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
        if mode_index >= len(FeatureMode):
            raise FeatureModeError(f"{path}: unknown feature mode {mode_index}")
        declared = _FPDB_HEADER.size + tag_len + 8 * (n * d + n * 3)
        size = os.fstat(fh.fileno()).st_size
        if size != declared:  # before the body is allocated: a bad header may declare GiBs
            raise TruncatedFileError(f"{path}: {size} bytes, the header declares {declared}")
        tag = fh.read(tag_len)
        body = np.empty(n * d + n * 3, dtype="<f8")  # features then labels, read in place
        fh.readinto(body)
    mode = list(FeatureMode)[mode_index]
    return FingerprintDb(body[: n * d].reshape(n, d), body[n * d:].reshape(n, 3),
                         FeatureConfig(mode), tag.decode("utf-8"))
