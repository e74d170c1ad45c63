"""CSI fingerprint localization with a k-nearest-neighbour matcher.

A fingerprint database maps deterministic CSI feature vectors to the
positions they were recorded at; a query CSI is located by averaging the
labels of its nearest fingerprints. Every sample, stored or queried, becomes
one row of I/Q scaled by a power of two plus a float64 row norm: float32 rows
for samples read from CSI1 files (half the bytes of their float64 features,
which the rows rebuild bit for bit), float64 rows for in-memory samples and
for all queries. Rows are written in place into a matrix that grows by an
eighth of itself and is trimmed to its rows. One kernel reads that one format
for a single query, a batch or a leave-one-out pass alike: it screens panels
of queries with a product in the store's precision, keeping each query's k-th
smallest estimate so far, and re-ranks the candidates on rebuilt float64 rows.
Leave-one-out multiplies each pair of panels once, and no mode holds an N by
N matrix. The interface is minimal (CSI in, position out) so a learned model
can replace it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .dataio import write_atomic
from .model import CsiSample, Position3


class FeatureMode(enum.Enum):
    """The feature map that turns a CSI matrix into a fingerprint."""

    RAW_UNIT_NORM = "raw_unit_norm"


@dataclass(frozen=True, slots=True)
class FeatureConfig:
    mode: FeatureMode = FeatureMode.RAW_UNIT_NORM


def extract_features(csi: CsiSample) -> np.ndarray:
    """Turn a CSI matrix into a real feature vector: the real and imaginary
    parts of all entries stacked and divided by the Frobenius norm (length
    2*M*F, unit norm, invariant to positive scaling)."""
    h = csi.h
    with np.errstate(over="ignore"):  # an overflowing |h|^2 is refused below
        norm = np.linalg.norm(h)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"cannot extract features from a CSI matrix of norm {norm}")
    return np.concatenate([h.real.ravel(), h.imag.ravel()]) / norm


class FingerprintDb:
    """Stored fingerprints with their recording positions and sample ids, in insertion order.

    Row i of ``features`` (N, D) is a sample's [Re h, Im h] scaled by the power
    of two 2^-e that puts ``norms[i]`` = |h| 2^-e in [0.5, 1); feature i is
    ``features[i].astype(np.float64) / norms[i]``, which is extract_features
    bit for bit for any sample in a float64 store and for a complex64 sample,
    as a CSI1 file holds, in a float32 store. The database takes ownership of
    its arrays: C-contiguous float32 or float64 features and float64 norms and
    labels are kept, not copied, and locked read-only; ``sqnorms`` holds the
    features' squared norms that every query reads. A query whose CSI is not of
    ``shape`` (M, F), when given, is refused; D = 2 M F. Reports name row i by ``sample_ids[i]``.
    """

    def __init__(self, features, norms, labels_mm, sample_ids, config: FeatureConfig,
                 topology: str = "", shape: tuple[int, int] | None = None):
        features = np.ascontiguousarray(features)
        if features.dtype != np.float32:
            features = features.astype(np.float64, copy=False)
        norms = np.ascontiguousarray(norms, dtype=np.float64)
        labels_mm = np.ascontiguousarray(labels_mm, dtype=np.float64)
        if features.ndim != 2 or norms.shape != features.shape[:1] \
                or labels_mm.shape != (len(norms), 3) or len(sample_ids) != len(norms):
            raise ValueError("features must be (N, D), norms (N,), labels (N, 3) and N sample ids")
        if not np.isfinite(labels_mm).all():
            raise ValueError("labels must be finite")
        if not np.all((0.5 <= norms) & (norms < 1.0)):
            raise ValueError("norms must lie in [0.5, 1)")
        rows = np.einsum("nd,nd->n", features, features, dtype=np.float64)
        if not rows.max(initial=0.0) < 4.0:  # also false for inf or NaN
            raise ValueError("stored feature rows must be finite with norms below 2")
        sqnorms = rows / norms ** 2
        for a in (features, norms, labels_mm, sqnorms):
            a.flags.writeable = False
        self.features, self.norms, self.sqnorms = features, norms, sqnorms
        self.labels_mm, self.sample_ids = labels_mm, tuple(sample_ids)
        self.config = config
        self.topology = topology
        self.shape = shape

    def __len__(self):
        return self.features.shape[0]


def _rows(samples, dtype=None, shape=None):
    """Stream the samples into one matrix of stored rows (see FingerprintDb) and
    return ``(rows, norms, labels, ids, shape)``. With ``dtype=None`` the first
    sample picks the dtype: float32 when it is complex64 exact, as every sample read
    from a CSI1 file is (later samples are then rounded to complex64), float64
    otherwise. Every sample must have CSI of ``shape``, by default the first one's.
    Each row is written in place; the matrix grows by an eighth of itself and is
    trimmed to its rows at the end."""
    norms, labels, ids = [], [], []
    it = iter(samples)
    first = next(it, None)
    if first is None:
        return np.empty((0, 0), dtype or np.float32), np.empty(0), labels, ids, shape
    shape, size = shape or first.h.shape, first.h.size
    # an entry beyond complex64 range is not exact; an overflowing |h|^2 is refused
    with np.errstate(over="ignore"):
        if dtype is None:
            exact = np.array_equal(first.h.astype(np.complex64), first.h)
            dtype = np.float32 if exact else np.float64
        rows = np.empty((1, 2 * size), dtype)
        for n, sample in enumerate(itertools.chain([first], it)):
            h, norm = sample.h, np.linalg.norm(sample.h)
            if h.shape != shape:
                raise ValueError(f"sample {sample.sample_id!r}: CSI of shape {h.shape}, "
                                 f"expected {shape}")
            if not 0.0 < norm < np.inf:
                raise ValueError(f"sample {sample.sample_id!r}: cannot store CSI of norm {norm}")
            if n == len(rows):  # no view of rows outlives a resize
                rows.resize((n + max(16, n // 8), 2 * size), refcheck=False)
            e = -int(np.frexp(norm)[1])  # float32 rows round h to complex64
            np.ldexp(h.real, e, out=rows[n, :size].reshape(shape), casting="same_kind")
            np.ldexp(h.imag, e, out=rows[n, size:].reshape(shape), casting="same_kind")
            norms.append(float(np.ldexp(norm, e)))
            labels.append(sample.label)
            ids.append(sample.sample_id)
    rows.resize((len(ids), 2 * size), refcheck=False)
    return rows, np.array(norms), labels, ids, shape


def _labels_mm(labels, ids) -> np.ndarray:
    """The (N, 3) label positions in mm; an unlabelled sample is named by its id."""
    if None in labels:
        raise ValueError(f"sample {ids[labels.index(None)]!r} has no position label")
    return np.array([label.as_array() for label in labels]).reshape(len(labels), 3)


def build_fingerprints(samples, cfg: FeatureConfig = FeatureConfig(),
                       topology: str = "") -> FingerprintDb:
    """Build a database from labelled samples, streaming each stored row into one
    matrix whose dtype and CSI shape the first sample picks (see ``_rows``)."""
    features, norms, labels, ids, shape = _rows(samples)
    return FingerprintDb(features, norms, _labels_mm(labels, ids), ids, cfg, topology, shape)


# Query rows per screen panel: those that fill 2^20 products (403 rows at 2,601
# nodes), but at least 128, below which a float32 product runs far from its full
# rate; features per 1 MiB re-rank gather, and features per screening chunk.
_PANEL_ELEMENTS, _PANEL_ROWS, _GATHER_ELEMENTS, _SCREEN_FEATURES = 1 << 20, 128, 1 << 17, 2048


def _nearest(db: FingerprintDb, q, k: int):
    """(B, k) indices and distances of the k nearest fingerprints to each query:
    ``q = (rows, norms)`` as ``_rows`` builds them, query i being rows[i] / norms[i],
    or ``None`` for leave-one-out, each stored row a query that never matches itself.

    One screen serves both. It takes the queries in panels of P rows and sums, for
    each panel, products of its rows with the stored rows in the store's dtype (unit
    roundoff u, smallest normal t) over L-feature chunks of column views, casting a
    query chunk only when its dtype differs; a panel holds P rows by at most N
    products and its chunk partner, never N by N. Leave-one-out is a self-join: panel
    [i0, i1) meets only the stored rows from i0 on, and its product serves twice, as
    the panel's rows against those rows and, transposed, as the later rows against the
    panel's, so each pair of panels is multiplied once. With s = 1 / norms on either
    side, the float64 estimate |x|^2 - 2 q.x multiplies the product by s_q s_x; it is
    |x - q|^2 less |q|^2, the same for all of a query's candidates. Each query keeps
    its k smallest estimates so far and every candidate within the current k-th plus
    a margin; after each panel, candidates beyond it are dropped, and after the last,
    the k-th is final. Rebuilt rows have norms of at most top = max(max|x|,
    1 + gamma_{D+8}), as a query row rebuilds to unit norm up to rounding (gamma_n =
    n eps / (1 - n eps)). The margin is one that no true or direct-form neighbour
    exceeds: 16 gamma_{D+8} top^2 for float64 rounding, rebuilt rows and scales
    included; 4 alpha top^2 for the product, alpha = gamma_m(u) (1 + u)^2 with
    m = L + ceil(D / L), plus 2u for a cast query chunk; and 32 D t s_q / min(norms)
    for underflow. The direct ``norm(x - q)`` re-ranks stably over rows rebuilt as
    ``rows / norms`` on both sides, each leave-one-out pair once: ties go to the
    lower database index.
    """
    y, norms, self_join = db.features, db.norms, q is None
    qy, qnorms = (y, norms) if self_join else q
    (n, dim), nq = y.shape, len(qy)
    if not 1 <= k <= n - self_join or qy.shape[1] != dim:
        raise ValueError(f"need k in [1, {n - self_join}] and {dim} query features, "
                         f"got k={k} and {qy.shape[1]}")
    sqx, scale, cast = db.sqnorms, 1.0 / qnorms, qy.dtype != y.dtype
    info, eps = np.finfo(y.dtype), np.finfo(np.float64).eps
    width = max(1, min(_SCREEN_FEATURES, dim))
    m, g64, u = width + -(-dim // width), (dim + 8) * eps, info.eps / 2
    alpha = m * u / (1.0 - m * u) * (1.0 + u) ** 2 + (2.0 * u if cast else 0.0)
    top = max(np.sqrt(sqx.max()), 1.0 + g64)
    margin = (16.0 * g64 / (1.0 - g64) * top ** 2 + 4.0 * alpha * top ** 2
              + 32.0 * dim * float(info.tiny) * scale / norms.min())
    rows = min(max(_PANEL_ROWS, _PANEL_ELEMENTS // n), nq)
    panel, part = np.empty((2, rows * n), dtype=y.dtype)  # the panel's sum and one chunk's
    weight, est = -2.0 / norms, np.empty(min(64, rows) * n)  # float64 estimates, in turn
    best = np.full((nq, k), np.inf)  # each query's k smallest estimates so far
    kept, found = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)), []

    def screen(i, g, c0):  # the products g of queries i.. with stored rows c0..
        t = est[:g.size].reshape(g.shape)  # |x|^2 - 2 q.x in float64
        np.multiply(g, weight[c0:c0 + g.shape[1]], out=t)
        t *= scale[i:i + len(t), None]
        t += sqx[c0:c0 + g.shape[1]]
        if self_join and i < c0 + g.shape[1]:  # the queries' own rows are among c0..
            t[np.arange(len(t)), np.arange(i - c0, i - c0 + len(t))] = np.inf
        low = best[i:i + len(t)]
        pool = np.concatenate((low, t), axis=1)
        pool.partition(k - 1, axis=1)
        low[:] = pool[:, :k]
        rt, ct = np.nonzero(t <= (low[:, k - 1] + margin[i:i + len(t)])[:, None])
        found.append((rt + i, ct + c0, t[rt, ct]))

    for s in range(0, nq, rows):
        b = min(rows, nq - s)
        c0 = s if self_join else 0
        gram, chunk = (buf[:b * (n - c0)].reshape(b, n - c0) for buf in (panel, part))
        for f in range(0, dim, width):
            a = qy[s:s + b, f:f + width].astype(y.dtype, copy=False)  # a view unless cast
            np.matmul(a, y[c0:, f:f + width].T, out=chunk if f else gram)
            if f:
                gram += chunk
        for i in range(s, s + b, 64):  # the panel's rows as queries
            screen(i, gram[i - s:i - s + 64], c0)
        if self_join:  # the later rows as queries, by the transpose
            step = len(est) // b
            for j in range(s + b, n, step):
                screen(j, gram[:, j - s:j - s + step].T, s)
        r, c, e = (np.concatenate(parts) for parts in zip(kept, *found))
        keep = e <= best[r, k - 1] + margin[r]  # within the k-th so far plus the margin
        kept, found = (r[keep], c[keep], e[keep]), []
    order = np.lexsort((kept[1], kept[0]))  # by query row, then stored row
    r, c = kept[0][order], kept[1][order]
    qr, xc = r, c  # re-rank norm(x[xc] - q[qr]), qr ascending
    if self_join:  # |x_i - x_j| and |x_j - x_i| have the same bits: measure each pair once
        pair, inverse = np.unique(np.minimum(r, c) * n + np.maximum(r, c), return_inverse=True)
        qr, xc = np.divmod(pair, n)
    pairs = max(1, _GATHER_ELEMENTS // dim)
    exact, gather = np.empty(len(xc)), np.empty((min(pairs, len(xc)), dim))
    raw, rebuilt = np.empty(gather.shape, y.dtype), np.empty((min(len(gather), nq), dim))
    qraw = rebuilt if cast else raw  # a buffer in the query rows' dtype
    for p in range(0, len(xc), pairs):  # each query row broadcast against its candidates
        rp, cp = qr[p:p + pairs], xc[p:p + pairs]
        diff = np.divide(np.take(y, cp, axis=0, out=raw[:len(rp)], mode="clip"),
                         norms[cp, None], out=gather[:len(rp)])  # the candidates, rebuilt
        starts = np.flatnonzero(np.diff(rp, prepend=-1))
        heads = rp[starts]  # this chunk's query rows, rebuilt in one batch
        queries = np.divide(np.take(qy, heads, axis=0, out=qraw[:len(heads)], mode="clip"),
                            qnorms[heads, None], out=rebuilt[:len(heads)])
        for j, (a, z) in enumerate(zip(starts.tolist(), starts[1:].tolist() + [len(rp)])):
            diff[a:z] -= queries[j]
        np.multiply(diff, diff, out=diff)  # then np.linalg.norm's own sqrt(sum), in place
        np.sqrt(np.add.reduce(diff, axis=1), out=exact[p:p + len(rp)])
    exact = exact[inverse] if self_join else exact
    first = np.searchsorted(r, np.arange(nq))
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
    rows, norms, *_ = _rows([query], np.float64, db.shape)
    return Position3(*map(float, _weighted_label_mean(db, *_nearest(db, (rows, norms), k))[0]))


@dataclass(frozen=True)
class LocalizationReport:
    errors_mm: np.ndarray
    sample_ids: tuple[str, ...]
    mean_mm: float
    median_mm: float
    p95_mm: float

    @classmethod
    def from_errors(cls, errors_mm, sample_ids) -> "LocalizationReport":
        """The report of one error per sample, each named by its sample's id."""
        errors_mm, sample_ids = np.asarray(errors_mm, dtype=np.float64), tuple(sample_ids)
        if errors_mm.size == 0:
            raise ValueError("no errors to report")
        if np.any(errors_mm < 0):
            raise ValueError("errors must be nonnegative")
        if len(sample_ids) != errors_mm.size:
            raise ValueError(f"{errors_mm.size} errors, but {len(sample_ids)} sample ids")
        return cls(errors_mm=errors_mm, sample_ids=sample_ids,
                   mean_mm=float(np.mean(errors_mm)),
                   median_mm=float(np.median(errors_mm)),
                   p95_mm=float(np.percentile(errors_mm, 95)))


def evaluate_localizer(db: FingerprintDb, test_samples, k: int = 5) -> LocalizationReport:
    """Locate every labelled test sample, as one batch of float64 stored rows, and
    aggregate the errors. The samples stream: only their rows, labels and ids
    are kept."""
    rows, norms, labels, ids, _ = _rows(test_samples, np.float64, db.shape)
    if not ids:
        raise ValueError("test set is empty")
    d = _weighted_label_mean(db, *_nearest(db, (rows, norms), k)) - _labels_mm(labels, ids)
    errors = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)  # as Position3.distance_mm
    return LocalizationReport.from_errors(errors, ids)


def leave_one_out_report(db: FingerprintDb, k: int = 4) -> LocalizationReport:
    """Locate every fingerprint as a query that may not match itself, which equals
    querying a database with that row removed; ties still go by database order.
    Each row of the report is named by the store's own sample id."""
    est = _weighted_label_mean(db, *_nearest(db, None, k))
    return LocalizationReport.from_errors(np.linalg.norm(est - db.labels_mm, axis=1), db.sample_ids)


def report_to_csv(report: LocalizationReport, path) -> None:
    """Export ``sample_id,err_mm`` rows."""
    lines = ["sample_id,err_mm"]
    lines += (f"{sid},{float(err)!r}" for sid, err in zip(report.sample_ids, report.errors_mm))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
