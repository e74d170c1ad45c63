"""Downlink precoding, received-power maps and spectral-efficiency metrics.

Conventions: both precoders take K users stacked as (K, M, F), one user as
``h[None]``; the signal a user receives from precoding vector w is h^T w
(plain transpose; the conjugation lives in the weights), and precoding is
computed independently per subcarrier with wideband figures averaged over
the pilot subcarriers. Transmit power is split equally over scheduled users
(a power map puts unit power on its one user); no water-filling.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .geometry import grid_positions
from .model import CsiSample, Position3, SampleGrid


class PrecodingScheme(enum.Enum):
    MRT = "mrt"
    ZF = "zf"


@dataclass(frozen=True, slots=True)
class LinkBudget:
    """Total downlink power and noise floor, both linear."""

    total_tx_power: float = 1.0
    noise_power: float = 1e-3

    def __post_init__(self):
        if not (0 < self.total_tx_power < math.inf and 0 <= self.noise_power < math.inf):
            raise ValueError("powers must be finite and positive (noise may be zero)")


class PrecodingWeights:
    """Per-subcarrier unit-norm beamforming vectors for K scheduled users.

    ``w`` has shape (K, M, F); each (M,) vector w[k, :, f] has unit norm.
    """

    def __init__(self, w):
        w = np.array(w, dtype=np.complex128, order="C")
        if w.ndim != 3:
            raise ValueError("weights must have shape (K, M, F)")
        norms = np.linalg.norm(w, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("each per-user, per-subcarrier vector must have unit norm")
        w.flags.writeable = False
        self.w = w


def mrt_weights(H: np.ndarray) -> PrecodingWeights:
    """Maximum-ratio weights for K stacked users, H of shape (K, M, F).

    w_k = conj(h_k) / ||h_k|| maximises h^T w per subcarrier (the
    Cauchy-Schwarz equality case), so the received amplitude at the matched
    channel is exactly ||h_k||. An all-zero column raises ValueError naming
    its user and subcarrier.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 3:
        raise ValueError("stacked channels must have shape (K, M, F)")
    norms = np.linalg.norm(H, axis=1, keepdims=True)  # (K, 1, F)
    zero = np.argwhere(norms[:, 0, :] == 0.0)
    if zero.size:
        raise ValueError(f"zero channel column of user {zero[0, 0]} at subcarrier {zero[0, 1]}")
    return PrecodingWeights(np.conj(H) / norms)


def zf_weights(H: np.ndarray) -> PrecodingWeights:
    """Zero-forcing weights for K stacked users, H of shape (K, M, F).

    Per subcarrier one QR factorisation H^H = Q R gives the columns of
    Q R^-H, which satisfy h_j^T w_k = delta_jk without the squared condition
    number of inverting H H^H; each is then scaled to unit norm (preserving
    the nulls). Raises ValueError naming the first rank-deficient
    subcarrier: one whose smallest |R_kk| is at most 1e-12 of its largest.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 3:
        raise ValueError("stacked channels must have shape (K, M, F)")
    K, M, F = H.shape
    if K > M:
        raise ValueError(f"cannot zero-force {K} users with {M} antennas")
    Q, R = np.linalg.qr(np.conj(np.transpose(H, (2, 1, 0))))  # (F, M, K), (F, K, K)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    bad = np.flatnonzero(~(diag.min(axis=1) > diag.max(axis=1) * 1e-12))  # NaN is bad too
    if bad.size:
        raise ValueError(f"rank-deficient channel matrix at subcarrier {int(bad[0])}")
    # W = Q R^-H, solved as R W^H = Q^H (R is triangular, so no pivoting happens)
    Wh = np.linalg.solve(R, np.conj(np.transpose(Q, (0, 2, 1))))  # (F, K, M)
    W = np.conj(np.transpose(Wh, (1, 2, 0)))  # (K, M, F)
    return PrecodingWeights(W / np.linalg.norm(W, axis=1, keepdims=True))


def _precoder(scheme: PrecodingScheme):
    """The weights function of ``scheme``, looked up per call, so that a rebound
    module name (bench/tracing.py wraps ``zf_weights``) is the one called."""
    return {PrecodingScheme.MRT: mrt_weights, PrecodingScheme.ZF: zf_weights}[scheme]


class PowerMap:
    """Received power over a positioner grid for one beamformed target.

    ``values`` is (ny, nx), raster-ordered (row-major, x fastest), linear
    power. A map starts out unnormalized; ``normalize_power_maps`` scales
    one or several maps by their common maximum so the peak node becomes 1.
    """

    def __init__(self, grid: SampleGrid, values, normalized: bool = False):
        values = np.array(values, dtype=np.float64, order="C")
        if values.shape != (grid.ny, grid.nx):
            raise ValueError(f"values shape {values.shape} does not match grid {grid.ny}x{grid.nx}")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("power values must be finite and nonnegative")
        if normalized and values.size and values.max() > 1.0 + 1e-12:
            raise ValueError("normalized map must not exceed 1")
        values.flags.writeable = False
        self.grid = grid
        self.values = values
        self.normalized = normalized

    def argmax_node(self) -> tuple[int, int]:
        """(iy, ix) of the strongest node."""
        iy, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return int(iy), int(ix)

    def node_position(self, iy: int, ix: int) -> Position3:
        return grid_positions(self.grid)[iy * self.grid.nx + ix]


def power_map(grid: SampleGrid, samples, target: CsiSample,
              scheme: PrecodingScheme = PrecodingScheme.MRT) -> PowerMap:
    """Evaluate one user's beamforming pattern over a grid of channels.

    ``samples`` supplies one CsiSample per grid node in raster order
    (an iterable; a dataset stream works). Weights are computed once from
    the target sample; a node's value is mean_f |h_f^T w_f|^2, with unit
    power on the one user. The result is unnormalized; scaling is a
    separate, explicit step because the comparison set (a single map, or
    several maps that must share a colour scale) is the caller's choice.
    """
    w = _precoder(scheme)(target.h[None]).w[0]
    values = np.empty(grid.node_count, dtype=np.float64)
    count = 0
    for i, sample in enumerate(samples):
        if i >= grid.node_count:
            raise ValueError(f"more samples than the {grid.node_count} grid nodes")
        if sample.h.shape != target.h.shape:
            raise ValueError(f"sample {i} shape {sample.h.shape} does not match target")
        values[i] = np.mean(np.abs((sample.h * w).sum(axis=0)) ** 2)
        count += 1
    if count != grid.node_count:
        raise ValueError(f"got {count} samples for {grid.node_count} grid nodes")
    return PowerMap(grid, values.reshape(grid.ny, grid.nx))


def normalize_power_maps(maps) -> list[PowerMap]:
    """Scale one or several maps by their common maximum power."""
    maps = list(maps)
    if not maps:
        raise ValueError("no maps to normalize")
    peak = max(float(m.values.max()) for m in maps)
    if peak <= 0.0:
        raise ValueError("all-zero power maps cannot be normalized")
    return [PowerMap(m.grid, m.values / peak, normalized=True) for m in maps]


def power_map_to_csv(pmap: PowerMap, path) -> None:
    """Write ``x_mm,y_mm,power_db`` rows in raster order."""
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(pmap.values)
    lines = ["x_mm,y_mm,power_db"]
    for node, v in zip(grid_positions(pmap.grid).xyz, db.flat):
        x, y, _ = node.tolist()
        lines.append(f"{x!r},{y!r},{float(v)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def power_map_to_pgm(pmap: PowerMap, path, db_range: tuple[float, float] = (-40.0, 0.0)) -> None:
    """Render the map as a 16-bit binary PGM (P5) over a dB dynamic range.

    Linear dB-to-gray mapping: db_range[0] and below -> 0, db_range[1] and
    above -> 65535. Row 0 of the image is the row nearest the grid origin.
    """
    lo, hi = db_range
    if hi <= lo:
        raise ValueError("db_range must be increasing")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(pmap.values)
    unit = np.clip((db - lo) / (hi - lo), 0.0, 1.0)
    gray = np.round(unit * 65535.0).astype(">u2")
    header = f"P5\n{pmap.grid.nx} {pmap.grid.ny}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(gray.tobytes())


def group_spectral_efficiency(H_group: np.ndarray,
                              scheme: PrecodingScheme,
                              budget: LinkBudget):
    """Per-user and sum spectral efficiency of one simultaneously served group.

    For users stacked as (K, M, F):

        SINR_k,f = P_k |h_k,f^T w_k,f|^2 / (sigma^2 + sum_{j!=k} P_j |h_k,f^T w_j,f|^2)
        SE_k = mean_f log2(1 + SINR_k,f)

    with the equal power split P_k = P_total / K. Returns (per_user, sum).
    """
    H_group = np.asarray(H_group, dtype=np.complex128)
    w = _precoder(scheme)(H_group).w  # (K, M, F); the precoder checks the shape
    p = budget.total_tx_power / H_group.shape[0]
    # amps[k, j, f] = h_k,f^T w_j,f
    amps = np.einsum("kmf,jmf->kjf", H_group, w)
    powers = p * np.abs(amps) ** 2
    signal = np.einsum("kkf->kf", powers)
    interference = powers.sum(axis=1) - signal
    with np.errstate(divide="ignore"):
        sinr = signal / (budget.noise_power + interference)
    se = np.mean(np.log2(1.0 + sinr), axis=1)
    return se, float(np.sum(se))


def max_served_users(user_pool, se_threshold: float = 1.0, trials: int = 5,
                     seed: int = 0, budget: LinkBudget = LinkBudget()) -> float:
    """How many users zero-forcing can serve before someone drops below a floor.

    Each trial draws users uniformly without replacement, adding one at a
    time and recomputing the zero-forcing group SE; the trial stops when any
    served user falls below ``se_threshold`` (or the pool / antenna count is
    exhausted) and scores the last feasible group size. Returns the median
    score over trials. Deterministic for a fixed seed.
    """
    pool = list(user_pool)
    if not pool:
        raise ValueError("user pool is empty")
    if se_threshold <= 0:
        raise ValueError("se_threshold must be positive")
    n_antennas = pool[0].n_antennas
    rng = np.random.default_rng(seed)
    scores = []
    for _ in range(trials):
        order = rng.permutation(len(pool))
        feasible = 0
        k_max = min(len(pool), n_antennas)
        for k in range(1, k_max + 1):
            H = np.stack([pool[i].h for i in order[:k]])
            try:
                se, _ = group_spectral_efficiency(H, PrecodingScheme.ZF, budget)
            except ValueError:
                break  # rank-deficient: adding this user is infeasible
            if np.min(se) < se_threshold:
                break
            feasible = k
        scores.append(feasible)
    return statistics.median(scores)
