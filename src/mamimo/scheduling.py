"""User grouping: channel-based semi-orthogonal selection and a
location-based spread ordering, plus schedule evaluation.

Both algorithms are deterministic; every tie is broken by the lowest user
index. The location-based scheduler exists for pools whose position
estimates come from the localization stage: it chains users by spatial
proximity and deals the chain across groups, keeping nearby users out of
the same group at O(K^2) cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import write_atomic
from .dsp import LinkBudget, PrecodingScheme, group_spectral_efficiency
from .model import CsiSample, Position3


@dataclass(frozen=True, slots=True)
class PoolUser:
    """One schedulable user: channel snapshot plus a position estimate."""

    user_ref: int
    csi: CsiSample
    position: Position3


@dataclass
class UserPool:
    users: list[PoolUser] = field(default_factory=list)

    def __post_init__(self):
        shapes = {u.csi.h.shape for u in self.users}
        if len(shapes) > 1:
            raise ValueError(f"pool channels must share one shape, got {sorted(shapes)}")

    def __len__(self):
        return len(self.users)

    def __getitem__(self, i) -> PoolUser:
        return self.users[i]

    def stacked_channels(self, indices) -> np.ndarray:
        return np.stack([self.users[i].csi.h for i in indices])

    def positions(self) -> np.ndarray:
        return np.stack([u.position.as_array() for u in self.users])


@dataclass
class Schedule:
    """A partition of scheduled users into transmission groups."""

    groups: list[list[int]]
    group_size: int

    def __post_init__(self):
        flat = [i for g in self.groups for i in g]
        if len(flat) != len(set(flat)):
            raise ValueError("groups must be disjoint")
        if any(len(g) > self.group_size for g in self.groups):
            raise ValueError(f"groups must not exceed size {self.group_size}")


def sus_select(pool: UserPool, alpha: float = 0.3, max_users: int | None = None) -> list[int]:
    """Greedy semi-orthogonal user selection on wideband channels.

    Channels are the subcarrier-stacked M*F vectors g, one (K, M*F) matrix.
    The first pick is the largest-norm user. A pick with a nonzero residual
    (its component orthogonal to the selected span) normalizes it to b,
    projects b out of every residual once and drops each candidate with
    |g^H b| / ||g|| >= ``alpha``, and every zero channel. Before each pick,
    a nonzero candidate whose residual norm is at most 1e-12 of ||g|| (the
    rank tolerance of ``zf_weights``) is dropped: the selected span already
    holds its channel. The survivor with the largest residual norm is picked
    next, ties to the lowest index. Selection stops at ``max_users`` or when
    no candidate survives; the returned list is in selection order.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if len(pool) == 0:
        raise ValueError("user pool is empty")
    if max_users is None:
        max_users = len(pool)
    g = np.stack([u.csi.h.reshape(-1) for u in pool.users])  # (K, M*F)
    norms = np.linalg.norm(g, axis=1)
    res = g.copy()  # each user's component orthogonal to the selected span
    alive = np.ones(len(pool), dtype=bool)
    selected: list[int] = []
    while len(selected) < max_users:
        res_norms = np.linalg.norm(res, axis=1)
        alive &= (res_norms > 1e-12 * norms) | (norms == 0)
        if not alive.any():
            break
        pick = int(np.argmax(np.where(alive, res_norms, -1.0)))  # first maximum on ties
        selected.append(pick)
        alive[pick] = False
        if res_norms[pick] > 0.0:
            b = res[pick] / res_norms[pick]
            res -= np.outer(res @ np.conj(b), b)
            with np.errstate(invalid="ignore"):  # 0/0 for a zero channel, masked by norms > 0
                alive &= (norms > 0) & (np.abs(g @ np.conj(b)) / norms < alpha)
    return selected


def def_schedule(pool: UserPool, group_size: int) -> Schedule:
    """Location-spread grouping via a nearest-neighbour chain.

    Users are first ordered into a chain that starts at user 0 and always
    appends the unplaced user closest to the previous pick (sorting the pool
    by minimal distance between sequential users; ties to the lowest index),
    so spatial neighbours sit next to each other in the chain. The chain is
    then dealt round-robin into ceil(K / group_size) groups, which places
    chain-adjacent users, i.e. users located closely together, into
    different groups. Deterministic, O(K^2); group sizes are balanced and
    never exceed ``group_size``.
    """
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    K = len(pool)
    if K == 0:
        raise ValueError("user pool is empty")
    coords = pool.positions()  # (K, 3)
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)  # (K, K)
    order = [0]
    placed = np.zeros(K, dtype=bool)
    placed[0] = True
    while len(order) < K:
        candidates = dist[order[-1]].copy()
        candidates[placed] = np.inf
        pick = int(np.argmin(candidates))  # argmin takes the lowest index on ties
        order.append(pick)
        placed[pick] = True
    n_groups = -(-K // group_size)
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    for t, user in enumerate(order):
        groups[t % n_groups].append(user)
    return Schedule(groups=groups, group_size=group_size)


def random_schedule(pool: UserPool, group_size: int,
                    seed: int | tuple[int, ...] = 0) -> Schedule:
    """Uniformly random ordering cut into consecutive groups (baseline)."""
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    if len(pool) == 0:
        raise ValueError("user pool is empty")
    order = list(np.random.default_rng(seed).permutation(len(pool)))
    groups = [[int(i) for i in order[s:s + group_size]] for s in range(0, len(pool), group_size)]
    return Schedule(groups=groups, group_size=group_size)


@dataclass(frozen=True, slots=True)
class ScheduleReport:
    per_group_sum_se: tuple[float, ...]
    mean_sum_se: float
    min_intra_group_distance_mm: float


def min_intra_group_distance(schedule: Schedule, pool: UserPool) -> float:
    """Smallest pairwise distance between users sharing a group (inf if none)."""
    best = math.inf
    for group in schedule.groups:
        for a in range(len(group)):
            pa = pool[group[a]].position
            for b in range(a + 1, len(group)):
                best = min(best, pa.distance_mm(pool[group[b]].position))
    return best


def evaluate_schedule(schedule: Schedule, pool: UserPool,
                      budget: LinkBudget = LinkBudget()) -> ScheduleReport:
    """Sum SE per group under zero-forcing, its mean over groups, and the min
    intra-group distance. A group larger than the antenna count raises
    ValueError from zero-forcing."""
    sums = [group_spectral_efficiency(pool.stacked_channels(group), PrecodingScheme.ZF, budget)[1]
            for group in schedule.groups]
    return ScheduleReport(
        per_group_sum_se=tuple(sums),
        mean_sum_se=float(np.mean(sums)) if sums else 0.0,
        min_intra_group_distance_mm=min_intra_group_distance(schedule, pool),
    )


def schedule_to_csv(schedule: Schedule, pool: UserPool, path) -> None:
    """Export ``group_id,user_id,x_mm,y_mm`` rows."""
    lines = ["group_id,user_id,x_mm,y_mm"]
    for gid, group in enumerate(schedule.groups):
        for i in group:
            u = pool[i]
            lines.append(f"{gid},{u.user_ref},{u.position.x!r},{u.position.y!r}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
