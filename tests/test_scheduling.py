import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo.dsp import LinkBudget, PrecodingScheme, group_spectral_efficiency
from mamimo.model import CsiSample, Position3
from mamimo.scheduling import (
    PoolUser,
    Schedule,
    UserPool,
    def_schedule,
    evaluate_schedule,
    min_intra_group_distance,
    random_schedule,
    schedule_to_csv,
    sus_select,
)


def pool_from_channels(channels, positions=None):
    users = []
    for i, h in enumerate(channels):
        pos = positions[i] if positions else Position3(0.0, 0.0, 0.0)
        users.append(PoolUser(i, CsiSample(np.atleast_2d(h)), pos))
    return UserPool(users)


def pool_from_positions(positions):
    dummy = CsiSample(np.ones((1, 1)))
    return UserPool([PoolUser(i, dummy, p) for i, p in enumerate(positions)])


def sus_replay(channels, alpha, max_users):
    """Step-by-step greedy replay with explicit loops; shares no code with
    the implementation under test."""
    remaining = list(range(len(channels)))
    selected = []
    basis = []
    while remaining and len(selected) < max_users:
        if selected:
            survivors = []
            for i in remaining:
                g = channels[i]
                keep = True
                for b in basis:
                    if abs(np.sum(np.conj(b) * g)) / np.linalg.norm(g) >= alpha:
                        keep = False
                        break
                if keep:
                    survivors.append(i)
            remaining = survivors
            if not remaining:
                break
        best, best_norm, best_res = None, -1.0, None
        for i in remaining:
            res = np.array(channels[i], dtype=complex)
            for b in basis:
                res = res - b * np.sum(np.conj(b) * res)
            norm = np.linalg.norm(res)
            if norm > best_norm:
                best, best_norm, best_res = i, norm, res
        selected.append(best)
        remaining.remove(best)
        if best_norm > 0:
            basis.append(best_res / best_norm)
    return selected


class TestSusSelect:
    def test_orthogonal_users_all_selected(self):
        channels = np.eye(3, dtype=complex)
        pool = pool_from_channels(channels)
        assert sorted(sus_select(pool, alpha=0.5, max_users=3)) == [0, 1, 2]

    def test_identical_channels_pick_one(self):
        h = np.array([1.0 + 2.0j, -0.5j, 0.25])
        pool = pool_from_channels([h, h])
        assert sus_select(pool, alpha=0.9) == [0]

    def test_first_pick_is_max_norm(self):
        pool = pool_from_channels([np.array([1.0, 0]), np.array([5.0, 0]), np.array([2.0, 0])])
        assert sus_select(pool, alpha=1.0, max_users=1) == [1]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_replay(self, seed):
        rng = np.random.default_rng(seed)
        channels = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(6)]
        pool = pool_from_channels(channels)
        wideband = [pool[i].csi.h.reshape(-1) for i in range(6)]
        for alpha in (0.2, 0.4, 0.8):
            assert sus_select(pool, alpha=alpha) == sus_replay(wideband, alpha, 6)

    def test_accepted_users_satisfy_projection_bound(self, rng):
        channels = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(10)]
        pool = pool_from_channels(channels)
        alpha = 0.45
        selected = sus_select(pool, alpha=alpha)
        # re-derive the basis in selection order and check each later pick
        basis = []
        for step, i in enumerate(selected):
            g = pool[i].csi.h.reshape(-1)
            for b in basis:
                assert abs(np.vdot(b, g)) / np.linalg.norm(g) < alpha
            res = g.copy()
            for b in basis:
                res = res - b * np.vdot(b, res)
            basis.append(res / np.linalg.norm(res))

    def test_zero_channels(self):
        # sus_replay cannot be the reference here: its 0/0 projection test is
        # nan >= alpha, which is False, so it would keep a zero channel
        pool = pool_from_channels([np.zeros(3), np.array([1.0, 0, 0]), np.zeros(3),
                                   np.array([0, 2.0j, 0])])
        # a zero channel never joins a selection that is already non-empty
        assert sus_select(pool, alpha=1.0) == [3, 1]
        # when every channel is zero, no basis vector is added: index order
        zeros = pool_from_channels([np.zeros(3)] * 4)
        assert sus_select(zeros, alpha=0.3) == [0, 1, 2, 3]
        assert sus_select(zeros, alpha=0.3, max_users=2) == [0, 1]

    def test_stops_at_the_channel_rank(self):
        # past 5 users in C^5 the residuals are rounding noise, not channel
        rng = np.random.default_rng(0)
        channels = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        pool = pool_from_channels(channels)
        selected = sus_select(pool, alpha=0.9)
        assert len(selected) == 5
        assert selected == sus_replay(list(channels), 0.9, 5)

    def test_alpha_range_enforced(self):
        pool = pool_from_channels([np.array([1.0, 0.0])])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sus_select(pool, alpha=bad)

    def test_max_users_respected(self, rng):
        channels = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(6)]
        pool = pool_from_channels(channels)
        assert len(sus_select(pool, alpha=1.0, max_users=3)) == 3


def def_replay(positions, group_size):
    """Exhaustive replay of the chain-then-deal rule with plain loops."""
    K = len(positions)
    order = [0]
    unplaced = set(range(1, K))
    while unplaced:
        prev = positions[order[-1]]
        best, best_d = None, math.inf
        for u in sorted(unplaced):
            d = prev.distance_mm(positions[u])
            if d < best_d:
                best, best_d = u, d
        order.append(best)
        unplaced.remove(best)
    n_groups = math.ceil(K / group_size)
    groups = [[] for _ in range(n_groups)]
    for t, u in enumerate(order):
        groups[t % n_groups].append(u)
    return order, groups


class TestDefSchedule:
    def test_single_group_when_pool_fits(self):
        pool = pool_from_positions([Position3(0, 0, 0), Position3(1, 0, 0),
                                    Position3(2, 0, 0), Position3(3, 0, 0)])
        schedule = def_schedule(pool, group_size=4)
        assert schedule.groups == [[0, 1, 2, 3]]

    def test_collinear_users_closest_pairs_separated(self):
        # users every metre on a line; the 1 m pairs must never share a group
        pool = pool_from_positions([Position3(0, 0, 0), Position3(1000, 0, 0),
                                    Position3(2000, 0, 0), Position3(3000, 0, 0)])
        schedule = def_schedule(pool, group_size=2)
        assert schedule.groups == [[0, 2], [1, 3]]
        assert min_intra_group_distance(schedule, pool) == pytest.approx(2000.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_replay(self, seed):
        rng = np.random.default_rng(seed)
        positions = [Position3(*rng.uniform(0, 2500, size=2), 1000.0) for _ in range(17)]
        pool = pool_from_positions(positions)
        for n in (2, 4, 5):
            _, groups = def_replay(positions, n)
            assert def_schedule(pool, n).groups == groups

    def test_chain_step_optimality_by_re_evaluation(self, rng):
        positions = [Position3(*rng.uniform(0, 2500, size=2), 1000.0) for _ in range(12)]
        pool = pool_from_positions(positions)
        order, _ = def_replay(positions, 3)
        placed = {order[0]}
        for t in range(1, len(order)):
            chosen_d = positions[order[t - 1]].distance_mm(positions[order[t]])
            for u in range(len(positions)):
                if u not in placed and u != order[t]:
                    assert positions[order[t - 1]].distance_mm(positions[u]) >= chosen_d
            placed.add(order[t])

    def test_identical_positions_deterministic(self):
        pool = pool_from_positions([Position3(5, 5, 0)] * 6)
        a = def_schedule(pool, 2)
        b = def_schedule(pool, 2)
        assert a.groups == b.groups
        assert sorted(i for g in a.groups for i in g) == list(range(6))

    def test_spreads_better_than_random_on_seeded_pools(self):
        wins = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            pool = pool_from_positions(
                [Position3(*rng.uniform(0, 2500, size=2), 1000.0) for _ in range(24)])
            d_def = min_intra_group_distance(def_schedule(pool, 4), pool)
            d_rand = min_intra_group_distance(random_schedule(pool, 4, seed=seed), pool)
            wins += d_def >= d_rand
        assert wins >= trials - 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            def_schedule(UserPool([]), 2)

    @given(k=st.integers(1, 30), n=st.integers(1, 8), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_always_a_partition(self, k, n, seed):
        rng = np.random.default_rng(seed)
        pool = pool_from_positions(
            [Position3(*rng.uniform(0, 100, size=2), 0.0) for _ in range(k)])
        schedule = def_schedule(pool, n)
        flat = sorted(i for g in schedule.groups for i in g)
        assert flat == list(range(k))
        assert all(len(g) <= n for g in schedule.groups)


class TestScheduleType:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            Schedule(groups=[[0, 1], [1, 2]], group_size=2)

    def test_oversized_group_rejected(self):
        with pytest.raises(ValueError):
            Schedule(groups=[[0, 1, 2]], group_size=2)


class TestEvaluateSchedule:
    def test_single_user_group_matches_single_user_se(self, rng):
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        pool = pool_from_channels([h])
        budget = LinkBudget(1.0, 1e-2)
        report = evaluate_schedule(Schedule(groups=[[0]], group_size=1), pool, budget=budget)
        _, expected = group_spectral_efficiency(h[None], PrecodingScheme.ZF, budget)
        assert report.per_group_sum_se[0] == pytest.approx(expected, rel=1e-12)
        assert report.mean_sum_se == pytest.approx(expected, rel=1e-12)
        assert report.min_intra_group_distance_mm == math.inf

    def test_group_larger_than_antennas_rejected(self, rng):
        channels = [rng.standard_normal(2) + 0j for _ in range(3)]
        pool = pool_from_channels(channels)  # M = 1 antenna
        with pytest.raises(ValueError):
            evaluate_schedule(Schedule(groups=[[0, 1, 2]], group_size=3), pool)

    def test_csv_export(self, tmp_path, rng):
        positions = [Position3(float(i), 2.0 * i, 0.0) for i in range(4)]
        channels = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(4)]
        pool = pool_from_channels(channels, positions)
        schedule = def_schedule(pool, 2)
        path = tmp_path / "schedule.csv"
        schedule_to_csv(schedule, pool, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group_id,user_id,x_mm,y_mm"
        assert len(lines) == 5
