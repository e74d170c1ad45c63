import math

import numpy as np
import pytest

from mamimo.channel import los_channel
from mamimo.dsp import (
    LinkBudget,
    PowerMap,
    PrecodingScheme,
    group_spectral_efficiency,
    max_served_users,
    mrt_weights,
    normalize_power_maps,
    power_map,
    power_map_to_csv,
    power_map_to_pgm,
    zf_weights,
)
from mamimo.geometry import grid_positions
from mamimo.model import CsiSample, Position3, SampleGrid


def random_channel(rng, m, f):
    return rng.standard_normal((m, f)) + 1j * rng.standard_normal((m, f))


class TestMrtWeights:
    def test_single_antenna_unit_magnitude(self, rng):
        h = random_channel(rng, 1, 5)
        w = mrt_weights(h).w[0]
        assert np.allclose(np.abs(w), 1.0, atol=1e-12)
        assert np.allclose(w, np.conj(h) / np.abs(h), atol=1e-12)

    def test_matched_amplitude_equals_channel_norm(self, rng):
        h = random_channel(rng, 64, 100)
        w = mrt_weights(h).w[0]
        amps = np.einsum("mf,mf->f", h, w)
        norms = np.linalg.norm(h, axis=0)
        assert np.allclose(amps, norms, rtol=1e-12, atol=0)
        assert np.allclose(amps.imag, 0.0, atol=1e-12)

    def test_cauchy_schwarz_bound(self, rng):
        h = random_channel(rng, 64, 1)
        w = mrt_weights(h).w[0]
        for _ in range(100):
            g = random_channel(rng, 64, 1)
            gain = np.abs(np.einsum("mf,mf->f", g, w)) ** 2
            assert gain[0] <= np.linalg.norm(g) ** 2 * (1 + 1e-12)

    def test_zero_column_rejected(self):
        h = np.ones((2, 3), dtype=complex)
        h = h.copy()
        h[:, 1] = 0
        with pytest.raises(ValueError, match="subcarrier 1"):
            mrt_weights(h)

    def test_unit_norm_invariant(self, rng):
        w = mrt_weights(random_channel(rng, 8, 16)).w
        assert np.all(np.abs(np.linalg.norm(w, axis=1) - 1) <= 1e-12)


def zf_two_user_oracle(H):
    """Hand-coded zero-forcing for K=2 via the closed-form 2x2 inverse."""
    h0, h1 = H[0], H[1]
    g00 = np.sum(h0 * np.conj(h0))
    g01 = np.sum(h0 * np.conj(h1))
    g10 = np.sum(h1 * np.conj(h0))
    g11 = np.sum(h1 * np.conj(h1))
    det = g00 * g11 - g01 * g10
    inv = np.array([[g11, -g01], [-g10, g00]]) / det
    w = np.conj(H).T @ inv  # (M, 2)
    return w / np.linalg.norm(w, axis=0, keepdims=True)


class TestZfWeights:
    def test_single_user_matches_mrt_direction(self, rng):
        h = random_channel(rng, 6, 4)
        w_zf = zf_weights(h[None, :, :]).w[0]
        w_mrt = mrt_weights(h).w[0]
        assert np.allclose(w_zf, w_mrt, atol=1e-12)

    def test_orthogonal_rows_give_conjugate_directions(self):
        H = np.zeros((2, 4, 1), dtype=complex)
        H[0, 0, 0] = 2.0
        H[1, 1, 0] = 1.0 + 1.0j
        w = zf_weights(H).w
        assert abs(np.vdot(w[0, :, 0], np.array([1, 0, 0, 0]))) == pytest.approx(1.0)
        direction = np.conj(H[1, :, 0]) / np.linalg.norm(H[1, :, 0])
        assert abs(np.vdot(w[1, :, 0], direction)) == pytest.approx(1.0)

    def test_against_two_user_inverse_oracle(self, rng):
        H = np.stack([random_channel(rng, 4, 3), random_channel(rng, 4, 3)])
        w = zf_weights(H).w
        for k in range(3):
            expected = zf_two_user_oracle(H[:, :, k])
            got = w[:, :, k].T  # (M, 2)
            assert np.allclose(got, expected, atol=1e-12)
            # nulling at the stated tolerance
            for j in range(2):
                for u in range(2):
                    if j != u:
                        leak = abs(np.sum(H[j, :, k] * w[u, :, k]))
                        assert leak <= 1e-12 * np.linalg.norm(H[j, :, k])

    def test_nulling_tolerance_many_users(self, rng):
        H = np.stack([random_channel(rng, 64, 10) for _ in range(8)])
        w = zf_weights(H).w
        amps = np.einsum("kmf,jmf->kjf", H, w)
        power = np.abs(amps) ** 2
        signal = np.einsum("kkf->kf", power)
        for k in range(8):
            for j in range(8):
                if j != k:
                    assert np.all(power[j, k] / signal[k] <= 1e-20)

    def test_rank_deficient_names_subcarrier(self, rng):
        h = random_channel(rng, 4, 2)
        H = np.stack([h, h])  # duplicated user
        with pytest.raises(ValueError, match="subcarrier 0"):
            zf_weights(H)

    @pytest.mark.parametrize("kappa", [10.0 ** e for e in range(2, 15)])
    def test_ill_conditioned_channel_nulls_or_names_subcarrier(self, kappa):
        # H_f = U diag(1, 1/kappa) V^H: zero-forcing must either null the other
        # user or refuse by name, never return leaky beams or a bare LinAlgError.
        rng = np.random.default_rng(7)
        m, f = 64, 100
        H = np.empty((2, m, f), dtype=complex)
        for i in range(f):
            u, _ = np.linalg.qr(random_channel(rng, 2, 2))
            v, _ = np.linalg.qr(random_channel(rng, m, 2))
            H[:, :, i] = u @ np.diag([1.0, 1.0 / kappa]) @ np.conj(v).T
        try:
            w = zf_weights(H).w
        except ValueError as exc:
            assert "subcarrier" in str(exc)
            return
        power = np.abs(np.einsum("kmf,jmf->kjf", H, w)) ** 2
        assert np.all(power[0, 1] / power[0, 0] <= 1e-8)
        assert np.all(power[1, 0] / power[1, 1] <= 1e-8)

    def test_too_many_users(self, rng):
        H = np.stack([random_channel(rng, 2, 1) for _ in range(3)])
        with pytest.raises(ValueError):
            zf_weights(H)


def received_power(g, h, power):
    """P |g_f^T w_f|^2 per subcarrier at channel g, for MRT weights matched to h."""
    return power * np.abs(np.einsum("mf,mf->f", g, mrt_weights(h).w[0])) ** 2


class TestReceivedPower:
    def test_matched_channel_gets_full_array_gain(self, rng):
        h = random_channel(rng, 16, 8)
        per_sc = received_power(h, h, 2.0)
        expected = 2.0 * np.linalg.norm(h, axis=0) ** 2
        assert np.allclose(per_sc, expected, rtol=1e-12)

    def test_orthogonal_channel_gets_nothing(self):
        h = np.zeros((2, 3), dtype=complex)
        h[0] = 1.0
        g = np.zeros((2, 3), dtype=complex)
        g[1] = 1.0
        assert np.all(received_power(g, h, 1.0) == 0.0)

    def test_two_antenna_hand_case(self):
        h = np.array([[1.0], [1.0j]])
        g = np.array([[2.0], [1.0]])
        # w = conj(h)/sqrt(2); g^T w = (2 - 1j)/sqrt(2); |.|^2 = 5/2
        assert received_power(g, h, 1.0)[0] == pytest.approx(2.5, rel=1e-12)


def make_map_inputs(fast_radio, geometry, target_offset=(130.0, 0.0)):
    grid = SampleGrid(origin=Position3(-125.0, 2000.0, 1000.0),
                      x_extent_mm=250.0, y_extent_mm=250.0, resolution_mm=25.0)
    target_pos = Position3(grid.origin.x + target_offset[0],
                           grid.origin.y + target_offset[1], 1000.0)
    target = los_channel(geometry, target_pos, fast_radio)
    samples = [los_channel(geometry, p, fast_radio) for p in grid_positions(grid)]
    return grid, target, samples


class TestPowerMap:
    def test_self_normalized_peak_is_one(self, fast_radio, ura):
        grid, target, samples = make_map_inputs(fast_radio, ura)
        raw = power_map(grid, samples, target)
        pmap = normalize_power_maps([raw])[0]
        assert pmap.values.max() == pytest.approx(1.0)
        assert np.all(pmap.values >= 0.0)

    def test_argmax_at_nearest_node_ura_near_edge(self, fast_radio, ura):
        # a rectangular panel resolves angle but not range, so the peak sits
        # at the target only when the target is on the grid's nearest row
        grid, target, samples = make_map_inputs(fast_radio, ura, target_offset=(130.0, 0.0))
        pmap = power_map(grid, samples, target)
        iy, ix = pmap.argmax_node()
        assert (iy, ix) == (0, 5)  # x offset 130 -> col 5 at 25 mm
        nearest = pmap.node_position(iy, ix)
        assert target.label.distance_mm(nearest) <= grid.resolution_mm * math.sqrt(2) / 2

    def test_argmax_at_nearest_node_distributed_mid_grid(self, fast_radio):
        # the surrounding octagon focuses in both dimensions: mid-grid works
        from mamimo.geometry import build_topology

        da = build_topology("da")
        grid, target, samples = make_map_inputs(fast_radio, da, target_offset=(130.0, 127.0))
        pmap = power_map(grid, samples, target)
        assert pmap.argmax_node() == (5, 5)

    def test_invariant_to_global_phase_of_target(self, fast_radio, ura):
        grid, target, samples = make_map_inputs(fast_radio, ura)
        rotated = CsiSample(target.h * np.exp(1j * 0.83), label=target.label)
        a = power_map(grid, samples, target)
        b = power_map(grid, samples, rotated)
        assert np.allclose(a.values, b.values, rtol=1e-12)

    def test_invariant_to_common_positive_scaling(self, fast_radio, ura):
        grid, target, samples = make_map_inputs(fast_radio, ura)
        scaled_samples = [CsiSample(s.h * 3.7, label=s.label) for s in samples]
        scaled_target = CsiSample(target.h * 3.7, label=target.label)
        a = normalize_power_maps([power_map(grid, samples, target)])[0]
        b = normalize_power_maps([power_map(grid, scaled_samples, scaled_target)])[0]
        assert np.allclose(a.values, b.values, rtol=1e-12)

    def test_shared_normalization_set(self, fast_radio, ura):
        grid, target, samples = make_map_inputs(fast_radio, ura)
        strong = power_map(grid, samples, target)
        weak = PowerMap(grid, strong.values * 0.25, strong.target)
        norm_strong, norm_weak = normalize_power_maps([strong, weak])
        assert norm_strong.values.max() == pytest.approx(1.0)
        assert norm_weak.values.max() == pytest.approx(0.25)

    def test_sample_count_mismatch(self, fast_radio, ura):
        grid, target, samples = make_map_inputs(fast_radio, ura)
        with pytest.raises(ValueError):
            power_map(grid, samples[:-1], target)

    def test_sample_shape_mismatch(self, fast_radio, ura):
        grid, target, samples = make_map_inputs(fast_radio, ura)
        samples[3] = CsiSample(samples[3].h[:, :-1], label=samples[3].label)
        with pytest.raises(ValueError, match="sample 3 shape"):
            power_map(grid, samples, target)

    def test_pgm_and_csv_export(self, fast_radio, ura, tmp_path):
        grid, target, samples = make_map_inputs(fast_radio, ura)
        pmap = normalize_power_maps([power_map(grid, samples, target)])[0]
        pgm = tmp_path / "map.pgm"
        power_map_to_pgm(pmap, pgm)
        data = pgm.read_bytes()
        header = f"P5\n{grid.nx} {grid.ny}\n65535\n".encode()
        assert data.startswith(header)
        assert len(data) == len(header) + 2 * grid.nx * grid.ny
        gray = np.frombuffer(data[len(header):], dtype=">u2").reshape(grid.ny, grid.nx)
        assert gray.max() == 65535  # the peak node saturates the scale
        csv_path = tmp_path / "map.csv"
        power_map_to_csv(pmap, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x_mm,y_mm,power_db"
        assert len(lines) == 1 + grid.node_count
        for line in lines[1:]:
            x, y, pdb = line.split(",")
            float(x), float(y), float(pdb)  # every field parses as a plain float
        # byte-determinism of both exports
        power_map_to_pgm(pmap, tmp_path / "map2.pgm")
        assert (tmp_path / "map2.pgm").read_bytes() == data


class TestGroupSpectralEfficiency:
    def test_unit_sinr_gives_one_bit(self):
        h = np.zeros((1, 2, 3), dtype=complex)
        h[0, 0, :] = 1.0
        se, total = group_spectral_efficiency(h, PrecodingScheme.MRT, LinkBudget(1.0, 1.0))
        assert se[0] == pytest.approx(1.0, rel=1e-12)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_zf_interference_is_negligible(self, rng):
        H = np.stack([random_channel(rng, 16, 6) for _ in range(4)])
        w = zf_weights(H).w
        amps = np.einsum("kmf,jmf->kjf", H, w)
        power = np.abs(amps) ** 2
        signal = np.einsum("kkf->kf", power)
        interference = power.sum(axis=1) - signal
        assert np.all(interference / signal < 1e-10)

    def test_se_vanishes_with_noise(self, rng):
        H = random_channel(rng, 8, 4)[None, :, :]
        last = math.inf
        for noise in (1e-3, 1e0, 1e3, 1e6, 1e9):
            _, total = group_spectral_efficiency(H, PrecodingScheme.MRT, LinkBudget(1.0, noise))
            assert total < last
            last = total
        assert last < 1e-6

    def test_zf_sum_se_nondecreasing_in_power(self, rng):
        H = np.stack([random_channel(rng, 8, 4) for _ in range(3)])
        totals = [group_spectral_efficiency(H, PrecodingScheme.ZF, LinkBudget(p, 1e-2))[1]
                  for p in (0.1, 0.5, 1.0, 5.0, 25.0)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))


class TestMaxServedUsers:
    def test_unreachable_threshold_serves_nobody(self, rng):
        pool = [CsiSample(random_channel(rng, 4, 2) * 1e-6) for _ in range(5)]
        count = max_served_users(pool, se_threshold=1e9, trials=3, seed=0,
                                 budget=LinkBudget(1.0, 1.0))
        assert count == 0

    def test_zero_noise_limited_by_antennas(self, rng):
        pool = [CsiSample(random_channel(rng, 4, 2)) for _ in range(6)]
        count = max_served_users(pool, se_threshold=1.0, trials=3, seed=0,
                                 budget=LinkBudget(1.0, 0.0))
        assert count == 4  # min(pool size, antennas)

    def test_zero_noise_limited_by_pool(self, rng):
        pool = [CsiSample(random_channel(rng, 8, 2)) for _ in range(3)]
        count = max_served_users(pool, se_threshold=1.0, trials=3, seed=0,
                                 budget=LinkBudget(1.0, 0.0))
        assert count == 3

    def test_deterministic_for_fixed_seed(self, rng):
        pool = [CsiSample(random_channel(rng, 8, 2)) for _ in range(10)]
        budget = LinkBudget(1.0, 1e-1)
        a = max_served_users(pool, trials=5, seed=11, budget=budget)
        b = max_served_users(pool, trials=5, seed=11, budget=budget)
        assert a == b

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            max_served_users([], se_threshold=1.0)

    def test_threshold_must_be_positive(self, rng):
        pool = [CsiSample(random_channel(rng, 2, 2))]
        with pytest.raises(ValueError):
            max_served_users(pool, se_threshold=0.0)
