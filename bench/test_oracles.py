"""Each benchmark check passes on good output and fails on corrupted output.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from mamimo import channel, dataio, dsp, geometry, localization  # noqa: E402
from mamimo.model import Position3, RadioConfig, SampleGrid  # noqa: E402


@pytest.fixture(scope="module")
def ura():
    return geometry.build_topology("ura")


def test_closed_form_channel_matches_program(ura):
    scatterers = [((-2000.0, 2500.0, 800.0), 0.4 - 0.1j), ((1500.0, 4500.0, 1200.0), 0.3j)]
    users = [(120.0, 1800.0, 1000.0), (-700.0, 3100.0, 1000.0)]
    ref = oracles.free_space_channel(oracles.ura_elements(), users, 5, scatterers)
    np.testing.assert_array_equal(oracles.ura_elements(), ura.positions_mm)
    for user, expected in zip(users, ref):
        got = channel.multipath_channel(
            ura, Position3(*user), RadioConfig(), channel.ChannelConfig(),
            [channel.Scatterer(Position3(*p), g) for p, g in scatterers], user_id=5).h
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_sample_under_its_neighbours_label_fails_the_snr_check(ura, tmp_path):
    radio = RadioConfig()
    # neighbours along y: 5 mm in range turns every phase by about 0.27 rad,
    # while 5 mm across the panel's axis hides in 20 dB noise
    grid = SampleGrid(origin=Position3(-5.0, 1500.0, 1000.0), x_extent_mm=0.0,
                      y_extent_mm=5.0, resolution_mm=5.0)
    nodes = geometry.grid_positions(grid)
    clean = oracles.free_space_channel(oracles.ura_elements(),
                                       [(p.x, p.y, p.z) for p in nodes], 0)
    for i, p in enumerate(nodes):
        noisy = channel.add_noise(channel.los_channel(ura, p, radio), channel.NoiseSpec(20.0, i))
        dataio.write_sample(tmp_path / f"{i:06d}.bin", noisy)
    stored = [oracles.read_csi1(tmp_path / f"{i:06d}.bin") for i in range(2)]
    assert oracles.check_sample_snr(stored[0], clean[0], 20.0)
    assert oracles.check_sample_snr(stored[1], clean[1], 20.0)
    # the files swapped: each sample now sits under its neighbour's label
    assert not oracles.check_sample_snr(stored[1], clean[0], 20.0)
    assert not oracles.check_sample_snr(stored[0], clean[1], 20.0)


def test_perturbed_estimate_fails_the_knn_check(ura):
    radio = RadioConfig()
    grid = SampleGrid(origin=Position3(-47.5, 1500.0, 1000.0), x_extent_mm=50.0,
                      y_extent_mm=50.0, resolution_mm=5.0)
    samples = [channel.los_channel(ura, p, radio) for p in geometry.grid_positions(grid)]
    db = localization.build_fingerprints(samples)
    labels = np.array([(s.label.x, s.label.y, s.label.z) for s in samples])
    query = channel.add_noise(channel.los_channel(ura, Position3(-21.3, 1522.9, 1000.0), radio),
                              channel.NoiseSpec(20.0, 7))
    dist = oracles.direct_distances([oracles.features(np.stack([s.h for s in samples]))],
                                    oracles.features(query.h))[0]
    expected = oracles.knn_direct(dist, labels, 4)
    est = localization.knn_locate(db, query, k=4)
    got = np.array([est.x, est.y, est.z])
    assert oracles.check_estimate(got, expected)
    assert not oracles.check_estimate(got + np.array([1e-6, 0.0, 0.0]), expected)

    row = 37
    loo = localization.leave_one_out_report(db, k=4).errors_mm[row]
    all_dist = oracles.direct_distances([oracles.features(np.stack([s.h for s in samples]))],
                                        oracles.features(samples[row].h))[0]
    oracle_err = np.linalg.norm(oracles.knn_direct(all_dist, labels, 4, exclude=row) - labels[row])
    assert abs(loo - oracle_err) <= oracles.KNN_ATOL_MM


def test_zf_beam_with_leakage_fails_the_group_check(ura):
    radio = RadioConfig()
    budget = dsp.LinkBudget(total_tx_power=1.0, noise_power=1e-5)
    users = [Position3(-900.0, 1700.0, 1000.0), Position3(300.0, 2600.0, 1000.0),
             Position3(1000.0, 3300.0, 1000.0)]
    H = np.stack([channel.los_channel(ura, p, radio, user_id=i).h for i, p in enumerate(users)])
    W = dsp.zf_weights(H).w
    se, _ = dsp.group_spectral_efficiency(H, dsp.PrecodingScheme.ZF, budget)
    assert oracles.check_zf_group(H, W, se, 1.0, 1e-5)

    leaky = W.copy()
    leaky[0] = leaky[0] + 1e-3 * W[1]
    leaky[0] /= np.linalg.norm(leaky[0], axis=0, keepdims=True)
    assert oracles.zf_leakage(H, leaky) > oracles.ZF_LEAKAGE_BOUND
    assert not oracles.check_zf_group(H, leaky, se, 1.0, 1e-5)
    # the SE a leaky beam really gives no longer matches the oracle either
    leaky_se = oracles.group_se(H, leaky, 1.0, 1e-5)
    assert not oracles.check_zf_group(H, W, leaky_se, 1.0, 1e-5)
