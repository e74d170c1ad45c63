"""Noise streams are independent across seeds, producers and samples.

Each test records the generator state of every noise draw (the first raw
outputs of the generator ``add_noise`` seeds) and asserts that two
producers which must be independent never draw from the same state.
"""

import numpy as np
import pytest

from mamimo import campaign
from mamimo import channel as chan
from mamimo.cli import main
from mamimo.model import Position3, RadioConfig, SampleGrid

from conftest import small_ura


def _state(seed):
    return tuple(np.random.default_rng(seed).bit_generator.random_raw(2).tolist())


@pytest.fixture()
def noise_states(monkeypatch):
    """List that receives one generator-state fingerprint per noisy draw."""
    states = []
    real = chan.add_noise

    def spy(csi, spec):
        if spec.snr_db != float("inf"):
            states.append(_state(spec.seed))
        return real(csi, spec)

    monkeypatch.setattr(chan, "add_noise", spy)
    return states


def _drain(states):
    taken = list(states)
    states.clear()
    return taken


GRID = ["--extent-mm", "20", "--resolution-mm", "10"]  # 9 nodes


def _campaign(tmp_path, seed, **kwargs):
    grid = SampleGrid(origin=Position3(0.0, 1500.0, 1000.0),
                      x_extent_mm=10.0, y_extent_mm=0.0, resolution_mm=5.0)
    plan = campaign.plan_full_campaign([grid])
    campaign.simulate_campaign(plan, small_ura(),
                               RadioConfig(total_subcarriers=48, pilot_count=4),
                               tmp_path / f"run{seed}", snr_db=20.0, seed=seed, **kwargs)


@pytest.mark.parametrize("producer", ["synth", "campaign"])
def test_adjacent_seeds_share_no_sample_noise(tmp_path, noise_states, producer):
    runs = []
    for seed in (0, 1):
        if producer == "synth":
            assert main(["synth", *GRID, "--snr-db", "20", "--seed", str(seed),
                         "--out", str(tmp_path / f"ds{seed}")]) == 0
        else:
            _campaign(tmp_path, seed)
        runs.append(set(_drain(noise_states)))
    assert runs[0] and runs[1]
    assert not runs[0] & runs[1]


def test_powermap_target_noise_differs_from_grid_noise(tmp_path, noise_states):
    assert main(["powermap", "--target", "0,1510", "--extent-mm", "50",
                 "--resolution-mm", "25", "--snr-db", "20", "--seed", "5",
                 "--out", str(tmp_path / "map.pgm")]) == 0
    assert len(noise_states) == 10  # 9 nodes and the target
    assert len(set(noise_states)) == len(noise_states)


def test_positioner_jitter_shares_no_state_with_capture_noise(tmp_path, monkeypatch,
                                                              noise_states):
    jitter_states = []

    class RecordingPositioner(campaign.VirtualPositioner):
        def __init__(self, *args, seed=0, **kwargs):
            super().__init__(*args, seed=seed, **kwargs)
            jitter_states.append(_state(seed))

    monkeypatch.setattr(campaign, "VirtualPositioner", RecordingPositioner)
    _campaign(tmp_path, 0, positioner_error_mm=0.05)
    _campaign(tmp_path, 1000)
    assert jitter_states and noise_states
    assert not set(jitter_states) & set(noise_states)


def test_schedule_grouping_shares_no_state_with_user_positions(tmp_path, monkeypatch):
    states = []
    real = np.random.default_rng

    def spy(seed=None):
        states.append(tuple(real(seed).bit_generator.random_raw(2).tolist()))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    assert main(["schedule", "--users", "8", "--seed", "3",
                 "--out", str(tmp_path / "schedule.csv")]) == 0
    assert len(states) == 2  # user positions, then the random grouping
    assert len(set(states)) == 2


def test_locate_queries_share_no_noise_with_any_dataset(tmp_path, noise_states):
    assert main(["locate", *GRID, "--snr-db", "20", "--query-snr-db", "20", "--seed", "0",
                 "--out", str(tmp_path / "report.csv")]) == 0
    locate = _drain(noise_states)  # 9 data-set draws, then 9 query draws
    assert main(["synth", *GRID, "--snr-db", "20", "--seed", "777000",
                 "--out", str(tmp_path / "ds")]) == 0
    assert len(set(locate)) == 18 and noise_states
    assert not set(locate[9:]) & set(noise_states)
