"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figures (run with ``pytest -v -s`` to see them).

Every tolerance is fixed here; regression-locked bounds carry their
first-run calibration values as constants.
"""

import math
import time

import numpy as np
import pytest

from mamimo.campaign import (
    NAK,
    TriggerResult,
    default_campaign_plan,
    plan_full_campaign,
    simulate_campaign,
    trigger_capture,
    CaptureService,
)
from mamimo.channel import los_channel
from mamimo.cli import main as cli_main
from mamimo.dataio import load_index, read_sample, write_sample
from mamimo.dsp import (
    LinkBudget,
    mrt_weights,
    normalize_power_maps,
    power_map,
    max_served_users,
    zf_weights,
)
from mamimo.geometry import build_topology, grid_positions, roi_center
from mamimo.localization import (
    FeatureConfig,
    build_fingerprints,
    knn_locate,
    leave_one_out_report,
)
from mamimo.model import CsiSample, Position3, RadioConfig, SampleGrid
from mamimo.scheduling import (
    PoolUser,
    UserPool,
    def_schedule,
    min_intra_group_distance,
    random_schedule,
    sus_select,
)

from conftest import random_csi_matrix
from test_scheduling import sus_replay

# first-run calibration of criterion 4's smoothness bound (max adjacent-node
# dB jump on the reference map below was 21.707 dB), regression-locked +10%
MAP_JUMP_FIRST_RUN_DB = 21.707
MAP_JUMP_BOUND_DB = MAP_JUMP_FIRST_RUN_DB * 1.10


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:02d} PASS - {message}")


def test_criterion_01_campaign_arithmetic():
    t0 = time.monotonic()
    plan = default_campaign_plan()
    per_positioner = plan.waypoints_per_positioner
    total = plan.total_waypoints
    hours = plan.duration_estimate_s / 3600.0
    elapsed = time.monotonic() - t0
    assert per_positioner == [63001, 63001, 63001, 63001]
    assert total == 252004
    assert plan.duration_estimate_s == pytest.approx(63001 * 0.7)
    assert abs(hours - 12.5) / 12.5 <= 0.05
    assert elapsed < 1.0
    report(1, f"63,001 waypoints x 4 = {total}, estimate {hours:.2f} h "
              f"(within 5% of 12.5 h), built in {elapsed:.2f} s")


def test_criterion_02_mrt_array_gain():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    power = 1.0  # P of P |h_f^T w_f|^2
    worst = 0.0
    for _ in range(1000):
        h = rng.standard_normal((64, 100)) + 1j * rng.standard_normal((64, 100))
        per_sc = power * np.abs(np.einsum("mf,mf->f", h, mrt_weights(h[None]).w[0])) ** 2
        expected = np.linalg.norm(h, axis=0) ** 2
        worst = max(worst, float(np.max(np.abs(per_sc - expected) / expected)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(2, f"1000 random 64x100 channels, worst relative error {worst:.2e} "
              f"(<= 1e-12) in {elapsed:.1f} s")


def test_criterion_03_zf_nulling():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    H = rng.standard_normal((8, 64, 100)) + 1j * rng.standard_normal((8, 64, 100))
    conds = np.linalg.cond(np.moveaxis(H, 2, 0))
    assert np.all(conds < 1e6)  # stated precondition
    w = zf_weights(H).w
    amps = np.einsum("kmf,jmf->kjf", H, w)
    power = np.abs(amps) ** 2
    signal = np.einsum("kkf->kf", power)
    ratios = power / signal[:, None, :]
    off = ratios[~np.eye(8, dtype=bool)]
    worst = float(off.max())
    elapsed = time.monotonic() - t0
    assert worst <= 1e-20
    assert elapsed < 10.0
    report(3, f"K=8, M=64, 100 subcarriers (cond < 1e6): worst cross-user "
              f"power ratio {worst:.2e} (<= 1e-20) in {elapsed:.1f} s")


def test_criterion_04_power_map_qualitative():
    t0 = time.monotonic()
    radio = RadioConfig()
    ura = build_topology("ura")
    grid = SampleGrid(origin=Position3(-625.0, 1000.0, 1000.0),
                      x_extent_mm=1250.0, y_extent_mm=1250.0, resolution_mm=25.0)
    # a rectangular panel steers in angle but cannot resolve range, so the
    # peak matches the target only on the grid's nearest row; x off-node
    target_pos = Position3(-8.0, 1000.0, 1000.0)
    target = los_channel(ura, target_pos, radio)
    samples = (los_channel(ura, p, radio) for p in grid_positions(grid))
    pmap = normalize_power_maps([power_map(grid, samples, target)])[0]
    assert pmap.values.shape == (51, 51)
    iy, ix = pmap.argmax_node()
    expected = (0, round((target_pos.x - grid.origin.x) / grid.resolution_mm))
    assert (iy, ix) == expected
    nearest = pmap.node_position(iy, ix)
    assert target_pos.distance_mm(nearest) <= grid.resolution_mm * math.sqrt(2) / 2
    db = 10.0 * np.log10(pmap.values)
    jump = max(float(np.abs(np.diff(db, axis=0)).max()),
               float(np.abs(np.diff(db, axis=1)).max()))
    elapsed = time.monotonic() - t0
    assert jump <= MAP_JUMP_BOUND_DB
    assert elapsed < 60.0
    report(4, f"51x51 map: argmax at target's nearest node {expected}, max "
              f"adjacent jump {jump:.2f} dB (locked bound {MAP_JUMP_BOUND_DB:.2f}) "
              f"in {elapsed:.1f} s")


def _user_pool(topology_name: str, n_users: int, seed: int):
    radio = RadioConfig()
    topo = build_topology(topology_name)
    rng = np.random.default_rng(seed)
    center = roi_center()
    pool = []
    for i in range(n_users):
        pos = Position3(center.x + rng.uniform(-1252.5, 1252.5),
                        center.y + rng.uniform(-1252.5, 1252.5), 1000.0)
        pool.append(los_channel(topo, pos, radio, user_id=i % 12))
    return pool


def test_criterion_05_served_users_directional():
    t0 = time.monotonic()
    budget = LinkBudget(total_tx_power=1.0, noise_power=1e-5)
    counts = {}
    for name in ("ura", "da"):
        pool = _user_pool(name, 40, seed=0)
        counts[name] = max_served_users(pool, se_threshold=1.0, trials=5,
                                        seed=0, budget=budget)
    elapsed = time.monotonic() - t0
    # directional only: the distributed deployment serves more users; the
    # measured-data absolute values (25/38/43) are intentionally not targets
    assert counts["da"] > counts["ura"]
    assert elapsed < 120.0
    report(5, f"max served users: DA {counts['da']} > URA {counts['ura']} "
              f"(tau = 1 bit/s/Hz, fixed seed) in {elapsed:.1f} s")


def test_criterion_06_scheduling_properties():
    t0 = time.monotonic()
    dummy = CsiSample(np.ones((1, 1)))
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        users = [PoolUser(i, dummy, Position3(rng.uniform(0, 2500),
                                              rng.uniform(0, 2500), 1000.0))
                 for i in range(24)]
        pool = UserPool(users)
        d_def = min_intra_group_distance(def_schedule(pool, 4), pool)
        d_rand = min_intra_group_distance(random_schedule(pool, 4, seed=seed), pool)
        wins += d_def >= d_rand
    assert wins >= 95

    mismatches = 0
    for seed in range(10):
        rng = np.random.default_rng(10_000 + seed)
        channels = [rng.standard_normal(16) + 1j * rng.standard_normal(16)
                    for _ in range(8)]
        pool = UserPool([PoolUser(i, CsiSample(c[None, :]), Position3(0, 0, 0))
                         for i, c in enumerate(channels)])
        for alpha in (0.25, 0.5, 0.9):
            if sus_select(pool, alpha=alpha) != sus_replay(channels, alpha, 8):
                mismatches += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 120.0
    report(6, f"distance-spread grouping beat random grouping in {wins}/100 "
              f"pools (>= 95); greedy selection matched brute-force replay on "
              f"all K=8 pools, in {elapsed:.1f} s")


def test_criterion_07_localization_bounds():
    t0 = time.monotonic()
    radio = RadioConfig()
    ura = build_topology("ura")
    grid = SampleGrid(origin=Position3(-50.0, 1500.0, 1000.0),
                      x_extent_mm=100.0, y_extent_mm=100.0, resolution_mm=5.0)
    samples = [los_channel(ura, p, radio, sample_id=f"{i:06d}")
               for i, p in enumerate(grid_positions(grid))]
    assert len(samples) == 21 * 21
    db = build_fingerprints(samples, FeatureConfig(), topology="ura")
    loo = leave_one_out_report(db, k=4)
    diagonal = grid.resolution_mm * math.sqrt(2)
    exact = knn_locate(db, samples[220], k=1).distance_mm(samples[220].label)
    elapsed = time.monotonic() - t0
    assert loo.mean_mm <= 7.08
    assert exact == 0.0
    # cm-level CNN results on measured data are intentionally not targets here
    assert elapsed < 120.0
    report(7, f"21x21 noiseless 5 mm grid: leave-one-out mean error "
              f"{loo.mean_mm:.2f} mm (<= {diagonal:.2f} mm diagonal, bound 7.08), "
              f"exact-query error {exact} mm, in {elapsed:.1f} s")


def test_criterion_08_campaign_end_to_end(tmp_path):
    t0 = time.monotonic()
    radio = RadioConfig()
    ura = build_topology("ura")
    grid = SampleGrid(origin=Position3(-10.0, 1500.0, 1000.0),
                      x_extent_mm=20.0, y_extent_mm=20.0, resolution_mm=5.0)
    plan = plan_full_campaign([grid])
    out = tmp_path / "run"
    index = simulate_campaign(plan, ura, radio, out, topology="ura")
    assert len(index) == 25
    files = sorted(out.glob("*.bin"))
    assert len(files) == 25
    assert all(p.stat().st_size == 51212 for p in files)
    for path in files:
        read_sample(path)  # bit-valid: header and size check out
    loaded = load_index(out / "index.csv")
    assert [r.label for r in loaded.records] == list(plan.waypoints[0])

    # invalid payload: NAK and no file
    sample = los_channel(ura, Position3(0.0, 1500.0, 1000.0), radio)
    nak_dir = tmp_path / "nak"
    nak_dir.mkdir()
    import socket

    with CaptureService(nak_dir, lambda sample_id: sample) as service:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            sock.sendall(b"bad/..")
            assert sock.recv(1) == NAK
        assert trigger_capture(service.address, "ok0042") == TriggerResult.ACK
    assert sorted(p.name for p in nak_dir.iterdir()) == ["ok0042.bin"]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(8, f"5x5 campaign: 25 files x 51,212 bytes, labels exact, every "
              f"trigger ACKed; invalid payload NAKed with no file, in {elapsed:.1f} s")


def test_criterion_09_roundtrip_thousand_samples(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    path = tmp_path / "sample.bin"
    for i in range(1000):
        m = int(rng.integers(1, 12))
        f = int(rng.integers(1, 16))
        sample = CsiSample(random_csi_matrix(rng, m, f))
        write_sample(path, sample)
        loaded = read_sample(path)
        assert np.array_equal(loaded.h, sample.h)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(9, f"1000 random samples survived write -> read bit-exactly "
              f"in {elapsed:.1f} s")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    byte_for_byte = True
    runs = [
        ["synth", "--extent-mm", "20", "--resolution-mm", "10",
         "--snr-db", "18", "--seed", "77"],
        ["campaign", "--extent-mm", "10", "--resolution-mm", "5",
         "--positioners", "2", "--snr-db", "25", "--seed", "13"],
        ["powermap", "--topology", "ula", "--target", "40,1500",
         "--extent-mm", "100", "--resolution-mm", "25", "--seed", "5"],
        ["locate", "--extent-mm", "20", "--resolution-mm", "10",
         "--query-snr-db", "20", "--seed", "21"],
        ["locate", "--extent-mm", "20", "--resolution-mm", "10", "--loo", "--seed", "21"],
    ]
    for i, args in enumerate(runs):
        outputs = []
        for attempt in ("a", "b"):
            target = tmp_path / f"run{i}{attempt}"
            if args[0] in ("synth", "campaign"):
                full = args + ["--out", str(target)]
            elif args[0] == "powermap":
                target.mkdir()
                full = args + ["--out", str(target / "map.pgm")]
            else:
                target.mkdir()
                full = args + ["--out", str(target / "report.csv")]
            assert cli_main(full) == 0
            if target.is_dir():
                outputs.append({p.name: p.read_bytes() for p in sorted(target.iterdir())})
            else:
                outputs.append(target.read_bytes())
        byte_for_byte &= outputs[0] == outputs[1]
        assert outputs[0] == outputs[1], f"{args[0]} output differed between runs"
    elapsed = time.monotonic() - t0
    assert byte_for_byte
    assert elapsed < 60.0
    report(10, f"synth, campaign, powermap and locate reruns were byte-identical "
               f"in {elapsed:.1f} s")
