import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo import localization
from mamimo.channel import NoiseSpec, add_noise, los_channel
from mamimo.dataio import BadMagicError, DatasetIOError, TruncatedFileError
from mamimo.geometry import build_topology, grid_positions
from mamimo.localization import (
    FeatureConfig,
    FingerprintDb,
    LocalizationReport,
    build_fingerprints,
    evaluate_localizer,
    extract_features,
    knn_locate,
    leave_one_out_report,
    load_fingerprints,
    report_to_csv,
    save_fingerprints,
)
from mamimo.model import CsiSample, Position3, SampleGrid

# first-run regression baseline for the noisy distributed-array scenario below
DA_20DB_MEAN_BASELINE_MM = 0.8785874281986699


class TestExtractFeatures:
    def test_raw_mode_unit_norm(self, rng):
        h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        f = extract_features(CsiSample(h))
        assert f.shape == (2 * 4 * 6,)
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_raw_mode_scale_invariant(self, rng):
        h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        a = extract_features(CsiSample(h))
        b = extract_features(CsiSample(5.0 * h))
        assert np.allclose(a, b, atol=1e-15)

    def test_zero_csi_rejected(self):
        with pytest.raises(ValueError):
            extract_features(CsiSample(np.zeros((2, 2))))

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance_property(self, scale):
        rng = np.random.default_rng(99)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert np.allclose(extract_features(CsiSample(h)),
                           extract_features(CsiSample(scale * h)), atol=1e-12)


def grid_samples(geometry, radio, grid):
    return [los_channel(geometry, p, radio, sample_id=f"{i:06d}")
            for i, p in enumerate(grid_positions(grid))]


class TestBuildFingerprints:
    def test_counts_and_order(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=20)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(samples, topology="ura")
        assert len(db) == 9
        assert db.topology == "ura"
        assert np.array_equal(db.labels_mm[0], samples[0].label.as_array())

    def test_empty_dataset(self):
        db = build_fingerprints([])
        assert len(db) == 0

    def test_unlabelled_sample_rejected(self):
        with pytest.raises(ValueError):
            build_fingerprints([CsiSample(np.ones((1, 1)))])

    def test_duplicate_positions_kept(self, fast_radio, ura_small):
        pos = Position3(0, 1500, 1000)
        s = los_channel(ura_small, pos, fast_radio)
        db = build_fingerprints([s, s])
        assert len(db) == 2

    def test_db_adopts_and_locks_float64_arrays(self):
        features, labels = np.zeros((2, 3)), np.zeros((2, 3))
        db = FingerprintDb(features, labels, FeatureConfig())
        assert db.features is features and db.labels_mm is labels
        assert not features.flags.writeable and not labels.flags.writeable

    def test_build_peak_memory_is_about_one_feature_matrix(self, rng):
        # the streamed matrix alone, which FingerprintDb adopts; a copy of it or a
        # list of rows beside it would double the peak
        h = rng.standard_normal((64, 100)) + 1j * rng.standard_normal((64, 100))
        samples = (CsiSample(h, label=Position3(float(i), 0.0, 0.0)) for i in range(441))
        tracemalloc.start()
        try:
            db = build_fingerprints(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert db.features.shape == (441, 12_800)
        assert peak <= 1.2 * db.features.nbytes


class TestKnnLocate:
    def test_row_norms_cached_and_locked(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=10)
        db = build_fingerprints(grid_samples(ura_small, fast_radio, grid))
        x = db.features
        assert db.sqnorms.tobytes() == np.einsum("nd,nd->n", x, x).tobytes()
        with pytest.raises(ValueError):
            db.sqnorms[0] = 0.0

    def test_exact_query_returns_stored_label(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=10)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(samples)
        est = knn_locate(db, samples[7], k=1)
        assert est.distance_mm(samples[7].label) == 0.0

    def test_two_equidistant_uniform_midpoint(self):
        db = build_fingerprints([
            CsiSample(np.array([[1.0 + 0j, 0.0]]), label=Position3(0, 0, 0)),
            CsiSample(np.array([[0.0, 1.0 + 0j]]), label=Position3(10, 0, 0)),
        ])
        query = CsiSample(np.array([[1.0 + 0j, 1.0 + 0j]]))
        est = knn_locate(db, query, k=2)
        assert est == Position3(5.0, 0.0, 0.0)

    def test_ties_resolved_by_database_order(self):
        # two identical fingerprints with different labels: k=1 takes the first
        h = np.array([[1.0 + 0j, 2.0 + 0j]])
        db = build_fingerprints([
            CsiSample(h, label=Position3(1, 1, 1)),
            CsiSample(h, label=Position3(9, 9, 9)),
        ])
        est = knn_locate(db, CsiSample(h), k=1)
        assert est == Position3(1, 1, 1)

    def test_k_validation(self, fast_radio, ura_small):
        s = los_channel(ura_small, Position3(0, 1500, 1000), fast_radio)
        db = build_fingerprints([s])
        with pytest.raises(ValueError):
            knn_locate(db, s, k=0)
        with pytest.raises(ValueError):
            knn_locate(db, s, k=2)

    def test_empty_db_rejected(self, fast_radio, ura_small):
        s = los_channel(ura_small, Position3(0, 1500, 1000), fast_radio)
        with pytest.raises(ValueError):
            knn_locate(build_fingerprints([]), s, k=1)


class TestEvaluateAndLeaveOneOut:
    def test_training_points_have_zero_error(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=20)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(samples)
        report = evaluate_localizer(db, samples, k=1)
        assert report.mean_mm == 0.0
        assert report.median_mm == 0.0

    def test_loo_matches_per_query_oracle(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-25, 1500, 1000), x_extent_mm=50,
                          y_extent_mm=50, resolution_mm=10)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(samples)
        report = leave_one_out_report(db, k=4)
        for i in (0, 9, 23, 35):
            keep = [j for j in range(len(db)) if j != i]
            reduced = FingerprintDb(db.features[keep], db.labels_mm[keep], db.config)
            est = knn_locate(reduced, samples[i], k=4)
            assert est.distance_mm(samples[i].label) == pytest.approx(report.errors_mm[i], abs=1e-9)

    def test_loo_interior_errors_within_one_grid_step_diagonal(self, radio, ura):
        # noiseless 5 mm patch: interior estimates stay within one diagonal;
        # perimeter nodes extrapolate and may exceed it
        grid = SampleGrid(origin=Position3(-25, 1500, 1000), x_extent_mm=50,
                          y_extent_mm=50, resolution_mm=5)
        samples = grid_samples(ura, radio, grid)
        db = build_fingerprints(samples)
        report = leave_one_out_report(db, k=4)
        diagonal = 5 * math.sqrt(2)
        errs = report.errors_mm.reshape(grid.ny, grid.nx)
        assert np.all(errs[1:-1, 1:-1] <= diagonal)
        assert report.mean_mm <= diagonal

    def test_da_noisy_regression_baseline(self, radio):
        da = build_topology("da")
        grid = SampleGrid(origin=Position3(-50.0, 2000.0, 1000.0),
                          x_extent_mm=100.0, y_extent_mm=100.0, resolution_mm=10.0)
        train = grid_samples(da, radio, grid)
        db = build_fingerprints(train, topology="da")
        queries = [add_noise(s, NoiseSpec(20.0, seed=4242 + i)) for i, s in enumerate(train)]
        report = evaluate_localizer(db, queries, k=5)
        assert report.mean_mm == pytest.approx(DA_20DB_MEAN_BASELINE_MM, rel=0.10)

    def test_streamed_queries_peak_memory_is_about_one_feature_matrix(self, rng):
        # the streamed test features alone, which FingerprintDb adopts; the samples
        # themselves are as large again and must not stay alive
        def sample(i):
            h = rng.standard_normal((64, 100)) + 1j * rng.standard_normal((64, 100))
            return CsiSample(h, label=Position3(float(i), 0.0, 0.0), sample_id=f"{i:06d}")

        db = build_fingerprints(sample(i) for i in range(50))
        queries = (sample(i) for i in range(441))
        tracemalloc.start()
        try:
            report = evaluate_localizer(db, queries, k=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.sample_ids == tuple(f"{i:06d}" for i in range(441))
        assert peak <= 1.2 * 441 * 12_800 * 8

    def test_empty_test_set_rejected(self, fast_radio, ura_small):
        s = los_channel(ura_small, Position3(0, 1500, 1000), fast_radio)
        db = build_fingerprints([s])
        with pytest.raises(ValueError):
            evaluate_localizer(db, [], k=1)

    def test_report_csv(self, tmp_path):
        report = LocalizationReport.from_errors([1.5, 0.0, 3.25], ["aaaaaa", "bbbbbb", "cccccc"])
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,err_mm"
        assert lines[1] == "aaaaaa,1.5"
        assert len(lines) == 4


def near_duplicate_samples(rng, n_far=5):
    """A CSI h and two near-duplicates h + 3e-9 d1 and h + 1e-9 d2, whose
    squared feature distances (~1e-19) sit far below the rounding of the
    expanded form, followed by ``n_far`` unrelated samples."""
    h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    d1, d2 = (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)) for _ in range(2))
    hs = [h, h + 3e-9 * d1, h + 1e-9 * d2]
    hs += [rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)) for _ in range(n_far)]
    return [CsiSample(m, label=Position3(10.0 * i, 7.0 * (i % 3), 1000.0), sample_id=f"{i:06d}")
            for i, m in enumerate(hs)]


def direct_estimate(db, query, k):
    dists = np.linalg.norm(db.features - extract_features(query), axis=1)
    nearest = np.argsort(dists, kind="stable")[:k]
    w = 1.0 / (dists[nearest] + 1e-12)
    return (db.labels_mm[nearest] * w[:, None]).sum(axis=0) / w.sum()


def direct_nearest(x, q, k):
    """Indices and distances of the k nearest rows of ``x`` to each query row by a
    direct norm over all rows, stably sorted; ``q=None`` leaves each row out of
    its own list."""
    idx, dist = [], []
    for i, row in enumerate(x if q is None else q):
        d = np.linalg.norm(x - row, axis=1)
        if q is None:
            d[i] = np.inf
        order = np.argsort(d, kind="stable")[:k]
        idx.append(order)
        dist.append(d[order])
    return np.array(idx), np.array(dist)


def float32_hard_features(case, radio, geometry):
    """Feature matrices on which a float32 Gram alone misranks neighbours."""
    rng = np.random.default_rng(21)
    base = rng.standard_normal((5, 24))
    near = [base + scale * rng.standard_normal(base.shape) for scale in (1e-9, 3e-9)]
    rows = np.concatenate([base, *near, base[:3]])  # the last three tie exactly
    rows = rows[rng.permutation(len(rows))]
    if case == "near_and_exact_duplicates":
        return rows
    if case in ("scaled_2^100", "scaled_2^-100"):
        return rows * 2.0 ** (100 if case == "scaled_2^100" else -100)
    grid = SampleGrid(origin=Position3(-5, 1500, 1000), x_extent_mm=10,
                      y_extent_mm=10, resolution_mm=1)  # 1 mm LoS grid
    return build_fingerprints(grid_samples(geometry, radio, grid)).features


class TestNeighbourKernel:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("case", ["near_and_exact_duplicates", "scaled_2^100",
                                      "scaled_2^-100", "los_grid_1mm"])
    def test_float32_screen_matches_direct_argsort_bit_for_bit(self, case, k, fast_radio, ura):
        x = float32_hard_features(case, fast_radio, ura)
        db = FingerprintDb(x, np.zeros((len(x), 3)), FeatureConfig())
        q = x[::3] + 1e-10 * np.abs(x).max() * np.random.default_rng(4).standard_normal(x[::3].shape)
        for queries in (None, q):
            idx, dist = localization._nearest(db, queries, k)
            expected_idx, expected_dist = direct_nearest(x, queries, k)
            assert np.array_equal(idx, expected_idx)
            assert np.array_equal(dist, expected_dist)

    def test_squared_norm_overflow_rejected(self):
        x = np.random.default_rng(3).standard_normal((6, 8))
        with pytest.raises(ValueError, match="too large"):
            FingerprintDb(1e160 * x, np.zeros((6, 3)), FeatureConfig())
        db = FingerprintDb(1e150 * x, np.zeros((6, 3)), FeatureConfig())
        assert np.array_equal(localization._nearest(db, None, 2)[0],
                              direct_nearest(db.features, None, 2)[0])
        with pytest.raises(ValueError, match="too large"):
            localization._nearest(FingerprintDb(x, np.zeros((6, 3)), FeatureConfig()),
                                  1e160 * x[:1], 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_near_duplicate_ranking_matches_direct_argsort(self, k):
        rng = np.random.default_rng(11)
        for _ in range(50):
            samples = near_duplicate_samples(rng)
            samples.insert(2, samples[1])  # an exact tie goes to the lower index
            db = build_fingerprints(samples)
            for query in samples[:4]:
                est = knn_locate(db, query, k=k)
                expected = direct_estimate(db, query, k)
                assert np.abs(est.as_array() - expected).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_loo_equals_knn_on_reduced_database_for_near_duplicates(self, k):
        rng = np.random.default_rng(12)
        for _ in range(100):
            samples = near_duplicate_samples(rng)
            db = build_fingerprints(samples)
            report = leave_one_out_report(db, k=k)
            for i in range(3):
                keep = [j for j in range(len(db)) if j != i]
                reduced = FingerprintDb(db.features[keep], db.labels_mm[keep], db.config)
                err = knn_locate(reduced, samples[i], k=k).distance_mm(samples[i].label)
                assert abs(err - report.errors_mm[i]) <= 1e-12

    def test_batched_evaluation_equals_per_query_knn(self, radio, ura):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=5)
        db = build_fingerprints(grid_samples(ura, radio, grid))
        queries = [add_noise(los_channel(ura, Position3(-18.0 + 4.1 * i, 1502.0 + 3.7 * i, 1000.0),
                                         radio, sample_id=f"{i:06d}"), NoiseSpec(15.0, seed=i))
                   for i in range(9)]
        report = evaluate_localizer(db, queries, k=4)
        expected = [knn_locate(db, q, k=4).distance_mm(q.label)
                    for q in queries]
        assert report.errors_mm.tolist() == expected
        assert report.sample_ids == tuple(q.sample_id for q in queries)

    def test_blocks_and_gather_chunks_change_nothing(self, fast_radio, ura_small, monkeypatch):
        grid = SampleGrid(origin=Position3(-25, 1500, 1000), x_extent_mm=50,
                          y_extent_mm=50, resolution_mm=10)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(samples)
        queries = [add_noise(s, NoiseSpec(10.0, seed=i)) for i, s in enumerate(samples)]
        whole = (leave_one_out_report(db, k=3).errors_mm,
                 evaluate_localizer(db, queries, k=3).errors_mm)
        dim = db.features.shape[1]
        monkeypatch.setattr(localization, "_BLOCK_ELEMENTS", 7 * len(db))  # 7-row blocks
        monkeypatch.setattr(localization, "_GATHER_ELEMENTS", 2 * dim)  # 2-pair gathers
        monkeypatch.setattr(localization, "_SCREEN_FEATURES", 3)  # last chunk ragged
        assert dim % 3
        assert np.array_equal(leave_one_out_report(db, k=3).errors_mm, whole[0])
        assert np.array_equal(evaluate_localizer(db, queries, k=3).errors_mm, whole[1])

    def test_k_and_feature_length_validated(self, fast_radio, ura_small):
        s = los_channel(ura_small, Position3(0, 1500, 1000), fast_radio)
        db = build_fingerprints([s, s])
        with pytest.raises(ValueError):
            leave_one_out_report(db, k=2)
        with pytest.raises(ValueError):
            knn_locate(db, CsiSample(np.ones((1, 3))), k=1)


class TestPersistence:
    def test_roundtrip(self, fast_radio, ura_small, tmp_path):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=20)
        db = build_fingerprints(grid_samples(ura_small, fast_radio, grid), topology="ura")
        path = tmp_path / "db.fpdb"
        save_fingerprints(db, path)
        loaded = load_fingerprints(path)
        assert np.array_equal(loaded.features, db.features)
        assert np.array_equal(loaded.labels_mm, db.labels_mm)
        assert loaded.config == db.config
        assert loaded.topology == "ura"

    def test_loaded_db_locates_identically(self, fast_radio, ura_small, tmp_path):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=10)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(samples)
        path = tmp_path / "db.fpdb"
        save_fingerprints(db, path)
        loaded = load_fingerprints(path)
        query = add_noise(samples[3], NoiseSpec(15.0, seed=5))
        assert knn_locate(loaded, query, k=3) == knn_locate(db, query, k=3)

    @pytest.mark.parametrize("where", ["features", "labels"])
    def test_non_finite_value_rejected_on_load(self, fast_radio, ura_small, tmp_path, where):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=20)
        db = build_fingerprints(grid_samples(ura_small, fast_radio, grid), topology="ura")
        path = tmp_path / "db.fpdb"
        save_fingerprints(db, path)
        data = bytearray(path.read_bytes())
        offset = len(data) - db.labels_mm.nbytes  # first label
        if where == "features":
            offset -= db.features.nbytes - 8 * 5  # sixth feature of the first row
        data[offset:offset + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_fingerprints(path)

    @pytest.mark.parametrize("n, d", [(200_000, 12_800), (2**32 - 1, 2**32 - 1)],
                             ids=["19GiB", "max-counts"])
    def test_declared_body_larger_than_file_rejected_before_allocation(self, tmp_path, n, d):
        path = tmp_path / "db.fpdb"
        path.write_bytes(struct.pack("<4sBBHII", b"FPDB", 1, 0, 0, n, d).ljust(73, b"\0"))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="db.fpdb"):
                load_fingerprints(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "db.fpdb"
        path.write_bytes(b"JUNK" + bytes(20))
        with pytest.raises(BadMagicError):
            load_fingerprints(path)

    def test_bad_mode_truncation_and_trailing_bytes_name_the_path(self, tmp_path):
        db = FingerprintDb(np.arange(6.0).reshape(2, 3), np.ones((2, 3)), FeatureConfig(), "ura")
        path = tmp_path / "db.fpdb"
        save_fingerprints(db, path)
        good = path.read_bytes()
        bad_mode = good[:5] + bytes([7]) + good[6:]  # byte 5 is the feature mode
        for data, error in [(bad_mode, DatasetIOError), (good[:-1], TruncatedFileError),
                            (good[:17], TruncatedFileError), (good + b"\0", TruncatedFileError)]:
            path.write_bytes(data)
            with pytest.raises(error, match="db.fpdb"):
                load_fingerprints(path)

    def test_load_peak_memory_is_about_one_feature_matrix(self, rng, tmp_path):
        # the body read in place, which FingerprintDb adopts; a copy or a bytes
        # slice of it beside the body would double the peak
        path = tmp_path / "db.fpdb"
        save_fingerprints(FingerprintDb(rng.standard_normal((441, 12_800)),
                                        rng.standard_normal((441, 3)), FeatureConfig()), path)
        tracemalloc.start()
        try:
            db = load_fingerprints(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert db.features.shape == (441, 12_800)
        assert peak <= 1.2 * db.features.nbytes
