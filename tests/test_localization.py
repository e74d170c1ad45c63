import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo import localization
from mamimo.channel import NoiseSpec, add_noise, los_channel
from mamimo.dataio import read_sample, write_sample
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
    report_to_csv,
)
from mamimo.model import CsiSample, Position3, SampleGrid

from conftest import random_csi_matrix

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

    def test_overflowing_squared_norm_rejected(self):
        # |h|^2 = 4e320 overflows; the features were once all zeros
        with pytest.raises(ValueError, match="norm inf"):
            extract_features(CsiSample(1e160 * np.ones((2, 2))))

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


def via_csi1(samples, directory):
    """The samples written to and read back from CSI1 files, labels kept."""
    out = []
    for i, s in enumerate(samples):
        path = directory / f"{i:06d}.bin"
        write_sample(path, s)
        out.append(read_sample(path, label=s.label))
    return out


def as_complex64(samples):
    """The samples rounded as a CSI1 file rounds them."""
    return [CsiSample(s.h.astype(np.complex64), label=s.label, sample_id=s.sample_id)
            for s in samples]


def rebuilt(db):
    """The database's float64 features, features / norms."""
    return db.features.astype(np.float64) / db.norms[:, None]


def random_samples(rng, n, m=64, f=100):
    """n labelled complex64-exact samples of random CSI, made one at a time."""
    return (CsiSample(random_csi_matrix(rng, m, f), label=Position3(float(i), 0.0, 0.0),
                      sample_id=f"{i:06d}") for i in range(n))


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_db_adopts_and_locks_its_arrays(self, dtype):
        features, norms, labels = np.zeros((2, 3), dtype), np.full(2, 0.5), np.zeros((2, 3))
        db = FingerprintDb(features, norms, labels, ["a00000", "b00000"], FeatureConfig())
        assert db.sample_ids == ("a00000", "b00000")
        assert db.features is features and db.norms is norms and db.labels_mm is labels
        assert not any(a.flags.writeable for a in (features, norms, labels, db.sqnorms))

    def test_build_peak_memory_is_about_one_feature_matrix(self, rng):
        # the streamed float32 store alone, which FingerprintDb adopts; a copy of
        # it, a list of rows beside it or a float64 store would double the peak
        samples = random_samples(rng, 441)
        tracemalloc.start()
        try:
            db = build_fingerprints(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert db.features.shape == (441, 12_800) and db.features.dtype == np.float32
        assert peak <= 1.15 * 441 * 12_800 * 4

    @pytest.mark.parametrize("precision", [np.complex64, np.complex128])
    def test_generator_builds_the_list_built_store_bit_for_bit(self, rng, precision):
        # a generator has no len: the store grows as it streams, over several resizes
        samples = [CsiSample(s.h.astype(precision), label=s.label, sample_id=s.sample_id)
                   for s in random_samples(rng, 100, 4, 6)]
        from_list, from_generator = build_fingerprints(samples), build_fingerprints(iter(samples))
        assert from_list.features.shape == (100, 48)
        for a in ("features", "norms", "labels_mm"):
            assert getattr(from_generator, a).tobytes() == getattr(from_list, a).tobytes()

    @pytest.mark.parametrize("shape", [(2, 12), (6, 4), (4, 5)])
    def test_sample_of_another_shape_rejected(self, rng, shape):
        # 2x12 and 6x4 hold as many entries as 4x6 and were once stored as 4x6
        first, *_ = random_samples(rng, 1, 4, 6)
        other = CsiSample(random_csi_matrix(rng, *shape), label=Position3(1.0, 0.0, 0.0),
                          sample_id="odd001")
        message = re.escape(f"sample 'odd001': CSI of shape {shape}, expected (4, 6)")
        with pytest.raises(ValueError, match=message):
            build_fingerprints([first, other])
        db = build_fingerprints(random_samples(rng, 5, 4, 6))
        with pytest.raises(ValueError, match=message):  # a query batch, streamed alike
            evaluate_localizer(db, [first, other], k=2)

    @pytest.mark.parametrize("shape", [(2, 12), (6, 4)], ids=["2x12", "6x4"])
    def test_query_of_another_shape_than_the_store_rejected(self, rng, shape):
        # a lone query, or a batch led by it, has only the store's (M, F) to compare with
        db = build_fingerprints(random_samples(rng, 5, 4, 6))
        query = CsiSample(random_csi_matrix(rng, *shape), label=Position3(1.0, 0.0, 0.0),
                          sample_id="odd001")
        message = re.escape(f"sample 'odd001': CSI of shape {shape}, expected (4, 6)")
        with pytest.raises(ValueError, match=message):
            knn_locate(db, query, k=2)
        with pytest.raises(ValueError, match=message):
            evaluate_localizer(db, [query], k=2)
        assert db.shape == (4, 6)


class TestStore:
    """The stored rows against the float64 features they stand for."""

    @pytest.mark.parametrize("case", ["ura_los_5mm", "ura_20db", "da_los", "scaled_2^100",
                                      "scaled_2^-100"])
    def test_csi1_samples_rebuild_extract_features_bit_for_bit(self, case, radio, ura,
                                                                tmp_path):
        geometry = build_topology("da") if case == "da_los" else ura
        grid = SampleGrid(origin=Position3(-10, 2000, 1000), x_extent_mm=20,
                          y_extent_mm=20, resolution_mm=5)
        samples = grid_samples(geometry, radio, grid)
        if case == "ura_20db":
            samples = [add_noise(s, NoiseSpec(20.0, seed=i)) for i, s in enumerate(samples)]
        if case.startswith("scaled"):
            factor = 2.0 ** (100 if case == "scaled_2^100" else -100)
            samples = [CsiSample(factor * s.h, label=s.label) for s in samples]
        stored = via_csi1(samples, tmp_path)
        db = build_fingerprints(stored)
        assert db.features.dtype == np.float32
        assert np.all((0.5 <= db.norms) & (db.norms < 1.0))
        expected = np.stack([extract_features(s) for s in stored])
        assert rebuilt(db).tobytes() == expected.tobytes()

    def test_in_memory_samples_keep_a_float64_store(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=10)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(samples)
        assert db.features.dtype == np.float64
        expected = np.stack([extract_features(s) for s in samples])
        assert rebuilt(db).tobytes() == expected.tobytes()

    def test_later_inexact_sample_rounded_into_a_float32_store(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=20)
        samples = grid_samples(ura_small, fast_radio, grid)
        db = build_fingerprints(as_complex64(samples[:1]) + samples[1:])
        assert db.features.dtype == np.float32
        expected = np.stack([extract_features(s) for s in samples])
        assert np.allclose(rebuilt(db), expected, rtol=2.0 ** -23, atol=0.0)

    @pytest.mark.parametrize("features, norms, labels, n_ids", [
        (np.full((1, 4), 0.5, np.float32), np.array([0.4]), np.zeros((1, 3)), 1),
        (np.full((1, 4), 0.5, np.float32), np.array([1.0]), np.zeros((1, 3)), 1),
        (np.full((1, 4), 1.0, np.float32), np.array([0.5]), np.zeros((1, 3)), 1),  # row norm 2
        (np.array([[np.nan, 0.5]], np.float32), np.array([0.5]), np.zeros((1, 3)), 1),
        (np.array([[np.inf, 0.5]]), np.array([0.5]), np.zeros((1, 3)), 1),
        (np.full((1, 4), 0.25), np.array([0.5]), np.array([[np.nan, 0.0, 0.0]]), 1),
        (np.full((2, 4), 0.25), np.array([0.5]), np.zeros((2, 3)), 2),
        (np.full((1, 4), 0.25), np.array([0.5]), np.zeros((2, 3)), 1),
        (np.full((2, 4), 0.25), np.full(2, 0.5), np.zeros((2, 3)), 1),
    ], ids=["norm_below", "norm_at_1", "row_norm_2", "nan_row", "inf_row", "nan_label",
            "short_norms", "long_labels", "short_ids"])
    def test_store_outside_its_scale_rejected(self, features, norms, labels, n_ids):
        with pytest.raises(ValueError):
            FingerprintDb(features, norms, labels, [f"{i:06d}" for i in range(n_ids)],
                          FeatureConfig())


class TestKnnLocate:
    def test_row_norms_cached_and_locked(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=10)
        db = build_fingerprints(as_complex64(grid_samples(ura_small, fast_radio, grid)))
        x = rebuilt(db)
        assert np.allclose(db.sqnorms, np.einsum("nd,nd->n", x, x), rtol=1e-14, atol=0.0)
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
            reduced = FingerprintDb(db.features[keep], db.norms[keep], db.labels_mm[keep],
                                    [db.sample_ids[j] for j in keep], db.config)
            est = knn_locate(reduced, samples[i], k=4)
            assert est.distance_mm(samples[i].label) == pytest.approx(report.errors_mm[i], abs=1e-9)

    def test_loo_report_names_the_stored_ids(self, tmp_path, fast_radio, ura_small):
        ids = ["abc123", "zzz999", "q00007"]
        samples = [los_channel(ura_small, Position3(10.0 * i, 1500.0, 1000.0), fast_radio,
                               sample_id=sid) for i, sid in enumerate(ids)]
        report = leave_one_out_report(build_fingerprints(samples), k=1)
        assert report.sample_ids == tuple(ids)
        report_to_csv(report, tmp_path / "loo.csv")
        rows = (tmp_path / "loo.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ids

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
        # the streamed float64 query features alone; the samples themselves are as
        # large again and must not stay alive, and a float32 copy of the whole
        # batch beside it would add half
        db = build_fingerprints(random_samples(rng, 50))
        queries = random_samples(rng, 441)
        tracemalloc.start()
        try:
            report = evaluate_localizer(db, queries, k=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert db.features.dtype == np.float32
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
        with pytest.raises(ValueError, match="3 errors, but 2 sample ids"):
            LocalizationReport.from_errors([1.5, 0.0, 3.25], ["aaaaaa", "bbbbbb"])


def near_duplicate_samples(rng, precision, n_far=5):
    """A CSI h, near-duplicates h + a d1 and h + a d2 / 3, then ``n_far``
    unrelated samples, all rounded to ``precision``. For complex128, a = 3e-9
    puts the squared feature distances (~1e-19) far below the rounding of the
    float64 expanded form; for complex64 (a float32 store), a = 3e-7 keeps the
    duplicates apart after rounding (~1e-13), far below the float32 product's."""
    a = 3e-9 if precision is np.complex128 else 3e-7
    h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    d1, d2 = (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)) for _ in range(2))
    hs = [h, h + a * d1, h + a / 3 * d2]
    hs += [rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)) for _ in range(n_far)]
    return [CsiSample(m.astype(precision), label=Position3(10.0 * i, 7.0 * (i % 3), 1000.0),
                      sample_id=f"{i:06d}") for i, m in enumerate(hs)]


def direct_estimate(db, query, k):
    dists = np.linalg.norm(rebuilt(db) - extract_features(query), axis=1)
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


def nudged(h32, rng, ulps):
    """``h32`` with a random third of its float32 parts moved ``ulps`` ulps up or down."""
    v = h32.view(np.float32).copy()
    pick = rng.random(v.shape) < 1 / 3
    for direction in (np.float32(np.inf), np.float32(-np.inf)):
        mask = pick & ((rng.random(v.shape) < 0.5) == (direction > 0))
        for _ in range(ulps):
            v[mask] = np.nextafter(v[mask], direction)
    return v.view(np.complex64)


def float32_hard_store(case, radio, geometry):
    """A float32 store on which a float32 product alone misranks neighbours, and
    the CSI scale of the case's queries."""
    rng = np.random.default_rng(21)
    if case == "los_grid_1mm":
        grid = SampleGrid(origin=Position3(-5, 1500, 1000), x_extent_mm=10,
                          y_extent_mm=10, resolution_mm=1)
        return build_fingerprints(as_complex64(grid_samples(geometry, radio, grid))), 1.0
    base = [(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))).astype(np.complex64)
            for _ in range(5)]
    hs = base + [nudged(h, rng, 1) for h in base] + [nudged(h, rng, 3) for h in base] + base[:3]
    order = rng.permutation(len(hs))  # the last three tie exactly with three others
    db = build_fingerprints([CsiSample(hs[i], label=Position3(0.0, 0.0, 0.0)) for i in order])
    return db, {"scaled_2^100": 2.0 ** 100, "scaled_2^-100": 2.0 ** -100}.get(case, 1.0)


def as_csi(features):
    """Each feature row [Re h, Im h] as the (1, D / 2) CSI it stands for."""
    half = features.shape[1] // 2
    return [CsiSample((f[:half] + 1j * f[half:])[None, :]) for f in features]


class TestNeighbourKernel:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("case", ["near_and_exact_duplicates", "scaled_2^100",
                                      "scaled_2^-100", "los_grid_1mm"])
    def test_float32_screen_matches_direct_argsort_bit_for_bit(self, case, k, fast_radio, ura):
        db, scale = float32_hard_store(case, fast_radio, ura)
        assert db.features.dtype == np.float32
        x = rebuilt(db)
        near = x[::3] + 1e-10 * np.random.default_rng(4).standard_normal(x[::3].shape)
        rows, norms, *_ = localization._rows(as_csi(scale * near), np.float64)
        unscaled = localization._rows(as_csi(near), np.float64)
        assert rows.tobytes() == unscaled[0].tobytes()
        assert norms.tobytes() == unscaled[1].tobytes()
        q = rows / norms[:, None]
        batches = [(None, None), ((rows, norms), q)]  # leave-one-out, batch, then singles
        batches += [((rows[j:j + 1], norms[j:j + 1]), q[j:j + 1]) for j in range(len(q))]
        for queries, expected in batches:
            idx, dist = localization._nearest(db, queries, k)
            expected_idx, expected_dist = direct_nearest(x, expected, k)
            assert np.array_equal(idx, expected_idx)
            assert np.array_equal(dist, expected_dist)

    @pytest.mark.parametrize("precision", [np.complex64, np.complex128])
    def test_query_rows_rebuild_extract_features_bit_for_bit(self, rng, precision):
        h = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        query = CsiSample(h.astype(precision))
        rows, norms, *_ = localization._rows([query], np.float64)
        assert rows.dtype == np.float64
        assert (rows[0] / norms[0]).tobytes() == extract_features(query).tobytes()

    def test_overflowing_query_rejected(self, rng):
        # |h|^2 overflows: refused, where a zero feature row once gave a wrong position
        db = build_fingerprints(random_samples(rng, 6, 2, 4))
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        with pytest.raises(ValueError, match="norm inf"):
            knn_locate(db, CsiSample(1e160 * h), k=2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("precision", [np.complex64, np.complex128])
    def test_near_duplicate_ranking_matches_direct_argsort(self, k, precision):
        rng = np.random.default_rng(11)
        for _ in range(50):
            samples = near_duplicate_samples(rng, precision)
            samples.insert(2, samples[1])  # an exact tie goes to the lower index
            db = build_fingerprints(samples)
            for query in samples[:4]:
                est = knn_locate(db, query, k=k)
                expected = direct_estimate(db, query, k)
                assert np.abs(est.as_array() - expected).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("precision", [np.complex64, np.complex128])
    def test_loo_equals_knn_on_reduced_database_for_near_duplicates(self, k, precision):
        rng = np.random.default_rng(12)
        for _ in range(100):
            samples = near_duplicate_samples(rng, precision)
            db = build_fingerprints(samples)
            assert db.features.dtype == (np.float32 if precision is np.complex64 else np.float64)
            report = leave_one_out_report(db, k=k)
            for i in range(3):
                keep = [j for j in range(len(db)) if j != i]
                reduced = FingerprintDb(db.features[keep], db.norms[keep], db.labels_mm[keep],
                                        [db.sample_ids[j] for j in keep], db.config)
                err = knn_locate(reduced, samples[i], k=k).distance_mm(samples[i].label)
                assert abs(err - report.errors_mm[i]) <= 1e-12

    @pytest.mark.parametrize("store", [as_complex64, list], ids=["float32", "float64"])
    def test_batched_evaluation_equals_per_query_knn(self, radio, ura, store):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=5)
        db = build_fingerprints(store(grid_samples(ura, radio, grid)))
        queries = [add_noise(los_channel(ura, Position3(-18.0 + 4.1 * i, 1502.0 + 3.7 * i, 1000.0),
                                         radio, sample_id=f"{i:06d}"), NoiseSpec(15.0, seed=i))
                   for i in range(9)]
        report = evaluate_localizer(db, queries, k=4)
        expected = [knn_locate(db, q, k=4).distance_mm(q.label)
                    for q in queries]
        assert report.errors_mm.tolist() == expected
        assert report.sample_ids == tuple(q.sample_id for q in queries)

    def test_complex64_first_query_does_not_round_the_batch(self, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-20, 1500, 1000), x_extent_mm=40,
                          y_extent_mm=40, resolution_mm=10)
        db = build_fingerprints(as_complex64(grid_samples(ura_small, fast_radio, grid)))
        queries = [add_noise(los_channel(ura_small, Position3(-17.0 + 3.3 * i, 1503.0 + 2.9 * i,
                                                              1000.0), fast_radio,
                                         sample_id=f"{i:06d}"), NoiseSpec(15.0, seed=i))
                   for i in range(6)]
        queries = as_complex64(queries[:1]) + queries[1:]
        report = evaluate_localizer(db, queries, k=3)
        assert report.errors_mm.tolist() == [knn_locate(db, q, k=3).distance_mm(q.label)
                                             for q in queries]

    @pytest.mark.parametrize("store", [as_complex64, list], ids=["float32", "float64"])
    def test_blocks_and_gather_chunks_change_nothing(self, fast_radio, ura_small, monkeypatch,
                                                     store):
        grid = SampleGrid(origin=Position3(-25, 1500, 1000), x_extent_mm=50,
                          y_extent_mm=50, resolution_mm=10)
        samples = store(grid_samples(ura_small, fast_radio, grid))
        db = build_fingerprints(samples)
        queries = [add_noise(s, NoiseSpec(10.0, seed=i)) for i, s in enumerate(samples)]
        whole = (leave_one_out_report(db, k=3).errors_mm,
                 evaluate_localizer(db, queries, k=3).errors_mm)
        dim = db.features.shape[1]
        monkeypatch.setattr(localization, "_PANEL_ELEMENTS", 7 * len(db))  # 7-row panels
        monkeypatch.setattr(localization, "_PANEL_ROWS", 1)
        monkeypatch.setattr(localization, "_GATHER_ELEMENTS", 2 * dim)  # 2-pair gathers
        monkeypatch.setattr(localization, "_SCREEN_FEATURES", 3)  # last chunk ragged
        assert dim % 3 and len(db) % 7  # last panel ragged
        assert np.array_equal(leave_one_out_report(db, k=3).errors_mm, whole[0])
        assert np.array_equal(evaluate_localizer(db, queries, k=3).errors_mm, whole[1])

    @pytest.mark.parametrize("k", [1, 3, 39])
    @pytest.mark.parametrize("precision", [np.complex64, np.complex128])
    def test_multi_panel_loo_matches_direct_argsort_bit_for_bit(self, k, precision,
                                                               monkeypatch):
        # 40 rows in 7-row panels, the last of 5; every fifth row repeats the row
        # before it, so exact ties at zero and beyond go to the lower index
        rng = np.random.default_rng(13)
        hs = [(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))).astype(precision)
              for _ in range(32)]
        for i in range(0, 40, 5):
            hs.insert(i + 1, hs[i])
        db = build_fingerprints([CsiSample(h, label=Position3(0.0, 0.0, 0.0)) for h in hs])
        assert db.features.dtype == (np.float32 if precision is np.complex64 else np.float64)
        monkeypatch.setattr(localization, "_PANEL_ELEMENTS", 7 * len(db))
        monkeypatch.setattr(localization, "_PANEL_ROWS", 1)
        idx, dist = localization._nearest(db, None, k)
        expected_idx, expected_dist = direct_nearest(rebuilt(db), None, k)
        assert np.array_equal(idx, expected_idx)
        assert np.array_equal(dist, expected_dist)

    def test_loo_peak_memory_is_below_one_n_by_n_matrix(self, rng):
        # the screen holds a panel of products, not a float32 n x n Gram (36 MB)
        db = build_fingerprints(random_samples(rng, 3000, 8, 8))
        assert db.features.dtype == np.float32
        tracemalloc.start()
        try:
            leave_one_out_report(db, k=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 4

    def test_k_and_feature_length_validated(self, fast_radio, ura_small):
        s = los_channel(ura_small, Position3(0, 1500, 1000), fast_radio)
        db = build_fingerprints([s, s])
        with pytest.raises(ValueError):
            leave_one_out_report(db, k=2)
        with pytest.raises(ValueError):
            knn_locate(db, CsiSample(np.ones((1, 3))), k=1)

