"""
CSI fingerprint localization
============================

Build a fingerprint database over a dense grid, locate noisy queries with
the k-nearest-neighbour matcher, and rebuild the database from the grid
stored as a CSI1 data set.
"""

from pathlib import Path

import numpy as np

from mamimo import (
    CsiSample,
    DatasetIndex,
    FeatureConfig,
    NoiseSpec,
    Position3,
    RadioConfig,
    SampleGrid,
    SampleRecord,
    add_noise,
    build_fingerprints,
    build_topology,
    evaluate_localizer,
    iter_samples,
    knn_locate,
    load_index,
    los_channel,
    write_sample,
)
from mamimo.dataio import save_index
from mamimo.geometry import grid_positions
from mamimo.localization import leave_one_out_report

radio = RadioConfig()
topology = build_topology("ura")

# A desk-scale 21 x 21 patch at 5 mm resolution, one metre from the array.
grid = SampleGrid(origin=Position3(-50.0, 1500.0, 1000.0),
                  x_extent_mm=100.0, y_extent_mm=100.0, resolution_mm=5.0)
train = [los_channel(topology, p, radio, sample_id=f"{i:06d}")
         for i, p in enumerate(grid_positions(grid))]
db = build_fingerprints(train, FeatureConfig(), topology="ura")
print(f"database: {len(db)} fingerprints of dimension {db.features.shape[1]}, "
      f"{db.features.dtype} rows ({db.features.nbytes / 2**20:.1f} MiB)")

# Samples read back from CSI1 files are complex64; their database stores
# float32 rows, half the size, which rebuild their float64 features exactly.
stored = build_fingerprints([CsiSample(s.h.astype(np.complex64), label=s.label) for s in train])
print(f"as stored in CSI1 files: {stored.features.dtype} rows "
      f"({stored.features.nbytes / 2**20:.1f} MiB)")

# Sanity first: a stored sample must come back at zero error, and
# leave-one-out on the noiseless grid stays within a few millimetres.
exact = knn_locate(db, train[220], k=1)
print(f"exact query error: {exact.distance_mm(train[220].label)} mm")
loo = leave_one_out_report(db, k=4)
print(f"leave-one-out (k=4): mean {loo.mean_mm:.2f} mm, "
      f"median {loo.median_mm:.2f} mm, p95 {loo.p95_mm:.2f} mm")
loo32 = leave_one_out_report(stored, k=4)
print(f"leave-one-out over the float32 store: mean {loo32.mean_mm:.2f} mm, "
      f"largest change {abs(loo32.errors_mm - loo.errors_mm).max():.1e} mm")

# Noisy queries at 20 dB SNR: still millimetre-level on this clean
# synthetic scene (measured data with real multipath is much harder).
queries = [add_noise(s, NoiseSpec(20.0, seed=100 + i)) for i, s in enumerate(train)]
report = evaluate_localizer(db, queries, k=5)
print(f"20 dB queries (k=5): mean {report.mean_mm:.2f} mm, "
      f"median {report.median_mm:.2f} mm, p95 {report.p95_mm:.2f} mm")

# What is shipped is the data set, not the database: write the training grid
# as CSI1 sample files plus index.csv, stream it back, and rebuild. The store
# comes back bit for bit the float32 store built from the complex64 samples.
out = Path("fingerprint_dataset")
out.mkdir(exist_ok=True)
records = []
for s in train:
    path = out / f"{s.sample_id}.bin"
    write_sample(path, s)
    records.append(SampleRecord(s.sample_id, path, s.label))
save_index(out / "index.csv", DatasetIndex(records=records, topology="ura", radio=radio))
rebuilt = build_fingerprints((s for _, s in iter_samples(load_index(out / "index.csv"))),
                             topology="ura")
same = all(getattr(rebuilt, a).tobytes() == getattr(stored, a).tobytes()
           for a in ("features", "norms", "labels_mm"))
print(f"wrote {len(records)} samples and index.csv to {out}/; "
      f"rebuilt {rebuilt.features.dtype} store identical bit for bit:", same)
assert same
