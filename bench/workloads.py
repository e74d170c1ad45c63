"""The three benchmark workloads.

Each workload draws its inputs from the benchmark seed in ``__init__``,
pays its set-up in ``setup``, does one round of fixed work in
``run_round`` (the timed part, calling the public mamimo functions the CLI
commands call) and checks a round's outputs in ``check`` against the
oracles in ``oracles.py``. ``check`` returns (attempted, failed, problems):
an operation fails when its output fails a check; ``problems`` lists
checks on the round as a whole that failed.

Reference results depend only on the seed, so the ``beamform`` and
``jcas`` checks compute them on their first call and compare every later
round against the same numbers. The ``campaign`` check recomputes its
reference one waypoint at a time and keeps none of it.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from pathlib import Path

import numpy as np

import oracles
from mamimo import campaign, channel, dataio, dsp, geometry, localization, scheduling
from mamimo.model import CsiSample, Position3, RadioConfig, SampleGrid

HEIGHT_MM = 1000.0
SAMPLE_BYTES = 51_212  # one 64 x 100 CSI1 file


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _noise_seed(seed: int, stream: int, i: int) -> int:
    """Independent noise seed per (benchmark seed, stream, sample)."""
    return int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])


def _label(p: Position3) -> tuple[float, float, float]:
    return (p.x, p.y, p.z)


def _read_index_rows(path: Path) -> list[tuple[str, int, tuple[float, float, float]]]:
    """``sample_id,user_id,x,y,z`` rows of an index CSV, comments skipped."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if row and row[0] != "sample_id":
                rows.append((row[0], int(row[1]), (float(row[2]), float(row[3]), float(row[4]))))
    return rows


def _pinv_sum_se(H, budget) -> float:
    return float(np.sum(oracles.zf_pinv_se(H, budget.total_tx_power, budget.noise_power)))


def _partition_problems(name, schedule, n_users, group_size) -> list[str]:
    flat = sorted(i for g in schedule.groups for i in g)
    problems = []
    if flat != list(range(n_users)):
        problems.append(f"{name} schedule does not partition the {n_users} users")
    if any(not 1 <= len(g) <= group_size for g in schedule.groups):
        problems.append(f"{name} schedule has a group outside 1..{group_size} users")
    return problems


class Campaign:
    """A slice of the full four-table plan through the TCP capture path.

    Set-up builds the paper's whole plan (4 x 63,001 nodes at 5 mm,
    serpentine); each round runs the same ``NODES_PER_TABLE`` consecutive
    nodes of every table through ``simulate_campaign`` at 20 dB SNR, with
    the positioners driven over TCP and every sample triggered over TCP.
    """

    name = "campaign"
    NODES_PER_TABLE = 360
    SNR_DB = 20.0
    ops_per_round = 4 * NODES_PER_TABLE

    def __init__(self, seed: int, run_dir: Path):
        rng = _rng(seed, 1)
        self.start = int(rng.integers(0, 63_001 - self.NODES_PER_TABLE + 1))
        self.noise_seed = int(rng.integers(0, 2**31 - 1))

    def setup(self) -> None:
        self.radio = RadioConfig()
        self.ura = geometry.build_topology("ura")
        self.plan = campaign.default_campaign_plan()
        stop = self.start + self.NODES_PER_TABLE
        self.slice = campaign.CampaignPlan(
            waypoints=[w[self.start:stop] for w in self.plan.waypoints], grids=self.plan.grids)

    def run_round(self, out_dir: Path):
        return campaign.simulate_campaign(self.slice, self.ura, self.radio, out_dir,
                                          topology="ura", snr_db=self.SNR_DB,
                                          seed=self.noise_seed,
                                          positioner_address=("127.0.0.1", 0))

    def check(self, result, out_dir: Path):
        rows = _read_index_rows(out_dir / "index.csv")
        by_label = {}
        for sample_id, user_id, label in rows:
            by_label.setdefault(label, []).append((sample_id, user_id))
        problems = []
        planned = Counter(_label(p) for wps in self.slice.waypoints for p in wps)
        if len(rows) != sum(planned.values()) or set(by_label) != set(planned):
            problems.append(f"index has {len(rows)} rows for {sum(planned.values())} waypoints")
        ids = {sample_id for sample_id, _, _ in rows}
        stray = sorted(p.name for p in out_dir.glob("*.bin") if p.stem not in ids)
        if stray:
            problems.append(f"{len(stray)} sample files not in the index, e.g. {stray[0]}")
        failed = 0
        elements = oracles.ura_elements()
        for slot, wps in enumerate(self.slice.waypoints):
            for p in wps:
                entries = by_label.get(_label(p), [])
                ok = len(entries) == 1 and entries[0][1] == slot
                if ok:
                    path = out_dir / f"{entries[0][0]}.bin"
                    ok = path.is_file() and path.stat().st_size == SAMPLE_BYTES
                if ok:
                    # one waypoint at a time, so the check holds far less
                    # memory than the round and stays out of peak_rss_mib
                    clean = oracles.free_space_channel(elements, [_label(p)], user_id=slot)[0]
                    ok = oracles.check_sample_snr(oracles.read_csi1(path), clean, self.SNR_DB)
                failed += not ok
        return self.ops_per_round, failed, problems


class Beamform:
    """MRT and ZF power maps plus the multi-user part, in a room with
    single-bounce scatterers.

    The map grid is the ``powermap`` default (51 x 51 nodes at 25 mm); the
    target is a node of the row nearest the panel, where a rectangular
    panel's map peaks (it steers in angle but cannot resolve range). The
    pool spreads over the four tables' area; SUS, location-based and random
    schedules are evaluated under ZF, and ``max_served_users`` runs under a
    link budget that serves several users.
    """

    name = "beamform"
    GRID = SampleGrid(origin=Position3(-625.0, 1000.0, HEIGHT_MM),
                      x_extent_mm=1250.0, y_extent_mm=1250.0, resolution_mm=25.0)
    N_SCATTERERS = 3
    N_USERS = 24
    GROUP = 4
    ALPHA = 0.3
    SE_FLOOR = 1.0
    TRIALS = 5
    BUDGET = dsp.LinkBudget(total_tx_power=1.0, noise_power=1e-5)
    MAP_POWER = dsp.LinkBudget().total_tx_power  # power_map's own budget, one user
    MAP_RTOL = 1e-9    # map node against the oracle, relative to the map peak
    ZF_MAP_RTOL = 1e-12  # single-user ZF map against the MRT map, same scale
    n_nodes = 51 * 51
    n_groups = 1 + 2 * (N_USERS // GROUP)
    ops_per_round = 2 * n_nodes + n_groups

    def __init__(self, seed: int, run_dir: Path):
        rng = _rng(seed, 2)
        self.target_ix = int(rng.integers(20, 31))
        # One reflector on each side wall and one on the ceiling. None sits
        # behind the user area: a reflector in line with the beam fades the
        # map along range by more than the 5% a 25 mm step nearer the panel
        # gains, and the map's peak would leave the target row.
        self.scatterer_specs = []
        for wall in range(self.N_SCATTERERS):
            a, b = rng.uniform(0.0, 1.0, 2)
            gamma = complex(rng.uniform(0.2, 0.5) * np.exp(2j * np.pi * rng.uniform()))
            if wall == 0:
                pos = (-2000.0, 1000.0 + 3000.0 * a, 500.0 + 1500.0 * b)
            elif wall == 1:
                pos = (2000.0, 1000.0 + 3000.0 * a, 500.0 + 1500.0 * b)
            else:
                pos = (-2000.0 + 4000.0 * a, 1000.0 + 3000.0 * b, 2500.0)
            self.scatterer_specs.append((pos, gamma))
        center = geometry.roi_center()
        xy = rng.uniform(-1252.5, 1252.5, size=(self.N_USERS, 2))
        self.pool_positions = [Position3(center.x + x, center.y + y, HEIGHT_MM) for x, y in xy]
        self.random_seed = int(rng.integers(0, 2**31 - 1))
        self.served_seed = int(rng.integers(0, 2**31 - 1))
        self._expected = None

    def setup(self) -> None:
        self.radio = RadioConfig()
        self.ura = geometry.build_topology("ura")
        self.cfg = channel.ChannelConfig()
        self.scatterers = [channel.Scatterer(Position3(*p), g) for p, g in self.scatterer_specs]
        g = self.GRID
        self.target_pos = Position3(g.origin.x + self.target_ix * g.resolution_mm,
                                    g.origin.y, g.origin.z)

    def _synth(self, p: Position3, user_id: int = 0, sample_id: str = "000000"):
        return channel.multipath_channel(self.ura, p, self.radio, self.cfg, self.scatterers,
                                         user_id=user_id, sample_id=sample_id)

    def run_round(self, out_dir: Path):
        positions = geometry.grid_positions(self.GRID)
        samples = [self._synth(p, sample_id=f"{i:06d}") for i, p in enumerate(positions)]
        target = self._synth(self.target_pos)
        maps = {}
        for scheme in (dsp.PrecodingScheme.MRT, dsp.PrecodingScheme.ZF):
            raw = dsp.power_map(self.GRID, samples, target, scheme=scheme)
            pmap = dsp.normalize_power_maps([raw])[0]
            pgm = out_dir / f"{scheme.value}.pgm"
            dsp.power_map_to_pgm(pmap, pgm)
            dsp.power_map_to_csv(pmap, pgm.with_suffix(".csv"))
            maps[scheme.value] = raw.values.ravel()
        del samples
        pool = scheduling.UserPool([
            scheduling.PoolUser(i, self._synth(p, user_id=i % 12), p)
            for i, p in enumerate(self.pool_positions)])
        sus = scheduling.sus_select(pool, alpha=self.ALPHA, max_users=self.GROUP)
        schedules = {
            "sus": scheduling.Schedule(groups=[sus], group_size=self.GROUP),
            "def": scheduling.def_schedule(pool, self.GROUP),
            "random": scheduling.random_schedule(pool, self.GROUP, seed=self.random_seed),
        }
        reports = {name: scheduling.evaluate_schedule(s, pool, budget=self.BUDGET)
                   for name, s in schedules.items()}
        served = dsp.max_served_users([u.csi for u in pool.users], self.SE_FLOOR,
                                      self.TRIALS, self.served_seed, self.BUDGET)
        return {"maps": maps, "pool": pool, "schedules": schedules,
                "reports": reports, "served": served}

    def _reference(self):
        g = self.GRID
        elements = oracles.ura_elements()
        nodes = np.array([(g.origin.x + ix * g.resolution_mm, g.origin.y + iy * g.resolution_mm,
                           g.origin.z) for iy in range(g.ny) for ix in range(g.nx)])
        ht = oracles.free_space_channel(elements, [_label(self.target_pos)], 0,
                                        self.scatterer_specs)[0]
        w = np.conj(ht) / np.linalg.norm(ht, axis=0)
        values = np.concatenate([
            self.MAP_POWER * np.mean(np.abs(np.einsum(
                "nmf,mf->nf", oracles.free_space_channel(
                    elements, nodes[i:i + 64], 0, self.scatterer_specs), w)) ** 2, axis=1)
            for i in range(0, len(nodes), 64)])
        pool_h = np.stack([oracles.free_space_channel(elements, [_label(p)], i % 12,
                                                      self.scatterer_specs)[0]
                           for i, p in enumerate(self.pool_positions)])
        return {
            "nodes": nodes,
            "mrt": values,
            "target_value": self.MAP_POWER * float(np.mean(np.linalg.norm(ht, axis=0) ** 2)),
            "pool_h": pool_h,
            "served": self._served_replay(pool_h),
        }

    def _served_replay(self, pool_h) -> float:
        """``max_served_users`` restated on pseudo-inverse ZF."""
        rng = np.random.default_rng(self.served_seed)
        b = self.BUDGET
        scores = []
        for _ in range(self.TRIALS):
            order = rng.permutation(len(pool_h))
            feasible = 0
            for k in range(1, min(len(pool_h), pool_h.shape[1]) + 1):
                se = oracles.zf_pinv_se(pool_h[order[:k]], b.total_tx_power, b.noise_power)
                if np.min(se) < self.SE_FLOOR:
                    break
                feasible = k
            scores.append(feasible)
        return float(np.median(scores))

    @staticmethod
    def _read_pgm(path: Path, shape) -> np.ndarray:
        data = path.read_bytes()
        header = f"P5\n{shape[1]} {shape[0]}\n65535\n".encode("ascii")
        if not data.startswith(header) or len(data) != len(header) + 2 * shape[0] * shape[1]:
            raise ValueError(f"{path}: not a {shape[1]}x{shape[0]} 16-bit PGM")
        return np.frombuffer(data, dtype=">u2", offset=len(header)).astype(np.int64)

    @staticmethod
    def _read_map_csv(path: Path) -> np.ndarray:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["x_mm", "y_mm", "power_db"]:
            raise ValueError(f"{path}: unexpected header {rows[0]}")
        return np.array([[float(v) for v in r] for r in rows[1:]])

    def _node_failures(self, values, reference, out_dir: Path, scheme: str) -> np.ndarray:
        """Boolean (nodes,) of map nodes whose value or export is wrong."""
        exp = self._expected
        peak = reference.max()
        bad = ~(np.abs(values - reference) <= self.MAP_RTOL * peak)
        norm_db = 10.0 * np.log10(reference / peak)
        gray = np.round(np.clip((norm_db + 40.0) / 40.0, 0.0, 1.0) * 65535.0)
        try:
            pgm = self._read_pgm(out_dir / f"{scheme}.pgm", (51, 51))
            rows = self._read_map_csv(out_dir / f"{scheme}.csv")
        except (OSError, ValueError, IndexError):
            return np.ones_like(bad)
        bad |= ~(np.abs(pgm - gray) <= 1)
        if rows.shape != (len(values), 3):
            return np.ones_like(bad)
        bad |= ~(rows[:, 0] == exp["nodes"][:, 0]) | ~(rows[:, 1] == exp["nodes"][:, 1])
        bad |= ~(np.abs(rows[:, 2] - norm_db) <= 1e-6)
        return bad

    def check(self, result, out_dir: Path):
        if self._expected is None:
            self._expected = self._reference()
        exp = self._expected
        problems = []
        mrt, zf = result["maps"]["mrt"], result["maps"]["zf"]
        bad_mrt = self._node_failures(mrt, exp["mrt"], out_dir, "mrt")
        # Cauchy-Schwarz: the MRT map peaks at its target with P mean_f |h_f|^2
        t = self.target_ix
        if int(np.argmax(mrt)) != t or not abs(mrt[t] - exp["target_value"]) <= (
                self.MAP_RTOL * exp["target_value"]):
            bad_mrt[t] = True
        # one-user ZF is MRT: the maps agree to rounding
        bad_zf = self._node_failures(zf, exp["mrt"], out_dir, "zf")
        bad_zf |= ~(np.abs(zf - mrt) <= self.ZF_MAP_RTOL * mrt.max())
        failed = int(bad_mrt.sum() + bad_zf.sum())

        pool, b = result["pool"], self.BUDGET
        pool_h = np.stack([u.csi.h for u in pool.users])
        channel_ok = np.all(np.abs(pool_h - exp["pool_h"]) <=
                            1e-9 * np.abs(exp["pool_h"]).max(axis=(1, 2), keepdims=True),
                            axis=(1, 2))
        schedules = result["schedules"]
        for name in ("def", "random"):
            problems += _partition_problems(name, schedules[name], self.N_USERS, self.GROUP)
        sus = schedules["sus"].groups[0]
        if not 1 <= len(sus) <= self.GROUP or len(set(sus)) != len(sus):
            problems.append(f"sus selected {sus}")
        groups = [(name, gi, g) for name in ("sus", "def", "random")
                  for gi, g in enumerate(schedules[name].groups)]
        if len(groups) != self.n_groups:
            problems.append(f"{len(groups)} groups evaluated, {self.n_groups} expected")
        for name, gi, group in groups:
            H = pool_h[group]
            W = dsp.zf_weights(H).w
            se, _ = dsp.group_spectral_efficiency(H, dsp.PrecodingScheme.ZF, b)
            sum_se = result["reports"][name].per_group_sum_se[gi]
            ok = bool(np.all(channel_ok[group]))
            ok = ok and oracles.check_zf_group(H, W, se, b.total_tx_power, b.noise_power)
            ok = ok and abs(sum_se - _pinv_sum_se(H, b)) <= oracles.SE_RTOL * abs(sum_se)
            failed += not ok
        if result["served"] != exp["served"]:
            problems.append(f"max_served_users {result['served']} != replay {exp['served']}")
        elif exp["served"] < 2:
            problems.append(f"link budget serves only {exp['served']} user(s)")
        return self.ops_per_round, failed, problems


class Jcas:
    """The paper's pipeline: stored data set -> fingerprints -> located
    users -> location-based schedule.

    Set-up synthesizes and writes a noiseless 250 mm square at 5 mm
    (51 x 51 = 2,601 samples) and the query CSI. Each round loads the
    index, stream-reads every sample into the fingerprint database, locates
    the queries, runs leave-one-out, schedules the located users with
    ``def_schedule`` on their estimated positions against
    ``random_schedule`` and evaluates both under ZF.
    """

    name = "jcas"
    SIDE_MM = 250.0
    RES_MM = 5.0
    N_NOISY = 6
    K = 4
    QUERY_SNR_DB = 20.0
    LOO_ROWS = 32
    GROUP = 4
    BUDGET = dsp.LinkBudget(total_tx_power=1.0, noise_power=1e-5)
    NODE_ATOL_MM = 1e-6
    # leave_one_out_report ranks by the expanded form |x|^2 + |y|^2 - 2 x.y,
    # whose rounding moves an estimate by up to ~1e-10 mm on this grid; any
    # change of neighbour set moves it by millimetres.
    LOO_ATOL_MM = 1e-6
    ops_per_round = N_NOISY + 2

    def __init__(self, seed: int, run_dir: Path):
        rng = _rng(seed, 3)
        n = int(self.SIDE_MM / self.RES_MM) + 1
        # Origins at odd multiples of 2.5 mm keep x = 0 off the grid, so the
        # panel's mirror symmetry gives no node two exactly tied neighbours.
        span = int((2505.0 - self.SIDE_MM) / self.RES_MM)
        self.origin = (-1252.5 + self.RES_MM * int(rng.integers(0, span + 1)),
                       1000.0 + self.RES_MM * int(rng.integers(0, span + 1)))
        self.n_side = n
        u = rng.uniform(0.0, self.SIDE_MM, size=(self.N_NOISY, 2))
        self.noisy_positions = [Position3(self.origin[0] + a, self.origin[1] + b, HEIGHT_MM)
                                for a, b in u]
        self.noise_seeds = [_noise_seed(seed, 3, i) for i in range(self.N_NOISY)]
        # two database nodes in opposite quadrants, so that the node queries
        # sit far apart and a ZF group holding both stays well conditioned
        half = n // 2
        self.node_queries = []
        for q in (0, 1):
            ix, iy = (int(v) + q * (half + 1) for v in rng.integers(0, half, size=2))
            self.node_queries.append(iy * n + ix)
        self.loo_rows = np.sort(rng.choice(n * n, size=self.LOO_ROWS, replace=False))
        self.random_seed = int(rng.integers(0, 2**31 - 1))
        self.dataset = run_dir / "dataset"
        self._expected = None

    def setup(self) -> None:
        self.radio = RadioConfig()
        self.ura = geometry.build_topology("ura")
        grid = SampleGrid(origin=Position3(self.origin[0], self.origin[1], HEIGHT_MM),
                          x_extent_mm=self.SIDE_MM, y_extent_mm=self.SIDE_MM,
                          resolution_mm=self.RES_MM)
        self.dataset.mkdir(parents=True)
        records, self.digests, kept = [], [], {}
        node_set = set(self.node_queries)
        for i, p in enumerate(geometry.grid_positions(grid)):
            s = channel.los_channel(self.ura, p, self.radio, sample_id=f"{i:06d}")
            path = self.dataset / f"{s.sample_id}.bin"
            dataio.write_sample(path, s)
            records.append(dataio.SampleRecord(s.sample_id, path, p, 0))
            stored = s.h.astype(np.complex64)
            self.digests.append(hashlib.blake2b(stored.tobytes(), digest_size=16).digest())
            if i in node_set:
                kept[i] = CsiSample(stored, label=p)
        dataio.save_index(self.dataset / "index.csv",
                          dataio.DatasetIndex(records=records, topology="ura", radio=self.radio))
        noisy = [channel.add_noise(channel.los_channel(self.ura, p, self.radio),
                                   channel.NoiseSpec(self.QUERY_SNR_DB, s))
                 for p, s in zip(self.noisy_positions, self.noise_seeds)]
        self.queries = noisy + [kept[i] for i in self.node_queries]

    def run_round(self, out_dir: Path):
        index = dataio.load_index(self.dataset / "index.csv")
        db = localization.build_fingerprints((s for _, s in dataio.iter_samples(index)),
                                             localization.FeatureConfig(), topology="ura")
        estimates = [localization.knn_locate(db, q, k=self.K) for q in self.queries]
        loo = localization.leave_one_out_report(db, k=self.K)
        del db
        pool = scheduling.UserPool([scheduling.PoolUser(i, q, est) for i, (q, est)
                                    in enumerate(zip(self.queries, estimates))])
        schedules = {
            "def": scheduling.def_schedule(pool, self.GROUP),
            "random": scheduling.random_schedule(pool, self.GROUP, seed=self.random_seed),
        }
        reports = {name: scheduling.evaluate_schedule(s, pool, budget=self.BUDGET)
                   for name, s in schedules.items()}
        return {"estimates": np.array([_label(e) for e in estimates]),
                "loo": loo.errors_mm[self.loo_rows].copy(),
                "n_loo": loo.errors_mm.size,
                "schedules": schedules, "reports": reports, "pool": pool}

    def _labels(self) -> np.ndarray:
        ox, oy = self.origin
        n = self.n_side
        return np.array([(ox + ix * self.RES_MM, oy + iy * self.RES_MM, HEIGHT_MM)
                         for iy in range(n) for ix in range(n)])

    def _stored(self, i: int) -> np.ndarray:
        return oracles.read_csi1(self.dataset / f"{i:06d}.bin")

    def _stored_chunks(self, problems: list[str], chunk: int = 32):
        """Oracle features of the stored files, read with the oracle's own
        reader, chunk by chunk; also confirms each file holds the float32
        rounding of what set-up synthesized."""
        n = self.n_side ** 2
        for start in range(0, n, chunk):
            hs = [self._stored(i) for i in range(start, min(start + chunk, n))]
            for i, h in enumerate(hs, start):
                if hashlib.blake2b(h.astype(np.complex64).tobytes(),
                                   digest_size=16).digest() != self.digests[i]:
                    problems.append(f"stored sample {i:06d} differs from set-up")
            yield oracles.features(np.stack(hs))

    def _reference(self, problems: list[str]):
        labels = self._labels()
        index_labels = np.array([r[2] for r in _read_index_rows(self.dataset / "index.csv")])
        if not np.array_equal(index_labels, labels):
            problems.append("index labels differ from the grid nodes")
        vectors = np.concatenate([
            oracles.features(np.stack([q.h for q in self.queries])),
            oracles.features(np.stack([self._stored(int(row)) for row in self.loo_rows]))])
        dist = oracles.direct_distances(self._stored_chunks(problems), vectors)
        nq = len(self.queries)
        estimates = np.stack([oracles.knn_direct(dist[b], labels, self.K) for b in range(nq)])
        loo = np.array([np.linalg.norm(oracles.knn_direct(dist[nq + j], labels, self.K,
                                                          exclude=int(row)) - labels[row])
                        for j, row in enumerate(self.loo_rows)])
        node_labels = labels[self.node_queries]
        return {"estimates": estimates, "loo": loo, "node_labels": node_labels}

    def check(self, result, out_dir: Path):
        problems: list[str] = []
        if self._expected is None:
            self._expected = self._reference(problems)
        exp = self._expected
        # the program's read path returns the stored float32 values bit for bit
        index = dataio.load_index(self.dataset / "index.csv")
        for i, (_, s) in enumerate(dataio.iter_samples(index)):
            if hashlib.blake2b(s.h.astype(np.complex64).tobytes(),
                               digest_size=16).digest() != self.digests[i] or \
                    not np.array_equal(s.h, s.h.astype(np.complex64)):
                problems.append(f"sample {i:06d} read back differs from set-up")
        est = result["estimates"]
        failed = 0
        for b in range(len(self.queries)):
            ok = oracles.check_estimate(est[b], exp["estimates"][b])
            if b >= self.N_NOISY:
                ok = ok and oracles.check_estimate(est[b], exp["node_labels"][b - self.N_NOISY],
                                                   self.NODE_ATOL_MM)
            failed += not ok
        if result["n_loo"] != self.n_side ** 2 or not np.all(
                np.abs(result["loo"] - exp["loo"]) <= self.LOO_ATOL_MM):
            problems.append("leave-one-out errors differ from the direct-distance oracle")
        pool = result["pool"]
        for name, schedule in result["schedules"].items():
            problems += _partition_problems(name, schedule, len(pool), self.GROUP)
            for gi, group in enumerate(schedule.groups):
                H = pool.stacked_channels(group)
                got = result["reports"][name].per_group_sum_se[gi]
                if not abs(got - _pinv_sum_se(H, self.BUDGET)) <= oracles.SE_RTOL * abs(got):
                    problems.append(f"{name} group {gi} sum SE differs from the oracle")
        return self.ops_per_round, failed, problems


WORKLOADS = {w.name: w for w in (Campaign, Beamform, Jcas)}
