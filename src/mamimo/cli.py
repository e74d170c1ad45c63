"""Command-line entry point covering every pipeline stage.

All figure-like products are emitted as data files (CSV, 16-bit PGM); there
is no plotting dependency. Every stochastic stage takes the same --seed, so
repeating an invocation with identical arguments reproduces its output
files byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

from . import campaign as camp
from . import channel as chan
from . import dataio, dsp, localization as loc, scheduling as sched
from .geometry import (
    DEFAULT_HEIGHT_MM,
    DEFAULT_STANDOFF_MM,
    build_topology,
    default_positioner_grids,
    grid_positions,
    roi_center,
)
from .model import MAX_USERS, Position3, RadioConfig, SampleGrid, TopologyKind, Traversal

CAPTURE_ADDR_ENV = "CSI_CAPTURE_ADDR"
POSITIONER_ADDR_ENV = "CSI_POSITIONER_ADDR"


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected host:port, port in 0..65535, got {text!r}")
    return host, int(port)


def _parse_point(text: str) -> tuple[float, ...]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected x,y or x,y,z, got {text!r}")
    return tuple(parts)


def _parse_db_range(text: str) -> tuple[float, float]:
    parts = tuple(float(v) for v in text.split(","))
    if len(parts) != 2 or not -math.inf < parts[0] < parts[1] < math.inf:
        raise argparse.ArgumentTypeError(f"expected two increasing values lo,hi, got {text!r}")
    return parts


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _snr(text: str) -> float:
    return math.inf if text.lower() in ("inf", "none", "off") else _finite(text)


def _geometry(args):
    return build_topology(args.topology, standoff_mm=getattr(args, "standoff_mm", DEFAULT_STANDOFF_MM))


def _point(xy_or_xyz) -> Position3:
    """An x,y[,z] option as a position; z defaults to the standard height."""
    return Position3(*(*xy_or_xyz, DEFAULT_HEIGHT_MM)[:3])


def _grid(args) -> SampleGrid:
    origin = args.origin_mm or (-args.extent_mm / 2.0, args.standoff_mm)
    return SampleGrid(origin=_point(origin),
                      x_extent_mm=args.extent_mm, y_extent_mm=args.extent_mm,
                      resolution_mm=args.resolution_mm)


def _add_common(parser, extent=100.0, resolution=25.0, origin=True):
    parser.add_argument("--topology", choices=[k.value for k in TopologyKind], default="ura")
    parser.add_argument("--extent-mm", type=float, default=extent)
    parser.add_argument("--resolution-mm", type=float, default=resolution)
    if origin:
        parser.add_argument("--origin-mm", type=_parse_point, default=None,
                            help="grid origin x,y[,z] in mm (default: centred on x=0 at the "
                                 "standoff, z at the standard height)")
    parser.add_argument("--standoff-mm", type=float, default=DEFAULT_STANDOFF_MM)
    parser.add_argument("--snr-db", type=_snr, default=math.inf,
                        help="per-sample SNR in dB, or 'inf' for noiseless")
    parser.add_argument("--scatterers", default=None,
                        help="CSV of single-bounce reflectors (x_mm,y_mm,z_mm,gamma_re,gamma_im)")
    parser.add_argument("--seed", type=int, default=0)


def _scatterers(args):
    if args.scatterers is None:
        return []
    return chan.load_scatterers(args.scatterers)


def _synth_samples(args, grid: SampleGrid, stream: int, snr_db: float, user_id=0):
    """One sample per grid node, in raster order, with ids 000000, 000001, ..."""
    geometry = _geometry(args)
    radio = RadioConfig()
    scatterers = _scatterers(args)
    for i, pos in enumerate(grid_positions(grid)):
        yield chan.synthesize_sample(geometry, pos, radio, scatterers=scatterers,
                                     snr_db=snr_db, seed=args.seed, stream=stream,
                                     user_id=user_id, sample_id=f"{i:06d}")


def _cmd_synth(args) -> int:
    grid = _grid(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for sample in _synth_samples(args, grid, chan.STREAM_GRID, args.snr_db,
                                 user_id=args.user_id):
        path = out / f"{sample.sample_id}.bin"
        dataio.write_sample(path, sample)
        records.append(dataio.SampleRecord(sample.sample_id, path, sample.label, sample.user_id))
    index = dataio.DatasetIndex(records=records, topology=args.topology, radio=RadioConfig())
    dataio.save_index(out / "index.csv", index)
    print(f"wrote {len(records)} samples and index.csv to {out}")
    return 0


def _cmd_campaign(args) -> int:
    grids = default_positioner_grids(standoff_mm=args.standoff_mm,
                                     extent_mm=args.extent_mm,
                                     resolution_mm=args.resolution_mm)[: args.positioners]
    plan = camp.plan_full_campaign(grids, Traversal(args.pattern))
    geometry = _geometry(args)
    index = camp.simulate_campaign(plan, geometry, RadioConfig(), args.out,
                                   topology=args.topology, snr_db=args.snr_db,
                                   seed=args.seed, scatterers=_scatterers(args),
                                   positioner_error_mm=args.positioner_error_mm,
                                   capture_address=args.capture_addr,
                                   positioner_address=args.positioner_addr)
    print(f"campaign complete: {len(index)} samples in {args.out} "
          f"(estimated live duration {plan.duration_estimate_s:.1f} s)")
    return 0


def _cmd_serve_capture(args) -> int:
    geometry = _geometry(args)
    radio = RadioConfig()
    pos = _point(args.position)

    def source(sample_id):
        return chan.synthesize_sample(geometry, pos, radio, snr_db=args.snr_db, seed=args.seed,
                                      stream=chan.STREAM_CAPTURE, user_id=args.user_id,
                                      sample_id=sample_id)

    Path(args.out).mkdir(parents=True, exist_ok=True)
    with (camp.CaptureService(args.out, source, address=args.addr) as service,
          contextlib.suppress(KeyboardInterrupt)):
        print(f"capture service on {service.address[0]}:{service.address[1]}, "
              f"writing to {args.out} (Ctrl-C to stop)", flush=True)
        threading.Event().wait()
    return 0


def _cmd_powermap(args) -> int:
    geometry = _geometry(args)
    radio = RadioConfig()
    grid = _grid(args)
    target_pos = _point(args.target)
    target = chan.synthesize_sample(geometry, target_pos, radio, scatterers=_scatterers(args),
                                    snr_db=args.snr_db, seed=args.seed, stream=chan.STREAM_TARGET)
    samples = _synth_samples(args, grid, chan.STREAM_GRID, args.snr_db)
    raw = dsp.power_map(grid, samples, target,
                        scheme=dsp.PrecodingScheme(args.scheme))
    pmap = dsp.normalize_power_maps([raw])[0]
    out = Path(args.out)
    dsp.power_map_to_pgm(pmap, out, db_range=args.db_range)
    csv_path = out.with_suffix(".csv")
    dsp.power_map_to_csv(pmap, csv_path)
    iy, ix = pmap.argmax_node()
    peak = pmap.node_position(iy, ix)
    print(f"wrote {out} and {csv_path}; peak node at ({peak.x}, {peak.y}) mm")
    return 0


def _cmd_schedule(args) -> int:
    geometry = _geometry(args)
    radio = RadioConfig()
    rng = np.random.default_rng(args.seed)
    center = roi_center(standoff_mm=args.standoff_mm)
    half = args.roi_mm / 2.0
    users = []
    for i in range(args.users):
        pos = Position3(center.x + rng.uniform(-half, half),
                        center.y + rng.uniform(-half, half), DEFAULT_HEIGHT_MM)
        sample = chan.synthesize_sample(geometry, pos, radio, snr_db=args.snr_db,
                                        seed=args.seed, stream=chan.STREAM_POOL,
                                        user_id=i % MAX_USERS, sample_id=f"{i:06d}")
        users.append(sched.PoolUser(i, sample, pos))
    pool = sched.UserPool(users)
    budget = dsp.LinkBudget(args.tx_power, args.noise_power)

    schedules = {
        "def": sched.def_schedule(pool, args.group_size),
        "random": sched.random_schedule(pool, args.group_size,
                                        seed=(args.seed, chan.STREAM_GROUPING)),
    }
    sus_order = sched.sus_select(pool, alpha=args.alpha, max_users=args.group_size)
    schedules["sus"] = sched.Schedule(groups=[sus_order], group_size=max(len(sus_order), 1))
    for name in ("def", "random"):
        report = sched.evaluate_schedule(schedules[name], pool, budget=budget)
        print(f"{name:6s} mean sum SE {report.mean_sum_se:8.3f} bits/s/Hz   "
              f"min intra-group distance {report.min_intra_group_distance_mm:8.1f} mm")
    report = sched.evaluate_schedule(schedules["sus"], pool, budget=budget)
    print(f"sus    group sum SE {report.per_group_sum_se[0]:8.3f} bits/s/Hz   "
          f"({len(sus_order)} users selected)")
    sched.schedule_to_csv(schedules[args.algorithm], pool, args.out)
    print(f"wrote {args.algorithm} schedule to {args.out}")
    return 0


def _cmd_locate(args) -> int:
    grid = _grid(args)
    db = loc.build_fingerprints(_synth_samples(args, grid, chan.STREAM_GRID, args.snr_db),
                                loc.FeatureConfig(), topology=args.topology)
    if args.loo:
        report = loc.leave_one_out_report(db, k=args.k)
    else:
        queries = _synth_samples(args, grid, chan.STREAM_QUERY, args.query_snr_db)
        report = loc.evaluate_localizer(db, queries, k=args.k)
    loc.report_to_csv(report, args.out)
    print(f"localization over {len(report.errors_mm)} queries: "
          f"mean {report.mean_mm:.2f} mm, median {report.median_mm:.2f} mm, "
          f"p95 {report.p95_mm:.2f} mm -> {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    path = Path(args.file)
    sample = dataio.read_sample(path)
    size = dataio.sample_file_size(sample.n_antennas, sample.n_subcarriers)
    print(f"{path}: CSI container v{dataio.VERSION} "
          f"M={sample.n_antennas} F={sample.n_subcarriers} size={size} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mamimo",
        description="Massive MIMO CSI toolkit: synthetic data sets, campaign "
                    "simulation, power maps, scheduling and localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled data set")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--user-id", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("campaign", help="run the automated measurement campaign simulator")
    _add_common(p, extent=20.0, resolution=5.0, origin=False)  # the tables fix the origins
    p.add_argument("--out", required=True)
    p.add_argument("--positioners", type=int, choices=range(1, 5), default=1)
    p.add_argument("--pattern", choices=[t.value for t in Traversal], default="serpentine")
    p.add_argument("--positioner-error-mm", type=float, default=0.0)
    # string defaults from the environment are parsed only when this subcommand runs
    p.add_argument("--capture-addr", type=_parse_address,
                   default=os.environ.get(CAPTURE_ADDR_ENV, "127.0.0.1:0"))
    p.add_argument("--positioner-addr", type=_parse_address,
                   default=os.environ.get(POSITIONER_ADDR_ENV, "127.0.0.1:0"),
                   help="where to serve the virtual tables, one port per table from "
                        "this one (port 0 picks free ports)")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("serve-capture", help="run the TCP capture-trigger service")
    p.add_argument("--topology", choices=[k.value for k in TopologyKind], default="ura")
    p.add_argument("--out", required=True)
    p.add_argument("--addr", type=_parse_address,
                   default=os.environ.get(CAPTURE_ADDR_ENV, "127.0.0.1:7531"))
    p.add_argument("--position", type=_parse_point, default=(0.0, 1500.0),
                   help="fixed synthetic user position x,y[,z] in mm")
    p.add_argument("--snr-db", type=_snr, default=math.inf)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--user-id", type=int, default=0)
    p.set_defaults(func=_cmd_serve_capture)

    p = sub.add_parser("powermap", help="beamforming power map as PGM + CSV")
    _add_common(p, extent=1250.0, resolution=25.0)
    p.add_argument("--target", type=_parse_point, required=True,
                   help="beamforming target x,y[,z] in mm")
    p.add_argument("--out", required=True, help="output PGM path (CSV written beside it)")
    p.add_argument("--scheme", choices=[s.value for s in dsp.PrecodingScheme], default="mrt")
    p.add_argument("--db-range", type=_parse_db_range, default=(-40.0, 0.0),
                   help="dB range lo,hi (lo < hi) mapped onto the 16-bit gray scale")
    p.set_defaults(func=_cmd_powermap)

    p = sub.add_parser("schedule", help="compare user-grouping algorithms on a synthetic pool")
    p.add_argument("--topology", choices=[k.value for k in TopologyKind], default="ura")
    p.add_argument("--standoff-mm", type=float, default=DEFAULT_STANDOFF_MM)
    p.add_argument("--roi-mm", type=_finite, default=2500.0)
    p.add_argument("--users", type=int, default=24)
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--algorithm", choices=["def", "sus", "random"], default="def")
    p.add_argument("--snr-db", type=_snr, default=math.inf)
    p.add_argument("--tx-power", type=float, default=1.0)
    p.add_argument("--noise-power", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("locate", help="build a fingerprint database and report errors")
    _add_common(p, extent=100.0, resolution=5.0)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--loo", action="store_true", help="leave-one-out instead of noisy queries")
    p.add_argument("--query-snr-db", type=_snr, default=20.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("inspect", help="print a sample file header")
    p.add_argument("file")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, dataio.DatasetIOError, camp.CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
