"""mamimo benchmark: the campaign, beamform and jcas workloads.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

Without ``--workload`` all three run in turn. Each workload runs in fresh
interpreters: a few that only set up, then one that sets
up, runs an untimed warm-up round and then timed rounds until their total
reaches ``--seconds``. Every round's outputs are checked against the
oracles outside the timed region. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). A ``#`` line before it records the run's conditions.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "_runs"
TRACE_DIR = BENCH_DIR / "_traces"

WORKLOAD_NAMES = ("campaign", "beamform", "jcas")
# Set-ups per run (median reported); jcas writes a 133 MB data set in each.
SETUP_REPEATS = {"campaign": 5, "beamform": 5, "jcas": 3}
MIN_ROUNDS = 3
# A run must end within 180 s; its interpreters share this budget.
RUN_BUDGET_S = 170
# Every workload interpreter runs on one CPU, with single-threaded BLAS and
# without numpy's huge-page advice (read when numpy loads). On two shared
# vCPUs, a campaign trigger's hand-off between threads and a two-thread
# BLAS product both wait for the slower vCPU; with huge pages, the cost of
# faulting in large arrays follows how fragmented the host's free memory
# is. See README, Known noise sources.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}

END_TO_END_UNITS = {"round_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


# ---------------------------------------------------------------------------
# run conditions
# ---------------------------------------------------------------------------

def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks since boot, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from mountinfo)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


# ---------------------------------------------------------------------------
# child: one fresh interpreter
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import mamimo
    from workloads import WORKLOADS

    if Path(mamimo.__file__).resolve().parent != SRC / "mamimo":
        raise RuntimeError(f"imported mamimo from {mamimo.__file__}, not {SRC}")
    run_dir = Path(args.run_dir)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - args.t0
    if tracer is not None:
        tracer.uninstall()
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = failed = 0
    problems: list[str] = []
    times = {"plain": [], "traced": []}

    def one_round(tag: str, traced: bool) -> float:
        nonlocal attempted, failed
        out_dir = run_dir / tag
        out_dir.mkdir()
        gc.collect()
        if traced:
            tracer.phase = tag
            tracer.install()
        t = time.perf_counter()
        try:
            result, error = workload.run_round(out_dir), None
        except Exception:  # a failing round is counted, and the run goes on
            result, error = None, traceback.format_exc()
        dt = time.perf_counter() - t
        if traced:
            tracer.uninstall()
            tracer.replay_query()
        if result is not None:
            try:
                a, f, p = workload.check(result, out_dir)
            except Exception:  # output too malformed to check op by op
                error = traceback.format_exc()
        if error is not None:
            a, f, p = workload.ops_per_round, workload.ops_per_round, [error]
        del result
        attempted += a
        failed += f
        problems.extend(f"{tag}: {m}" for m in p)
        shutil.rmtree(out_dir)
        return dt

    one_round("warmup", False)
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        dt = one_round(f"round{n:03d}", traced)
        times["traced" if traced else "plain"].append(dt)
        n += 1
        total = sum(times["plain"]) + sum(times["traced"])
        enough = min(len(times["plain"]), len(times["traced"]) if tracer else n) >= (
            2 if tracer else MIN_ROUNDS)
        if total >= args.seconds and enough:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "correct": not problems and failed == 0,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "round_times_s": times["plain"],
        "peak_rss_mib": peak_rss_mib,
        "blas_threads": blas_threads(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        overhead = statistics.median(times["traced"]) - statistics.median(times["plain"])
        traced_tags = [f"round{i:03d}" for i in range(n) if i % 2 == 1]
        out["layers"] = tracer.metrics(traced_tags, overhead)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn the interpreters, aggregate, report
# ---------------------------------------------------------------------------

def spawn(role: str, args, workload: str, run_dir: Path, deadline: float) -> dict:
    run_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    timeout = max(deadline - t0, 1.0)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              cwd=ROOT, env={**os.environ, **CHILD_ENV})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {role} interpreter exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> dict:
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR))
    steal0, total0 = cpu_ticks()
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS[workload] - 1):
                setups.append(spawn("setup", args, workload, run_dir / f"setup{i}",
                                    deadline)["setup_s"])
        full = spawn("full", args, workload, run_dir / "full", deadline)
        setups.append(full["setup_s"])
        fstype = filesystem_of(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal1, total1 = cpu_ticks()

    if args.trace:
        from tracing import METRIC_UNITS

        metrics = {k: {"value": v, "unit": METRIC_UNITS[k]} for k, v in full["layers"].items()}
    else:
        values = {"round_s": statistics.median(full["round_times_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": full["peak_rss_mib"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(full["round_times_s"]), "round_times_s": full["round_times_s"],
        "setup_times_s": setups, "attempted": full["attempted"], "failed": full["failed"],
        "problems": full["problems"], "blas_threads": full["blas_threads"],
        "cpus": full["cpus"],
        "output_fs": fstype, "steal_ticks": [steal0, steal1],
        "steal_share": (steal1 - steal0) / max(total1 - total0, 1),
        "python": full["python"], "numpy": full["numpy"],
    }
    print("# " + json.dumps(info))
    for problem in full["problems"]:
        print(f"# problem: {problem.strip().splitlines()[-1]}", file=sys.stderr)
    return {"correct": full["correct"], "attempted": full["attempted"],
            "failed": full["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "full"), help=argparse.SUPPRESS)
    parser.add_argument("--run-dir", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if not (SRC / "mamimo" / "__init__.py").is_file():
        print(f"error: no mamimo sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    for workload in ([args.workload] if args.workload else WORKLOAD_NAMES):
        try:
            result = run_workload(workload, args)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
