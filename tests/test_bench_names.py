"""The names the benchmark reads from mamimo still exist.

``bench/`` calls the program through its public names (and a few internal
ones the tracer wraps), and reads attributes of the objects they return.
Deleting or renaming one, or a parameter that ``bench/`` passes, breaks
``bench/run.py`` without failing any other test, so these checks resolve
every such name and bind every such call.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

from mamimo import campaign, channel, dsp, geometry, localization, scheduling
from mamimo.model import Position3, RadioConfig, SampleGrid

from conftest import small_ura

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _missing(names) -> list[str]:
    """Which (module, dotted attribute) pairs do not resolve."""
    missing = []
    for module, dotted in sorted(names):
        try:
            functools.reduce(getattr, dotted.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{dotted}")
    return missing


def _mamimo_uses(tree: ast.AST) -> dict[ast.AST, tuple[str, str]]:
    """(module, dotted attribute) of every node that reads a name from a mamimo
    module: ``from mamimo.x import y`` imports and their uses, and ``x.y.z``
    chains on a module bound by ``from mamimo import x``."""
    modules, imported, uses = {}, {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mamimo":
            for alias in node.names:
                if node.module == "mamimo":
                    modules[alias.asname or alias.name] = f"mamimo.{alias.name}"
                else:
                    imported[alias.asname or alias.name] = uses[alias] = (node.module, alias.name)
    for node in ast.walk(tree):
        chain, value = [], node
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        if chain and isinstance(value, ast.Name) and value.id in modules:
            uses[node] = (modules[value.id], ".".join(reversed(chain)))
        elif isinstance(value, ast.Name) and value.id in imported:
            module, name = imported[value.id]
            uses[node] = (module, ".".join([name, *reversed(chain)]))
    return uses


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_traced_paths_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    paths = (path.split(".", 1) for _, path in tracing.TRACED)
    traced = {(f"mamimo.{module}", dotted) for module, dotted in paths}
    assert not _missing(traced), "bench/tracing.py wraps names mamimo no longer has"


def test_names_read_by_workloads_exist():
    reads = set(_mamimo_uses(_parse(BENCH / "workloads.py")).values())
    assert reads
    assert not _missing(reads), "bench/workloads.py reads names mamimo no longer has"


def test_calls_by_workloads_bind_to_the_signatures():
    # the count of positional arguments and the keyword names of each call
    tree = _parse(BENCH / "workloads.py")
    uses = _mamimo_uses(tree)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and node.func in uses]
    assert calls
    unbound = []
    for call in calls:
        module, dotted = uses[call.func]
        obj = functools.reduce(getattr, dotted.split("."), importlib.import_module(module))
        positional = sum(not isinstance(arg, ast.Starred) for arg in call.args)
        keywords = dict.fromkeys(kw.arg for kw in call.keywords if kw.arg is not None)
        try:
            inspect.signature(obj).bind_partial(*[None] * positional, **keywords)
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {module}.{dotted}: {exc}")
    assert not unbound, f"bench/workloads.py passes arguments mamimo no longer takes: {unbound}"


def test_instance_attributes_read_by_bench_exist():
    # the AST guard above cannot see attributes of returned objects; these are
    # the ones bench/workloads.py and bench/tracing.py read, on tiny objects
    ura, radio = small_ura(), RadioConfig()
    grid = SampleGrid(origin=Position3(0.0, 1500.0, 1000.0), x_extent_mm=5.0,
                      y_extent_mm=0.0, resolution_mm=5.0)
    plan = campaign.plan_full_campaign([grid])
    samples = [channel.los_channel(ura, p, radio) for p in plan.waypoints[0]]
    db = localization.build_fingerprints(samples)
    pool = scheduling.UserPool([scheduling.PoolUser(i, s, s.label) for i, s in enumerate(samples)])
    schedule = scheduling.def_schedule(pool, 2)
    objects = {
        "ChannelConfig": (channel.ChannelConfig(), ["include_los"]),
        "CampaignPlan": (plan, ["waypoints", "grids"]),
        "waypoint": (plan.waypoints[0][0], ["x", "y", "z"]),
        "SampleGrid": (grid, ["origin", "resolution_mm", "nx", "ny"]),
        "CsiSample": (samples[0], ["h", "sample_id"]),
        "PowerMap": (dsp.power_map(grid, samples, samples[0]), ["values"]),
        "PrecodingWeights": (dsp.zf_weights(samples[0].h[None]), ["w"]),
        "LinkBudget": (dsp.LinkBudget(), ["total_tx_power", "noise_power"]),
        "FingerprintDb": (db, ["features"]),
        "LocalizationReport": (localization.leave_one_out_report(db, k=1), ["errors_mm"]),
        "UserPool": (pool, ["users", "stacked_channels"]),
        "PoolUser": (pool.users[0], ["csi"]),
        "Schedule": (schedule, ["groups"]),
        "ScheduleReport": (scheduling.evaluate_schedule(schedule, pool), ["per_group_sum_se"]),
    }
    missing = [f"{kind}.{attr}" for kind, (obj, attrs) in objects.items()
               for attr in attrs if not hasattr(obj, attr)]
    assert not missing, f"bench/ reads attributes mamimo no longer has: {missing}"

    # Campaign.setup slices every slot, builds a plan from the slices, and its
    # check iterates them and compares float coordinates with index.csv
    full = campaign.plan_full_campaign(geometry.default_positioner_grids(extent_mm=10.0))
    part = campaign.CampaignPlan(waypoints=[w[1:3] for w in full.waypoints], grids=full.grids)
    labels = [(p.x, p.y, p.z) for wps in part.waypoints for p in wps]
    assert len(labels) == 8 and all(type(v) is float for label in labels for v in label)
    assert labels[:2] == [(q.x, q.y, q.z) for q in list(full.waypoints[0])[1:3]]
