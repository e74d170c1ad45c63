"""Spans around the calls into each mamimo module, from the benchmark's side.

The tracer replaces public functions (and two methods the campaign calls
internally) by wrappers that record a span: layer, function, phase, thread,
start, end and parent span. A function imported by name into another
mamimo module is replaced there too, so internal calls are seen. Nothing in
the program is edited, and ``uninstall`` puts every original back, so
traced and untraced rounds alternate in one process.

A span's self time is its duration minus the time its direct child spans
(same thread) cover. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import tracemalloc

import numpy as np

LAYERS = ("geometry", "channel", "dataio", "campaign", "dsp", "scheduling", "localization")

# (layer, module attribute path) of every traced callable.
TRACED = [
    ("geometry", "geometry.grid_positions"),
    ("geometry", "geometry.default_positioner_grids"),
    ("geometry", "geometry.build_topology"),
    ("channel", "channel.los_channel"),
    ("channel", "channel.multipath_channel"),
    ("channel", "channel.add_noise"),
    ("dataio", "dataio.write_sample"),
    ("dataio", "dataio.read_sample"),
    ("dataio", "dataio.load_index"),
    ("dataio", "dataio.save_index"),
    ("campaign", "campaign.simulate_campaign"),
    ("campaign", "campaign.trigger_capture"),
    ("campaign", "campaign.TcpPositioner.execute"),
    ("campaign", "campaign.CaptureService._handle"),
    ("dsp", "dsp.power_map"),
    ("dsp", "dsp.normalize_power_maps"),
    ("dsp", "dsp.power_map_to_pgm"),
    ("dsp", "dsp.power_map_to_csv"),
    ("dsp", "dsp.zf_weights"),
    ("dsp", "dsp.group_spectral_efficiency"),
    ("dsp", "dsp.max_served_users"),
    ("scheduling", "scheduling.sus_select"),
    ("scheduling", "scheduling.def_schedule"),
    ("scheduling", "scheduling.random_schedule"),
    ("scheduling", "scheduling.evaluate_schedule"),
    ("localization", "localization.build_fingerprints"),
    ("localization", "localization.knn_locate"),
    ("localization", "localization.leave_one_out_report"),
]

# Per-layer metrics: name -> unit. Reported for every workload; a layer the
# workload does not call reads 0.
METRIC_UNITS = {
    "geometry.plan_s": "s",
    "geometry.grid_s": "s",
    "channel.synth_ms": "ms/sample",
    "channel.noise_ms": "ms/sample",
    "channel.paths": "count",
    "dataio.write_ms": "ms/sample",
    "dataio.read_ms": "ms/sample",
    "dataio.index_s": "s",
    "dataio.bytes_written": "B",
    "dataio.bytes_read": "B",
    "campaign.trigger_rtt_ms.p50": "ms",
    "campaign.trigger_rtt_ms.p99": "ms",
    "campaign.capture_ms": "ms/trigger",
    "campaign.positioner_cmd_ms.p50": "ms",
    "campaign.connections": "count/round",
    "dsp.power_map_s": "s/map",
    "dsp.zf_weights_ms": "ms/call",
    "dsp.zf_calls": "count",
    "dsp.served_users_s": "s",
    "dsp.export_s": "s",
    "scheduling.sus_s": "s",
    "scheduling.def_s": "s",
    "scheduling.evaluate_s": "s",
    "localization.build_s": "s",
    "localization.feature_mib": "MiB",
    "localization.query_ms.p50": "ms/query",
    "localization.query_bytes": "B/query",
    "localization.loo_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class _Span:
    __slots__ = ("layer", "name", "phase", "thread", "t0", "t1", "parent", "child_s")

    def __init__(self, layer, name, phase, thread, t0, parent):
        self.layer, self.name, self.phase, self.thread = layer, name, phase, thread
        self.t0, self.t1, self.parent, self.child_s = t0, 0.0, parent, 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class _CountingSocket:
    """Stands in for the ``socket`` module inside ``mamimo.campaign`` and
    counts the client connections it opens."""

    def __init__(self, tracer):
        self._tracer = tracer

    def create_connection(self, *args, **kwargs):
        self._tracer.count("connections")
        return socket.create_connection(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(socket, name)


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.values: dict[str, float] = {}
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._queries: dict[str, tuple[tuple, dict]] = {}

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            k = (self.phase, key)
            self.counters[k] = self.counters.get(k, 0.0) + amount

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span = _Span(layer, name, tracer.phase, threading.get_ident(),
                         time.perf_counter(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
                with tracer._lock:
                    tracer.spans.append(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def replay_query(self) -> None:
        """Repeat the phase's first ``knn_locate`` call, untraced and outside
        any timed region, under ``tracemalloc``: the peak bytes one query
        allocates. Call it after ``uninstall``, so the timed query spans
        never run with ``tracemalloc`` on."""
        from mamimo import localization

        call = self._queries.pop(self.phase, None)
        self._queries.clear()
        if call is None:
            return
        args, kwargs = call
        tracemalloc.start()
        try:
            localization.knn_locate(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.count("query_bytes", peak)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every traced callable wherever mamimo refers to it."""
        import mamimo
        from mamimo import campaign

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mamimo" or n.startswith("mamimo."))]
        for layer, path in TRACED:
            parts = path.split(".")
            owner = getattr(mamimo, parts[0])
            for part in parts[1:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(layer, parts[-1], original)
            if isinstance(owner, type):
                self._replace(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        self._replace(campaign, "socket", _CountingSocket(self))

    def _replace(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self, traced_rounds: list[str], overhead_s: float) -> dict[str, float]:
        """Per-layer metrics: per-round figures are medians over the traced
        rounds; per-call figures pool the calls of set-up and those rounds."""
        phases = set(traced_rounds) | {"setup"}
        spans = [s for s in self.spans if s.phase in phases]

        def durations(*names):
            return np.array([s.dur for s in spans if s.name in names])

        def per_call_ms(*names):
            d = durations(*names)
            return float(d.mean() * 1e3) if d.size else 0.0

        def pct_ms(q, *names):
            d = durations(*names)
            return float(np.percentile(d, q) * 1e3) if d.size else 0.0

        def per_round(value_of_round):
            vals = [value_of_round(r) for r in traced_rounds]
            return float(np.median(vals)) if vals else 0.0

        def round_total(*names):
            return per_round(lambda r: sum(s.dur for s in spans
                                           if s.phase == r and s.name in names))

        def round_count(key):
            return per_round(lambda r: self.counters.get((r, key), 0.0))

        def layer_self(layer, phase):
            return sum(s.self_s for s in spans if s.phase == phase and s.layer == layer)

        out = {
            "geometry.plan_s": layer_self("geometry", "setup"),
            "geometry.grid_s": per_round(lambda r: layer_self("geometry", r)),
            "channel.synth_ms": per_call_ms("los_channel", "multipath_channel"),
            "channel.noise_ms": per_call_ms("add_noise"),
            "channel.paths": round_count("paths"),
            "dataio.write_ms": per_call_ms("write_sample"),
            "dataio.read_ms": per_call_ms("read_sample"),
            "dataio.index_s": round_total("load_index", "save_index"),
            "dataio.bytes_written": round_count("bytes_written"),
            "dataio.bytes_read": round_count("bytes_read"),
            "campaign.trigger_rtt_ms.p50": pct_ms(50, "trigger_capture"),
            "campaign.trigger_rtt_ms.p99": pct_ms(99, "trigger_capture"),
            "campaign.capture_ms": per_call_ms("_handle"),
            "campaign.positioner_cmd_ms.p50": pct_ms(50, "execute"),
            "campaign.connections": round_count("connections"),
            "dsp.power_map_s": per_call_ms("power_map") / 1e3,
            "dsp.zf_weights_ms": per_call_ms("zf_weights"),
            "dsp.zf_calls": per_round(lambda r: sum(1 for s in spans if s.phase == r
                                                    and s.name == "zf_weights")),
            "dsp.served_users_s": round_total("max_served_users"),
            "dsp.export_s": round_total("power_map_to_pgm", "power_map_to_csv"),
            "scheduling.sus_s": round_total("sus_select"),
            "scheduling.def_s": round_total("def_schedule"),
            "scheduling.evaluate_s": round_total("evaluate_schedule"),
            "localization.build_s": round_total("build_fingerprints"),
            "localization.feature_mib": self.values.get("feature_mib", 0.0),
            "localization.query_ms.p50": pct_ms(50, "knn_locate"),
            "localization.query_bytes": round_count("query_bytes"),
            "localization.loo_s": round_total("leave_one_out_report"),
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_round(lambda r, layer=layer: layer_self(layer, r))
        return out

    def dump(self, path) -> None:
        """Write every span as [layer, name, phase, thread, t0, t1, parent]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.layer, s.name, s.phase, s.thread, s.t0, s.t1,
                 index.get(id(s.parent)) if s.parent is not None else None]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows,
                       "counters": {f"{p}/{k}": v for (p, k), v in self.counters.items()}}, fh)


def _after_synth(tracer, args, kwargs, result):
    tracer.count("paths", 1.0)


def _after_multipath(tracer, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    scatterers = args[4] if len(args) > 4 else kwargs["scatterers"]
    tracer.count("paths", len(scatterers) + (1 if cfg.include_los else 0))


def _after_write(tracer, args, kwargs, result):
    tracer.count("bytes_written", result)


def _after_read(tracer, args, kwargs, result):
    tracer.count("bytes_read", 12 + 8 * result.h.size)


def _after_query(tracer, args, kwargs, result):
    tracer._queries.setdefault(tracer.phase, (args, kwargs))


def _after_build(tracer, args, kwargs, result):
    tracer.values["feature_mib"] = result.features.nbytes / 2**20


_AFTER = {
    "los_channel": _after_synth,
    "multipath_channel": _after_multipath,
    "write_sample": _after_write,
    "read_sample": _after_read,
    "build_fingerprints": _after_build,
    "knn_locate": _after_query,
}
