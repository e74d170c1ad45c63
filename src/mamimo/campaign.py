"""Automated measurement-campaign simulation.

The moving parts mirror a real channel-sounding rig: xy-positioner tables
speaking a tiny G-code-style text protocol, a TCP capture service at the
base station that snapshots one CSI sample per 6-byte trigger and writes it
to disk, and a campaign runner that drives up to four positioners over
their grids round-robin, one in-flight trigger at a time, in the order of
the plan's one trigger schedule, ``CampaignPlan.triggers``. Runner and
capture service communicate only through the TCP trigger contract, so the
service can live in another thread or another process.

The simulation runs as fast as the TCP round trips allow and never sleeps;
a plan's ``duration_estimate_s`` gives the live duration from the per-node
step time of the real tables. A table's waypoints are one array, ``Positions``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import re
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channel as chan
from .dataio import DatasetIndex, SampleRecord, save_index, write_sample
from .geometry import default_positioner_grids, grid_positions
from .model import (
    ArrayGeometry,
    CsiSample,
    Position3,
    Positions,
    RadioConfig,
    SAMPLE_ID_PATTERN,
    SampleGrid,
    Traversal,
)

ACK = b"\x06"
NAK = b"\x15"

#: Worst-case positioning error of the real tables, millimetres.
ACCURACY_BOUND_MM = 0.1

#: Live time per grid node of the real tables (move, settle, capture), seconds.
STEP_S = 0.7

#: Longest wait on a socket, seconds; a capture waits a fifth of it for the trigger.
TIMEOUT_S = 5.0

_TRIGGER_ID_RE = re.compile(r"[0-9]{6}")

_MOVE_RE = re.compile(r"^G0\s+X(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s+Y(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)$")


class CampaignError(Exception):
    """A waypoint failed; the message identifies positioner and node."""


# ---------------------------------------------------------------------------
# traversal planning
# ---------------------------------------------------------------------------

@dataclass
class CampaignPlan:
    """One read-only ``Positions`` of waypoints per slot (a list is wrapped), with the grids."""

    waypoints: list[Positions]
    grids: list[SampleGrid]

    def __post_init__(self):
        if len(self.waypoints) != len(self.grids):
            raise ValueError("one waypoint list per grid required")
        if len(self.grids) > 4:
            raise ValueError("at most 4 positioners are supported")
        self.waypoints = [w if isinstance(w, Positions) else Positions(w) for w in self.waypoints]
        for wps, grid in zip(self.waypoints, self.grids):
            o, x, y = grid.origin, wps.xyz[:, 0], wps.xyz[:, 1]
            outside = ~((o.x <= x) & (x <= o.x + grid.x_extent_mm)
                        & (o.y <= y) & (y <= o.y + grid.y_extent_mm))
            if outside.any():
                p = wps[int(outside.argmax())]
                raise ValueError(f"waypoint ({p.x}, {p.y}) outside positioner "
                                 f"{grid.positioner_id} work area")

    @property
    def total_waypoints(self) -> int:
        return sum(len(w) for w in self.waypoints)

    @property
    def waypoints_per_positioner(self) -> list[int]:
        return [len(w) for w in self.waypoints]

    @property
    def duration_estimate_s(self) -> float:
        # positioners run concurrently; the longest traversal sets the pace
        longest = max((len(w) for w in self.waypoints), default=0)
        return longest * STEP_S

    @functools.cached_property
    def triggers(self) -> np.ndarray:
        """Read-only (N, 2) ints: row n is the (slot, step) of trigger n, round-robin.

        Every table's step s comes in slot order, then step s + 1; a table
        that has run out of waypoints drops out. Built on first use.
        """
        lengths = np.array(self.waypoints_per_positioner, dtype=np.intp)
        steps, slots = np.nonzero(np.arange(lengths.max(initial=0))[:, None] < lengths)
        triggers = np.column_stack((slots, steps))
        triggers.flags.writeable = False
        return triggers


def plan_traversal(grid: SampleGrid, pattern: Traversal = Traversal.SERPENTINE) -> CampaignPlan:
    """Plan a scan of one positioner grid, visiting every node exactly once."""
    return CampaignPlan(waypoints=[grid_positions(grid, pattern)], grids=[grid])


def plan_full_campaign(grids, pattern: Traversal = Traversal.SERPENTINE) -> CampaignPlan:
    """Plan a scan of several positioner grids driven in the same run."""
    grids = list(grids)
    return CampaignPlan(waypoints=[grid_positions(g, pattern) for g in grids], grids=grids)


def default_campaign_plan() -> CampaignPlan:
    """The full four-positioner dense serpentine scan at 5 mm resolution."""
    return plan_full_campaign(default_positioner_grids())


# ---------------------------------------------------------------------------
# virtual positioner and its text protocol
# ---------------------------------------------------------------------------

class VirtualPositioner:
    """A positioner table driven by a G-code-style line protocol.

    Commands (LF-terminated ASCII): ``G28`` homes to (0, 0); ``G0 X<mm>
    Y<mm>`` moves within the work area. Replies are ``ok``, ``error:parse``,
    ``error:unhomed`` or ``error:bounds``, each LF-terminated. Coordinates
    are local to the table. An optional error injector (bounded by the real
    tables' 0.1 mm accuracy) perturbs the physical position while the
    commanded position stays exact.
    """

    def __init__(self, x_extent_mm: float = 1250.0, y_extent_mm: float = 1250.0,
                 max_error_mm: float = 0.0, seed: int | tuple[int, ...] = 0):
        if not 0 <= max_error_mm <= ACCURACY_BOUND_MM:  # NaN fails too
            raise ValueError(f"max_error_mm must be in [0, {ACCURACY_BOUND_MM}]")
        self.x_extent_mm = x_extent_mm
        self.y_extent_mm = y_extent_mm
        self.max_error_mm = max_error_mm
        self.homed = False
        self.position_mm = (0.0, 0.0)  # commanded, local frame
        self._jitter = (0.0, 0.0)
        self._rng = np.random.default_rng(seed)

    @property
    def actual_position_mm(self) -> tuple[float, float]:
        """Physical position: commanded plus the injected error, if any."""
        return (self.position_mm[0] + self._jitter[0], self.position_mm[1] + self._jitter[1])

    def _draw_jitter(self):
        if self.max_error_mm == 0.0:
            self._jitter = (0.0, 0.0)
        else:
            e = self._rng.uniform(-self.max_error_mm, self.max_error_mm, size=2)
            self._jitter = (float(e[0]), float(e[1]))

    def execute(self, command: str) -> str:
        line = command.rstrip("\r\n").strip()
        if line == "G28":
            self.position_mm = (0.0, 0.0)
            self.homed = True
            self._draw_jitter()
            return "ok\n"
        match = _MOVE_RE.match(line)
        if match is None:
            return "error:parse\n"
        if not self.homed:
            return "error:unhomed\n"
        x, y = float(match.group(1)), float(match.group(2))
        if not (0.0 <= x <= self.x_extent_mm and 0.0 <= y <= self.y_extent_mm):
            return "error:bounds\n"
        self.position_mm = (x, y)
        self._draw_jitter()
        return "ok\n"


class _TcpServer:
    """Listener and accept loop; subclasses handle one connection at a time."""

    def __init__(self, address):
        self._listener = socket.create_server(address)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # stop() shut the listener down
            self._handle(conn)

    def start(self):
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept() on Linux
        if self._thread is not None:
            self._thread.join(TIMEOUT_S)
        self._listener.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


class PositionerServer(_TcpServer):
    """Serve one VirtualPositioner's text protocol over TCP, line by line."""

    def __init__(self, positioner: VirtualPositioner, address=("127.0.0.1", 0)):
        super().__init__(address)
        self.positioner = positioner

    def _handle(self, conn: socket.socket):
        conn.settimeout(TIMEOUT_S)
        with conn, conn.makefile("rb") as lines:
            try:
                for line in lines:
                    if self._stop.is_set() or not line.endswith(b"\n"):
                        break  # stopping, or the client left mid-line
                    reply = self.positioner.execute(line.decode("ascii", errors="replace"))
                    conn.sendall(reply.encode("ascii"))
            except OSError:
                pass


class TcpPositioner:
    """Client-side driver: same execute() surface as VirtualPositioner."""

    def __init__(self, address):
        self.address = tuple(address)

    def execute(self, command: str) -> str:
        if not command.endswith("\n"):
            command += "\n"
        with socket.create_connection(self.address, timeout=TIMEOUT_S) as sock, \
                sock.makefile("rb") as replies:
            sock.sendall(command.encode("ascii"))
            return replies.readline().decode("ascii")


# ---------------------------------------------------------------------------
# capture service and trigger client
# ---------------------------------------------------------------------------

class TriggerResult:
    ACK = "ack"
    NAK = "nak"
    TIMEOUT = "timeout"


class CaptureService(_TcpServer):
    """TCP capture trigger service.

    Per connection: read exactly 6 bytes, validate the charset, call
    ``channel_source(sample_id)`` with the validated payload, write the
    sample it returns atomically to ``<out_dir>/<payload>.bin`` and reply
    one ACK byte (0x06). The source decides from the id alone which sample
    that is, and raises for an id it cannot pair with a position; any
    failure replies NAK (0x15) and leaves no file behind. Connections are
    handled strictly one at a time, in arrival order, so a client that has not
    sent its six bytes ``TIMEOUT_S / 5`` after it was accepted is dropped
    unanswered, however it spaces them.
    """

    def __init__(self, out_dir, channel_source, address=("127.0.0.1", 0)):
        super().__init__(address)
        self.out_dir = out_dir
        self.channel_source = channel_source
        self.captures = 0
        self.rejects = 0

    def _handle(self, conn: socket.socket):
        deadline = time.monotonic() + TIMEOUT_S / 5
        payload = b""
        with conn:
            try:
                while len(payload) < 6:
                    conn.settimeout(max(deadline - time.monotonic(), 1e-6))
                    if not (chunk := conn.recv(6 - len(payload))):
                        return  # client went away mid-payload
                    payload += chunk
            except OSError:
                return
            try:
                text = payload.decode("ascii")
                if not SAMPLE_ID_PATTERN.fullmatch(text):
                    raise ValueError(f"invalid trigger payload {payload!r}")
                write_sample(Path(self.out_dir) / f"{text}.bin", self.channel_source(text))
                self.captures += 1
                reply = ACK
            except Exception:
                self.rejects += 1
                reply = NAK
            try:
                conn.sendall(reply)
            except OSError:
                pass

    def serve_forever(self):
        """Blocking variant for standalone use; returns on KeyboardInterrupt."""
        try:
            self._serve()
        except KeyboardInterrupt:
            pass


def trigger_capture(address, payload) -> str:
    """One trigger round trip; returns TriggerResult.ACK / NAK / TIMEOUT.

    The payload is validated client-side before anything is sent. A closed
    port raises the usual connection error. Re-triggering the same payload
    overwrites the sample file atomically on the service side.
    """
    if not SAMPLE_ID_PATTERN.fullmatch(payload):
        raise ValueError(f"trigger payload must be 6 chars of [0-9A-Za-z_-], got {payload!r}")
    try:
        with socket.create_connection(tuple(address), timeout=TIMEOUT_S) as sock:
            sock.sendall(payload.encode("ascii"))
            reply = sock.recv(1)
    except socket.timeout:
        return TriggerResult.TIMEOUT
    if reply == ACK:
        return TriggerResult.ACK
    return TriggerResult.NAK


# ---------------------------------------------------------------------------
# synthetic channel source and the campaign runner
# ---------------------------------------------------------------------------

class SyntheticChannelSource:
    """Generates the CSI the base station would measure at trigger time.

    The sample id is the trigger's row in ``plan.triggers``, as
    ``run_campaign`` assigns it, which names a positioner slot and waypoint;
    the channel comes from that table's physical (error-injected) position,
    on the pilots of the user whose id is the slot. An id outside
    the plan, or one whose waypoint the table is not commanded to, raises.
    Noise is keyed on the id, so a retried trigger or a rerun reproduces the
    same bytes.
    """

    def __init__(self, geometry: ArrayGeometry, radio: RadioConfig, positioners,
                 plan: CampaignPlan, scatterers=(), snr_db: float = float("inf"),
                 seed: int = 0):
        self.geometry = geometry
        self.radio = radio
        self.positioners = list(positioners)
        self.plan = plan
        self.scatterers = list(scatterers)
        self.snr_db = snr_db
        self.seed = seed

    def __call__(self, sample_id: str) -> CsiSample:
        if not _TRIGGER_ID_RE.fullmatch(sample_id) or int(sample_id) >= len(self.plan.triggers):
            raise ValueError(f"trigger {sample_id!r} is not in the campaign plan")
        slot, step = self.plan.triggers[int(sample_id)].tolist()
        grid, target = self.plan.grids[slot], self.plan.waypoints[slot][step]
        positioner = self.positioners[slot]
        if positioner.position_mm != (target.x - grid.origin.x, target.y - grid.origin.y):
            raise ValueError(f"trigger {sample_id!r} is for positioner {slot} waypoint {step}, "
                             f"but the table is not there")
        lx, ly = positioner.actual_position_mm
        pos = Position3(grid.origin.x + lx, grid.origin.y + ly, grid.origin.z)
        return chan.synthesize_sample(self.geometry, pos, self.radio, self.scatterers,
                                      snr_db=self.snr_db, seed=self.seed,
                                      stream=chan.STREAM_CAPTURE, user_id=slot,
                                      sample_id=sample_id)


def run_campaign(plan: CampaignPlan, positioners, capture_address, out_dir,
                 topology: str = "", radio: RadioConfig | None = None) -> DatasetIndex:
    """Drive the positioners over the plan, triggering one capture per node.

    ``positioners`` are objects with the text-protocol ``execute`` surface
    (in-process tables or TCP drivers), one per plan slot; the capture
    service is reached only through its TCP address. Trigger n, row n of
    ``plan.triggers``, gets the zero-padded decimal sample id n. Index labels
    are the commanded waypoint coordinates, and a sample's user id is its
    slot. Any positioner error or NAK aborts with the failing waypoint
    identified.
    """
    positioners = list(positioners)
    if len(positioners) != len(plan.waypoints):
        raise ValueError("one positioner per plan slot required")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for slot, positioner in enumerate(positioners):
        reply = positioner.execute("G28\n")
        if reply != "ok\n":
            raise CampaignError(f"positioner {slot} failed to home: {reply.strip()!r}")

    records: list[SampleRecord] = []
    # rows [edges[s], edges[s + 1]) of the schedule are step s of every active table
    edges = np.searchsorted(plan.triggers[:, 1],
                            np.arange(max(plan.waypoints_per_positioner, default=0) + 1))
    for step, (start, stop) in enumerate(itertools.pairwise(edges.tolist())):
        group = list(enumerate(plan.triggers[start:stop, 0].tolist(), start))
        # all active positioners move to this step's node concurrently ...
        for _, slot in group:
            target = plan.waypoints[slot][step]
            grid = plan.grids[slot]
            lx, ly = target.x - grid.origin.x, target.y - grid.origin.y
            reply = positioners[slot].execute(f"G0 X{lx!r} Y{ly!r}\n")
            if reply != "ok\n":
                raise CampaignError(
                    f"positioner {slot} rejected waypoint {step} ({target.x}, {target.y}): "
                    f"{reply.strip()!r}"
                )
        # ... then the captures are triggered in slot order
        for n, slot in group:
            sample_id = f"{n:06d}"
            result = trigger_capture(capture_address, sample_id)
            if result != TriggerResult.ACK:
                raise CampaignError(
                    f"capture trigger {sample_id} for positioner {slot} waypoint {step} "
                    f"returned {result}"
                )
            records.append(SampleRecord(sample_id, out_dir / f"{sample_id}.bin",
                                        plan.waypoints[slot][step], slot))

    index = DatasetIndex(records=records, topology=topology, radio=radio)
    save_index(out_dir / "index.csv", index)
    return index


def simulate_campaign(plan: CampaignPlan, geometry: ArrayGeometry, radio: RadioConfig,
                      out_dir, topology: str = "", scatterers=(),
                      snr_db: float = float("inf"), seed: int = 0,
                      positioner_error_mm: float = 0.0, capture_address=("127.0.0.1", 0),
                      positioner_address=None) -> DatasetIndex:
    """End-to-end simulated campaign: positioners, capture service, runner.

    Spins up an in-process capture service bound to a synthetic channel
    source, drives the plan through it over real TCP and returns the dataset
    index (also written as ``index.csv`` beside the sample files). When
    ``positioner_address`` is given, the virtual tables are additionally
    exposed over TCP (one server per table on consecutive ports, port 0
    picks free ones) and the runner drives them through that protocol too.
    """
    positioners = [
        VirtualPositioner(g.x_extent_mm, g.y_extent_mm,
                          max_error_mm=positioner_error_mm,
                          seed=(seed, chan.STREAM_JITTER, i))
        for i, g in enumerate(plan.grids)
    ]
    source = SyntheticChannelSource(geometry, radio, positioners, plan,
                                    scatterers=scatterers, snr_db=snr_db, seed=seed)
    with contextlib.ExitStack() as stack:
        drivers = positioners
        if positioner_address is not None:
            host, base_port = positioner_address
            if base_port and not 0 < base_port <= 65536 - len(positioners):
                raise ValueError(f"positioner ports from {base_port} leave 1..65535")
            ports = (base_port + i if base_port else 0 for i in range(len(positioners)))
            servers = [stack.enter_context(PositionerServer(table, (host, port)))
                       for table, port in zip(positioners, ports)]
            drivers = [TcpPositioner(s.address) for s in servers]
        service = stack.enter_context(CaptureService(out_dir, source, address=capture_address))
        return run_campaign(plan, drivers, service.address, out_dir,
                            topology=topology, radio=radio)
