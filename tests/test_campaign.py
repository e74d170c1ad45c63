import contextlib
import itertools
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mamimo import campaign
from mamimo.campaign import (
    NAK,
    CampaignError,
    CampaignPlan,
    CaptureService,
    PositionerServer,
    TcpPositioner,
    TriggerResult,
    VirtualPositioner,
    default_campaign_plan,
    plan_full_campaign,
    plan_traversal,
    run_campaign,
    simulate_campaign,
    trigger_capture,
)
from mamimo.channel import los_channel
from mamimo.dataio import load_index, read_sample
from mamimo.geometry import default_positioner_grids, grid_positions
from mamimo.model import Position3, Positions, SampleGrid, Traversal


# an unclosed socket or socket file fails the test instead of passing silently
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning",
                                        "error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """A server whose stop() did not end its accept loop fails the test that started it."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for thread in left:
        thread.join(0.5)
    alive = [t.name for t in left if t.is_alive()]
    assert not alive, f"threads still running after the test: {alive}"


@pytest.fixture()
def fixed_source(fast_radio, ura_small):
    sample = los_channel(ura_small, Position3(0.0, 1500.0, 1000.0), fast_radio)
    return lambda sample_id: sample


class TestPlanning:
    def test_default_grid_counts_and_duration(self):
        grid = SampleGrid()
        plan = plan_traversal(grid)
        assert plan.waypoints_per_positioner == [63001]
        assert plan.duration_estimate_s == pytest.approx(63001 * 0.7)
        hours = plan.duration_estimate_s / 3600.0
        assert abs(hours - 12.5) / 12.5 < 0.05

    def test_full_campaign_counts(self):
        plan = default_campaign_plan()
        assert plan.waypoints_per_positioner == [63001] * 4
        assert plan.total_waypoints == 252004
        assert plan.duration_estimate_s == pytest.approx(63001 * 0.7)

    def test_serpentine_two_by_two_order(self):
        grid = SampleGrid(x_extent_mm=1, y_extent_mm=1, resolution_mm=1)
        plan = plan_traversal(grid, Traversal.SERPENTINE)
        assert [(p.x, p.y) for p in plan.waypoints[0]] == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_raster_and_serpentine_same_nodes(self):
        grid = SampleGrid(x_extent_mm=15, y_extent_mm=10, resolution_mm=5)
        a = plan_traversal(grid, Traversal.RASTER)
        b = plan_traversal(grid, Traversal.SERPENTINE)
        assert set(a.waypoints[0]) == set(b.waypoints[0])

    def test_waypoint_outside_work_area_rejected(self):
        grid = SampleGrid(x_extent_mm=10, y_extent_mm=10)
        with pytest.raises(ValueError):
            CampaignPlan(waypoints=[[Position3(50.0, 0.0, 0.0)]], grids=[grid])

    def test_lists_wrapped_and_first_stray_named(self):
        grid = SampleGrid(x_extent_mm=10, y_extent_mm=10)
        inside = [Position3(0.0, 0.0, 0.0), Position3(10.0, 10.0, 0.0)]
        plan = CampaignPlan(waypoints=[inside, []], grids=[grid, grid])
        assert all(isinstance(w, Positions) for w in plan.waypoints)
        assert plan.waypoints[0] == inside and plan.waypoints_per_positioner == [2, 0]
        stray = inside + [Position3(0.0, 10.5, 0.0), Position3(-1.0, 0.0, 0.0)]
        with pytest.raises(ValueError, match=r"waypoint \(0\.0, 10\.5\) outside positioner 0"):
            CampaignPlan(waypoints=[stray], grids=[grid])

    def test_default_plan_peak_memory_is_about_its_arrays(self):
        tracemalloc.start()
        try:
            plan = default_campaign_plan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(w.xyz.nbytes for w in plan.waypoints)
        assert arrays == 4 * 63_001 * 3 * 8
        assert peak <= 2 * arrays

    def test_at_most_four_positioners(self):
        grids = default_positioner_grids(extent_mm=10.0)
        with pytest.raises(ValueError):
            plan_full_campaign(grids + [SampleGrid(x_extent_mm=10, y_extent_mm=10)])

    def test_slot_schedule_round_robin(self):
        g = SampleGrid(x_extent_mm=5, y_extent_mm=0, resolution_mm=5)  # 2 nodes
        g1 = SampleGrid(x_extent_mm=0, y_extent_mm=0)  # 1 node
        plan = plan_full_campaign([g, g1])
        assert plan.triggers[:, 0].tolist() == [0, 1, 0]


def _round_robin(plan):
    """(slot, step) of each trigger: every table's step s in slot order, then s + 1."""
    longest = max(plan.waypoints_per_positioner, default=0)
    return [(slot, step)
            for step in range(longest)
            for slot, wps in enumerate(plan.waypoints)
            if step < len(wps)]


class TestTriggerSchedule:
    @pytest.mark.parametrize("lengths", [(3, 1, 4, 2), (2, 0, 1), (0,), ()])
    def test_matches_round_robin(self, lengths):
        grid = SampleGrid(x_extent_mm=10, y_extent_mm=0, resolution_mm=1)
        nodes = grid_positions(grid)
        plan = CampaignPlan(waypoints=[nodes[:n] for n in lengths], grids=[grid] * len(lengths))
        assert plan.triggers.shape == (sum(lengths), 2)
        assert [tuple(row) for row in plan.triggers.tolist()] == _round_robin(plan)

    def test_default_plan(self):
        plan = default_campaign_plan()
        tracemalloc.start()
        try:
            triggers = plan.triggers
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.2e6
        assert [tuple(row) for row in triggers.tolist()] == _round_robin(plan)

    def test_read_only_and_built_once(self):
        plan = _two_table_plan()
        assert plan.triggers is plan.triggers
        with pytest.raises(ValueError):
            plan.triggers[0, 0] = 1


class TestVirtualPositioner:
    def test_home_then_move(self):
        p = VirtualPositioner()
        assert p.execute("G28\n") == "ok\n"
        assert p.execute("G0 X100 Y200\n") == "ok\n"
        assert p.position_mm == (100.0, 200.0)

    def test_bounds_rejected_state_unchanged(self):
        p = VirtualPositioner(x_extent_mm=1250.0, y_extent_mm=1250.0)
        p.execute("G28\n")
        p.execute("G0 X10 Y10\n")
        assert p.execute("G0 X2000 Y0\n") == "error:bounds\n"
        assert p.position_mm == (10.0, 10.0)

    def test_parse_error(self):
        p = VirtualPositioner()
        assert p.execute("MOVE 1 2\n") == "error:parse\n"

    def test_unhomed_move_rejected(self):
        p = VirtualPositioner()
        assert p.execute("G0 X1 Y1\n") == "error:unhomed\n"

    def test_float_coordinates(self):
        p = VirtualPositioner()
        p.execute("G28\n")
        assert p.execute("G0 X12.5 Y0.25\n") == "ok\n"
        assert p.position_mm == (12.5, 0.25)

    def test_error_injection_bounded_and_seeded(self):
        a = VirtualPositioner(max_error_mm=0.1, seed=7)
        b = VirtualPositioner(max_error_mm=0.1, seed=7)
        for pos in (a, b):
            pos.execute("G28\n")
            pos.execute("G0 X100 Y100\n")
        assert a.actual_position_mm == b.actual_position_mm
        assert abs(a.actual_position_mm[0] - 100.0) <= 0.1
        assert abs(a.actual_position_mm[1] - 100.0) <= 0.1
        assert a.position_mm == (100.0, 100.0)  # commanded stays exact

    def test_injector_bound_capped(self):
        for bad in (0.2, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                VirtualPositioner(max_error_mm=bad)


def _closed_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    return addr


class TestTriggerMessage:
    # a ValueError and not a refused connection: the payload is checked before connecting
    def test_short_payload_rejected_before_send(self):
        with pytest.raises(ValueError, match="6 chars"):
            trigger_capture(_closed_port(), "00042")

    def test_bad_charset_rejected(self):
        with pytest.raises(ValueError, match="6 chars"):
            trigger_capture(_closed_port(), "00/042")

    def test_trailing_newline_rejected(self):
        with pytest.raises(ValueError, match="6 chars"):
            trigger_capture(_closed_port(), "00Az_-\n")


class TestCaptureService:
    def test_valid_trigger_writes_file_and_acks(self, tmp_path, fixed_source):
        with CaptureService(tmp_path, fixed_source) as service:
            assert trigger_capture(service.address, "000042") == TriggerResult.ACK
        assert (tmp_path / "000042.bin").exists()
        sample = read_sample(tmp_path / "000042.bin")
        assert sample.sample_id == "000042"

    def test_invalid_charset_naks_without_file(self, tmp_path, fixed_source):
        with CaptureService(tmp_path, fixed_source) as service:
            with socket.create_connection(service.address, timeout=5.0) as sock:
                sock.sendall(b"00/042")
                assert sock.recv(1) == NAK
        assert list(tmp_path.iterdir()) == []

    def test_failing_source_naks(self, tmp_path):
        def broken(sample_id):
            raise RuntimeError("radio offline")

        with CaptureService(tmp_path, broken) as service:
            assert trigger_capture(service.address, "000000") == TriggerResult.NAK
        assert list(tmp_path.iterdir()) == []

    def test_write_failure_naks_and_leaves_nothing(self, tmp_path, fixed_source):
        blocker = tmp_path / "out"
        blocker.write_text("not a directory")
        with CaptureService(blocker, fixed_source) as service:
            assert trigger_capture(service.address, "000000") == TriggerResult.NAK
        assert blocker.read_text() == "not a directory"

    def test_sequential_triggers_in_order(self, tmp_path, fixed_source):
        with CaptureService(tmp_path, fixed_source) as service:
            for i in range(25):
                assert trigger_capture(service.address, f"{i:06d}") == TriggerResult.ACK
            assert service.captures == 25
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"{i:06d}.bin" for i in range(25)]

    def test_retrigger_overwrites_atomically(self, tmp_path, fast_radio, ura_small):
        samples = iter([
            los_channel(ura_small, Position3(0.0, 1500.0, 1000.0), fast_radio),
            los_channel(ura_small, Position3(10.0, 1500.0, 1000.0), fast_radio),
        ])
        with CaptureService(tmp_path, lambda sample_id: next(samples)) as service:
            trigger_capture(service.address, "000001")
            first = (tmp_path / "000001.bin").read_bytes()
            trigger_capture(service.address, "000001")
            second = (tmp_path / "000001.bin").read_bytes()
        assert first != second
        assert [p.name for p in tmp_path.iterdir()] == ["000001.bin"]

    @pytest.mark.parametrize("sent", [b"", b"000"])
    def test_stray_connection_gets_no_reply_and_counts_nothing(self, tmp_path, fixed_source,
                                                               sent):
        with CaptureService(tmp_path, fixed_source) as service:
            with socket.create_connection(service.address, timeout=5.0) as sock:
                sock.sendall(sent)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1) == b""  # the service closed without a reply
            assert (service.captures, service.rejects) == (0, 0)
            assert trigger_capture(service.address, "000001") == TriggerResult.ACK
            assert (service.captures, service.rejects) == (1, 0)
        assert [p.name for p in tmp_path.iterdir()] == ["000001.bin"]

    def test_stray_clients_that_stay_connected_do_not_stall_a_trigger(self, tmp_path,
                                                                       fixed_source):
        # served one at a time, each stray is dropped after TIMEOUT_S / 5 of silence
        with CaptureService(tmp_path, fixed_source) as service, \
                socket.create_connection(service.address), \
                socket.create_connection(service.address) as short:
            short.sendall(b"000")
            t0 = time.monotonic()
            assert trigger_capture(service.address, "000001") == TriggerResult.ACK
            assert time.monotonic() - t0 < campaign.TIMEOUT_S
            assert (service.captures, service.rejects) == (1, 0)

    def test_a_trickling_client_is_dropped_at_one_deadline(self, tmp_path, fixed_source):
        # one byte every 0.4 s never lets a single receive wait TIMEOUT_S / 5 = 1 s
        done = threading.Event()
        with CaptureService(tmp_path, fixed_source) as service, \
                socket.create_connection(service.address) as stray:
            t0 = time.monotonic()

            def trickle():
                for _ in range(5):
                    with contextlib.suppress(OSError):
                        stray.sendall(b"0")
                    if done.wait(0.4):
                        return

            thread = threading.Thread(target=trickle)
            thread.start()
            try:
                assert trigger_capture(service.address, "000001") == TriggerResult.ACK
                assert time.monotonic() - t0 < 1.8
            finally:
                done.set()
                thread.join()
            assert (service.captures, service.rejects) == (1, 0)

    def test_rejects_count_charset_source_and_write_failures(self, tmp_path, fixed_source):
        def source(sample_id):
            if sample_id == "000001":
                raise RuntimeError("radio offline")
            return fixed_source(sample_id)

        (tmp_path / "000002.bin").mkdir()  # the sample file cannot replace a directory
        with CaptureService(tmp_path, source) as service:
            with socket.create_connection(service.address, timeout=5.0) as sock:
                sock.sendall(b"00/042")
                assert sock.recv(1) == NAK
            assert trigger_capture(service.address, "000001") == TriggerResult.NAK
            assert trigger_capture(service.address, "000002") == TriggerResult.NAK
            assert trigger_capture(service.address, "000003") == TriggerResult.ACK
            assert (service.captures, service.rejects) == (1, 3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["000002.bin", "000003.bin"]
        assert (tmp_path / "000002.bin").is_dir()

    def test_connection_refused_on_closed_port(self):
        with pytest.raises(OSError):
            trigger_capture(_closed_port(), "000000")

    def test_timeout_when_server_never_replies(self, monkeypatch):
        monkeypatch.setattr(campaign, "TIMEOUT_S", 0.3)
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def mute_server():
            conn, _ = listener.accept()
            conn.recv(6)
            done.wait(2.0)  # hold the connection open, never reply
            conn.close()

        thread = threading.Thread(target=mute_server, daemon=True)
        thread.start()
        try:
            result = trigger_capture(listener.getsockname(), "000000")
            assert result == TriggerResult.TIMEOUT
        finally:
            done.set()
            thread.join()
            listener.close()


class TestRunCampaign:
    def test_five_by_five_end_to_end(self, tmp_path, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(-10.0, 1500.0, 1000.0),
                          x_extent_mm=20.0, y_extent_mm=20.0, resolution_mm=5.0)
        plan = plan_traversal(grid)
        index = simulate_campaign(plan, ura_small, fast_radio, tmp_path, topology="ura")
        assert len(index) == 25
        files = sorted(p.name for p in tmp_path.glob("*.bin"))
        assert files == [f"{i:06d}.bin" for i in range(25)]
        # labels equal the commanded waypoints exactly, in traversal order
        assert [r.label for r in index.records] == plan.waypoints[0]
        loaded = load_index(tmp_path / "index.csv")
        assert [r.label for r in loaded.records] == plan.waypoints[0]
        for rec, planned in zip(loaded.records, plan.waypoints[0]):
            sample = read_sample(rec.path, label=rec.label)
            assert sample.n_antennas == 4 and sample.n_subcarriers == 4

    def test_zero_waypoint_plan(self, tmp_path, fast_radio, ura_small):
        grid = SampleGrid(x_extent_mm=0, y_extent_mm=0)
        plan = CampaignPlan(waypoints=[[]], grids=[grid])
        index = simulate_campaign(plan, ura_small, fast_radio, tmp_path)
        assert len(index) == 0
        assert list(tmp_path.glob("*.bin")) == []

    def test_labels_exact_despite_error_injection(self, tmp_path, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(0.0, 1500.0, 1000.0),
                          x_extent_mm=10.0, y_extent_mm=10.0, resolution_mm=5.0)
        plan = plan_traversal(grid)
        index = simulate_campaign(plan, ura_small, fast_radio, tmp_path,
                                  positioner_error_mm=0.05, seed=3)
        assert [r.label for r in index.records] == plan.waypoints[0]
        # but the recorded channels come from the jittered physical positions
        clean = tmp_path / "clean"
        clean.mkdir()
        reference = simulate_campaign(plan, ura_small, fast_radio, clean, seed=3)
        a = read_sample(index.records[0].path)
        b = read_sample(reference.records[0].path)
        assert not np.array_equal(a.h, b.h)

    def test_nak_aborts_with_waypoint_identified(self, tmp_path, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(0.0, 1500.0, 1000.0),
                          x_extent_mm=10.0, y_extent_mm=0.0, resolution_mm=5.0)
        plan = plan_traversal(grid)  # 3 waypoints
        calls = {"n": 0}
        good = los_channel(ura_small, Position3(0.0, 1500.0, 1000.0), fast_radio)

        def flaky(sample_id):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("capture failed")
            return good

        positioners = [VirtualPositioner(grid.x_extent_mm, grid.y_extent_mm)]
        with CaptureService(tmp_path, flaky) as service:
            with pytest.raises(CampaignError, match="waypoint 2"):
                run_campaign(plan, positioners, service.address, tmp_path)

    def test_multi_positioner_round_robin_users(self, tmp_path, fast_radio, ura_small):
        grids = default_positioner_grids(extent_mm=5.0, resolution_mm=5.0)[:2]
        plan = plan_full_campaign(grids)  # 4 nodes per positioner
        index = simulate_campaign(plan, ura_small, fast_radio, tmp_path, topology="ura")
        assert len(index) == 8
        assert [r.user_id for r in index.records] == [0, 1] * 4
        # slot 0 samples follow grid 0's traversal
        slot0 = [r.label for r in index.records if r.user_id == 0]
        assert slot0 == plan.waypoints[0]

    def test_uneven_tables_follow_trigger_order(self, tmp_path, fast_radio, ura_small):
        grids = default_positioner_grids(extent_mm=5.0, resolution_mm=5.0)[:2]
        full = plan_full_campaign(grids)
        plan = CampaignPlan(waypoints=[full.waypoints[0][:2], full.waypoints[1][:1]],
                            grids=grids)
        order = [tuple(row) for row in plan.triggers.tolist()]
        assert order == [(0, 0), (1, 0), (0, 1)]
        index = simulate_campaign(plan, ura_small, fast_radio, tmp_path)
        assert [r.sample_id for r in index.records] == [f"{n:06d}" for n in range(3)]
        assert [r.user_id for r in index.records] == [slot for slot, _ in order]
        assert [r.label for r in index.records] == [plan.waypoints[slot][step]
                                                    for slot, step in order]
        _assert_csi_matches_labels(index, ura_small, fast_radio)

    def test_rerun_is_idempotent(self, tmp_path, fast_radio, ura_small):
        grid = SampleGrid(origin=Position3(0.0, 1500.0, 1000.0),
                          x_extent_mm=5.0, y_extent_mm=5.0, resolution_mm=5.0)
        plan = plan_traversal(grid)
        simulate_campaign(plan, ura_small, fast_radio, tmp_path, seed=9)
        snapshot = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        simulate_campaign(plan, ura_small, fast_radio, tmp_path, seed=9)
        again = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert snapshot == again


def _two_table_plan():
    return plan_full_campaign(default_positioner_grids(extent_mm=5.0, resolution_mm=5.0)[:2])


def _inject_trigger(monkeypatch, payload, at_command=None):
    """Make simulate_campaign send one extra trigger ``payload`` to its capture
    service, before run_campaign starts (``at_command=None``) or just before
    positioner command number ``at_command`` (homing included, all tables
    counted together from 0). Returns the list that receives its reply."""
    replies = []
    real_run = campaign.run_campaign

    def run(plan, positioners, address, *args, **kwargs):
        commands = itertools.count()

        class Injecting:
            def __init__(self, table):
                self.table = table

            def execute(self, command):
                if next(commands) == at_command:
                    replies.append(trigger_capture(address, payload))
                return self.table.execute(command)

        if at_command is None:
            replies.append(trigger_capture(address, payload))
        return real_run(plan, [Injecting(p) for p in positioners], address, *args, **kwargs)

    monkeypatch.setattr(campaign, "run_campaign", run)
    return replies


def _assert_csi_matches_labels(index, geometry, radio):
    for rec in index.records:
        stored = read_sample(rec.path).h
        expected = los_channel(geometry, rec.label, radio, user_id=rec.user_id).h
        assert np.max(np.abs(stored - expected)) <= 1e-6 * np.max(np.abs(expected)), rec.sample_id


class TestCapturePairing:
    def test_stray_trigger_before_run_is_refused(self, tmp_path, monkeypatch,
                                                 fast_radio, ura_small):
        replies = _inject_trigger(monkeypatch, "zzzzzz")
        index = simulate_campaign(_two_table_plan(), ura_small, fast_radio, tmp_path)
        assert replies == [TriggerResult.NAK]
        assert not (tmp_path / "zzzzzz.bin").exists()
        assert len(index) == 8
        _assert_csi_matches_labels(index, ura_small, fast_radio)

    def test_stale_trigger_mid_run_is_refused(self, tmp_path, monkeypatch,
                                              fast_radio, ura_small):
        # command 5 moves table 1 to its second node; table 0 has left node 0
        replies = _inject_trigger(monkeypatch, "000000", at_command=5)
        index = simulate_campaign(_two_table_plan(), ura_small, fast_radio, tmp_path)
        assert replies == [TriggerResult.NAK]
        assert len(index) == 8
        _assert_csi_matches_labels(index, ura_small, fast_radio)

    def test_retried_trigger_rewrites_identical_bytes(self, tmp_path, monkeypatch,
                                                      fast_radio, ura_small):
        noisy = dict(snr_db=20.0, seed=4, positioner_error_mm=0.05)
        simulate_campaign(_two_table_plan(), ura_small, fast_radio, tmp_path / "ref", **noisy)
        # command 6 moves table 0 on from the node of trigger 000002
        replies = _inject_trigger(monkeypatch, "000002", at_command=6)
        simulate_campaign(_two_table_plan(), ura_small, fast_radio, tmp_path / "run", **noisy)
        assert replies == [TriggerResult.ACK]
        ref = {p.name: p.read_bytes() for p in (tmp_path / "ref").iterdir()}
        run = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
        assert run == ref


class TestPositionerOverTcp:
    def test_stop_wakes_the_accept_loop(self):
        t0 = time.monotonic()
        for _ in range(10):
            PositionerServer(VirtualPositioner()).start().stop()
        assert time.monotonic() - t0 < 0.2

    def test_protocol_roundtrip(self):
        table = VirtualPositioner()
        with PositionerServer(table) as server:
            driver = TcpPositioner(server.address)
            assert driver.execute("G28") == "ok\n"
            assert driver.execute("G0 X12 Y34") == "ok\n"
            assert driver.execute("G0 X9999 Y0") == "error:bounds\n"
        assert table.position_mm == (12.0, 34.0)

    @pytest.mark.parametrize("chunks, replies, position", [
        ([b"G28\nG0 X1 Y2\n"], b"ok\nok\n", (1.0, 2.0)),  # two commands, one send
        ([b"G2", b"8\n"], b"ok\n", (0.0, 0.0)),  # one command over two sends
        ([b"G28\nG0 X1 Y2"], b"ok\n", (0.0, 0.0)),  # a final line without LF is ignored
        ([b"G28\n", b"G0 X\xff1 Y2\n"], b"ok\nerror:parse\n", (0.0, 0.0)),
    ])
    def test_server_reads_lines_from_the_stream(self, chunks, replies, position):
        table = VirtualPositioner()
        with PositionerServer(table) as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                for chunk in chunks:
                    sock.sendall(chunk)
                    time.sleep(0.02)
                sock.shutdown(socket.SHUT_WR)
                received = b""
                while data := sock.recv(64):
                    received += data
        assert received == replies
        assert table.homed and table.position_mm == position

    @pytest.mark.parametrize("tables,base_port", [(2, 65535), (4, 65533), (1, -1)])
    def test_ports_past_the_range_refused_before_any_server(self, tmp_path, monkeypatch,
                                                              fast_radio, ura_small,
                                                              tables, base_port):
        started = []
        for name in ("PositionerServer", "CaptureService"):
            monkeypatch.setattr(campaign, name, lambda *a, name=name, **k: started.append(name))
        plan = plan_full_campaign(default_positioner_grids(extent_mm=5.0)[:tables])
        with pytest.raises(ValueError, match=f"ports from {base_port} leave"):
            simulate_campaign(plan, ura_small, fast_radio, tmp_path,
                              positioner_address=("127.0.0.1", base_port))
        assert not started

    def test_campaign_through_tcp_positioner(self, tmp_path, fixed_source):
        grid = SampleGrid(origin=Position3(0.0, 1500.0, 1000.0),
                          x_extent_mm=5.0, y_extent_mm=0.0, resolution_mm=5.0)
        plan = plan_traversal(grid)
        table = VirtualPositioner(grid.x_extent_mm, grid.y_extent_mm)
        with PositionerServer(table) as pos_server:
            with CaptureService(tmp_path, fixed_source) as service:
                index = run_campaign(plan, [TcpPositioner(pos_server.address)],
                                     service.address, tmp_path)
        assert len(index) == 2
