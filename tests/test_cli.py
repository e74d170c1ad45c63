import math
import os
import stat

import numpy as np
import pytest

from mamimo import channel as chan
from mamimo import dsp
from mamimo.cli import build_parser, main
from mamimo.dataio import load_index, write_sample
from mamimo.geometry import DEFAULT_HEIGHT_MM, build_topology
from mamimo.model import CsiSample, Position3, RadioConfig

from conftest import random_csi_matrix


def run_cli(*args):
    return main(list(args))


class TestDispatch:
    def test_no_arguments_usage_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub", ["synth", "campaign", "serve-capture", "powermap",
                                     "schedule", "locate", "inspect"])
    def test_every_subcommand_has_help(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert sub in capsys.readouterr().out


class TestSynthAndInspect:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run_cli("synth", "--out", str(out), "--extent-mm", "20",
                       "--resolution-mm", "10", "--snr-db", "20", "--seed", "3")
        assert code == 0
        index = load_index(out / "index.csv")
        assert len(index) == 9
        assert index.topology == "ura"

    def test_origin_z_sets_the_grid_height(self, tmp_path, capsys):
        outs = [tmp_path / origin for origin in ("0,1500", "0,1500,500")]
        for out in outs:
            assert run_cli("synth", "--extent-mm", "10", "--resolution-mm", "5",
                           "--origin-mm", out.name, "--out", str(out)) == 0
        xy, xyz = (load_index(out / "index.csv") for out in outs)
        assert {r.label.z for r in xy} == {DEFAULT_HEIGHT_MM}
        assert {r.label.z for r in xyz} == {500.0}
        assert [(r.label.x, r.label.y) for r in xyz] == [(r.label.x, r.label.y) for r in xy]
        assert len({(out / "000000.bin").read_bytes() for out in outs}) == 2

    def test_synth_refused_grid_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "badgrid"
        assert run_cli("synth", "--extent-mm", "1.2", "--resolution-mm", "0.4",
                       "--out", str(out)) == 1
        assert "error" in capsys.readouterr().err.lower()
        assert not out.exists()

    def test_nan_resolution_is_refused(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli("synth", "--resolution-mm", "nan", "--out", str(out)) == 1
        assert "resolution must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_inspect_prints_header(self, tmp_path, rng, capsys):
        path = tmp_path / "000042.bin"
        write_sample(path, CsiSample(random_csi_matrix(rng, 64, 100)))
        assert run_cli("inspect", str(path)) == 0
        out = capsys.readouterr().out
        assert "M=64" in out and "F=100" in out and "51212" in out

    def test_inspect_ignores_malformed_address_env_vars(self, tmp_path, rng, monkeypatch, capsys):
        # only the subcommands that take an address parse these variables
        monkeypatch.setenv("CSI_CAPTURE_ADDR", "nonsense")
        monkeypatch.setenv("CSI_POSITIONER_ADDR", "nonsense")
        path = tmp_path / "000042.bin"
        write_sample(path, CsiSample(random_csi_matrix(rng, 64, 100)))
        assert run_cli("inspect", str(path)) == 0
        assert "M=64" in capsys.readouterr().out

    def test_inspect_bad_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"garbage")
        assert run_cli("inspect", str(path)) == 1
        assert "error" in capsys.readouterr().err.lower()


class TestPowermap:
    def test_writes_pgm_and_csv(self, tmp_path, capsys):
        out = tmp_path / "map.pgm"
        code = run_cli("powermap", "--topology", "ura", "--target", "0,1500",
                       "--extent-mm", "100", "--resolution-mm", "25",
                       "--out", str(out))
        assert code == 0
        assert out.exists()
        assert out.read_bytes().startswith(b"P5\n5 5\n65535\n")
        assert (tmp_path / "map.csv").exists()


    @pytest.mark.parametrize("db_range", ["-40,0,5", "0,-40", "-20,-20", "nan,0", "-40"])
    def test_bad_db_range_is_a_usage_error_before_any_channel(self, tmp_path, monkeypatch,
                                                              capsys, db_range):
        made = []
        monkeypatch.setattr(chan, "synthesize_sample", lambda *a, **k: made.append(a))
        out = tmp_path / "map.pgm"
        with pytest.raises(SystemExit) as exc:
            main(["powermap", "--target", "0,1500", f"--db-range={db_range}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--db-range" in capsys.readouterr().err
        assert not made and not out.exists()


class TestCampaignCli:
    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        code = run_cli("campaign", "--out", str(out), "--extent-mm", "10",
                       "--resolution-mm", "5", "--positioners", "2", "--seed", "1")
        assert code == 0
        index = load_index(out / "index.csv")
        assert len(index) == 2 * 9


    def test_nan_positioner_error_is_refused(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        assert run_cli("campaign", "--out", str(out), "--extent-mm", "5", "--resolution-mm", "5",
                       "--positioner-error-mm", "nan") == 1
        assert "max_error_mm" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,addr", [("--capture-addr", "127.0.0.1:70000"),
                                           ("--positioner-addr", "127.0.0.1:-1"),
                                           ("--positioner-addr", "127.0.0.1:65536")])
    def test_out_of_range_port_is_a_usage_error(self, tmp_path, capsys, flag, addr):
        out = tmp_path / "campaign"
        with pytest.raises(SystemExit) as exc:
            run_cli("campaign", "--out", str(out), "--extent-mm", "5", "--resolution-mm", "5",
                    flag, addr)
        assert exc.value.code == 2
        assert addr in capsys.readouterr().err
        assert not out.exists()

    def test_origin_is_a_usage_error(self, tmp_path, capsys):
        # the tables' origins are fixed, so campaign takes no --origin-mm
        out = tmp_path / "campaign"
        with pytest.raises(SystemExit) as exc:
            run_cli("campaign", "--out", str(out), "--origin-mm", "500,2000")
        assert exc.value.code == 2
        assert "--origin-mm" in capsys.readouterr().err
        assert not out.exists()


class TestSnrFlags:
    @pytest.mark.parametrize("argv", [("synth", "--snr-db=nan"), ("synth", "--snr-db=-inf"),
                                      ("locate", "--query-snr-db=nan"),
                                      ("locate", "--query-snr-db=-inf"),
                                      ("schedule", "--snr-db=NaN")])
    def test_nan_and_minus_inf_are_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 2
        flag, value = argv[1].split("=")
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "INF", "none", "off"])
    def test_noiseless_spellings_accepted(self, value):
        args = build_parser().parse_args(["locate", "--out", "x", "--snr-db", value,
                                          "--query-snr-db", value])
        assert args.snr_db == args.query_snr_db == math.inf


class TestFileModes:
    @pytest.mark.parametrize("argv", [("synth", "--extent-mm", "20", "--resolution-mm", "10"),
                                      ("campaign", "--extent-mm", "5", "--resolution-mm", "5",
                                       "--positioners", "2")], ids=["synth", "campaign"])
    def test_files_get_0666_less_the_umask(self, tmp_path, argv):
        out = tmp_path / "out"
        umask = os.umask(0o027)
        try:
            assert run_cli(*argv, "--out", str(out)) == 0
        finally:
            os.umask(umask)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert "index.csv" in modes and len(modes) > 2
        assert set(modes.values()) == {0o666 & ~0o027}


class TestCampaignTcpPositioners:
    def test_campaign_with_tcp_positioner_drivers(self, tmp_path):
        out = tmp_path / "campaign"
        code = run_cli("campaign", "--out", str(out), "--extent-mm", "5",
                       "--resolution-mm", "5", "--positioner-addr", "127.0.0.1:0")
        assert code == 0
        assert len(load_index(out / "index.csv")) == 4

    @pytest.mark.parametrize("env", ["CSI_CAPTURE_ADDR", "CSI_POSITIONER_ADDR"])
    def test_malformed_address_env_var_is_a_campaign_usage_error(self, tmp_path, monkeypatch,
                                                                 capsys, env):
        monkeypatch.setenv(env, "nonsense")
        with pytest.raises(SystemExit) as exc:
            run_cli("campaign", "--out", str(tmp_path / "campaign"), "--extent-mm", "5",
                    "--resolution-mm", "5")
        assert exc.value.code == 2
        assert "nonsense" in capsys.readouterr().err
        assert not (tmp_path / "campaign").exists()

    def test_positioner_env_var_honoured(self, tmp_path, monkeypatch):
        from mamimo.cli import POSITIONER_ADDR_ENV

        monkeypatch.setenv(POSITIONER_ADDR_ENV, "127.0.0.1:0")
        out = tmp_path / "campaign"
        assert run_cli("campaign", "--out", str(out), "--extent-mm", "5",
                       "--resolution-mm", "5") == 0
        assert (out / "index.csv").exists()


class TestScatterers:
    def test_synth_with_scatterer_file(self, tmp_path):
        scatterers = tmp_path / "scatterers.csv"
        scatterers.write_text("x_mm,y_mm,z_mm,gamma_re,gamma_im\n500,1200,900,0.4,-0.2\n")
        out = tmp_path / "ds"
        code = run_cli("synth", "--out", str(out), "--extent-mm", "10",
                       "--resolution-mm", "10", "--scatterers", str(scatterers))
        assert code == 0
        plain = tmp_path / "plain"
        assert run_cli("synth", "--out", str(plain), "--extent-mm", "10",
                       "--resolution-mm", "10") == 0
        assert ((out / "000000.bin").read_bytes()
                != (plain / "000000.bin").read_bytes())

    def test_powermap_target_includes_scatterers(self, tmp_path, monkeypatch):
        # the precoder must come from the same multipath channel as the grid
        scatterers = tmp_path / "scatterers.csv"
        scatterers.write_text("x_mm,y_mm,z_mm,gamma_re,gamma_im\n500,1200,900,0.4,-0.2\n")
        targets = []
        real = dsp.power_map

        def spy(grid, samples, target, **kwargs):
            targets.append(target)
            return real(grid, samples, target, **kwargs)

        monkeypatch.setattr(dsp, "power_map", spy)
        assert run_cli("powermap", "--target", "0,1510", "--extent-mm", "50",
                       "--resolution-mm", "25", "--scatterers", str(scatterers),
                       "--out", str(tmp_path / "map.pgm")) == 0
        pos = Position3(0.0, 1510.0, DEFAULT_HEIGHT_MM)
        ura, radio = build_topology("ura"), RadioConfig()
        expected = chan.multipath_channel(ura, pos, radio, chan.ChannelConfig(),
                                          chan.load_scatterers(scatterers)).h
        np.testing.assert_array_equal(targets[0].h, expected)
        assert not np.allclose(chan.los_channel(ura, pos, radio).h, expected)


# an unclosed pipe or socket fails the test instead of passing silently
@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
class TestServeCaptureProcess:
    def test_standalone_service_process(self, tmp_path):
        import socket
        import subprocess
        import sys
        import time

        from mamimo.campaign import ACK

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        out = tmp_path / "captures"
        # leaving the with block closes the pipes
        with subprocess.Popen(
                [sys.executable, "-m", "mamimo", "serve-capture",
                 "--addr", f"127.0.0.1:{port}", "--out", str(out),
                 "--position", "0,1500"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                reply = b""
                for _ in range(100):
                    time.sleep(0.05)
                    try:
                        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
                            sock.sendall(b"proc01")
                            reply = sock.recv(1)
                        break
                    except OSError:
                        continue
                assert reply == ACK
                assert (out / "proc01.bin").exists()
            finally:
                proc.terminate()
                proc.wait(timeout=10)

    def test_ctrl_c_stops_the_service_cleanly(self, tmp_path):
        import signal
        import socket
        import subprocess
        import sys

        with subprocess.Popen(
                [sys.executable, "-m", "mamimo", "serve-capture", "--addr", "127.0.0.1:0",
                 "--out", str(tmp_path / "captures")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                banner = proc.stdout.readline()  # printed once the service accepts
                port = int(banner.split(",")[0].rpartition(":")[2])
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=5) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            assert "Traceback" not in proc.stderr.read()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()


class TestScheduleCli:
    def test_schedule_outputs_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "schedule.csv"
        code = run_cli("schedule", "--users", "8", "--group-size", "2",
                       "--seed", "5", "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "def" in text and "sus" in text and "random" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "group_id,user_id,x_mm,y_mm"
        assert len(lines) == 9


    @pytest.mark.parametrize("power", ["--noise-power", "--tx-power"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_power_is_refused(self, tmp_path, capsys, power, value):
        out = tmp_path / "schedule.csv"
        assert run_cli("schedule", "--users", "2", "--group-size", "2", power, value,
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "powers must be finite" in captured.err and "bits/s/Hz" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("roi", ["nan", "inf", "-inf"])
    def test_non_finite_roi_is_a_usage_error(self, tmp_path, capsys, roi):
        with pytest.raises(SystemExit) as exc:
            run_cli("schedule", f"--roi-mm={roi}", "--out", str(tmp_path / "schedule.csv"))
        assert exc.value.code == 2
        assert "--roi-mm" in capsys.readouterr().err


class TestLocateCli:
    def test_leave_one_out_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli("locate", "--extent-mm", "40", "--resolution-mm", "10",
                       "--k", "4", "--loo", "--out", str(out))
        assert code == 0
        assert "mean" in capsys.readouterr().out
        assert out.read_text().startswith("sample_id,err_mm")

    def test_noisy_queries_and_db_export(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        db_path = tmp_path / "db.fpdb"
        code = run_cli("locate", "--extent-mm", "20", "--resolution-mm", "10",
                       "--query-snr-db", "25", "--seed", "2",
                       "--db-out", str(db_path), "--out", str(out))
        assert code == 0
        assert db_path.exists()


class TestDeterminism:
    def test_synth_repeats_byte_identical(self, tmp_path):
        args = ["synth", "--extent-mm", "20", "--resolution-mm", "10",
                "--snr-db", "15", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()
