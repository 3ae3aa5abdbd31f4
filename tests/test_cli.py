import pytest

from uavlink.campaign import REPORT_CSV_HEADER
from uavlink.cli import main
from uavlink.mobility import read_trace_csv


def test_synth_trace_writes_csv(tmp_path, capsys):
    rc = main([
        "synth-trace", "--mission", "overwatch-orbit", "--duration-s", "30",
        "--seed", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    path = tmp_path / "trace_overwatch_orbit.csv"
    assert path.exists()
    trace = read_trace_csv(path)
    assert len(trace.points) == 31


def test_simulate_from_trace_file(tmp_path, capsys):
    main(["synth-trace", "--mission", "perimeter-patrol", "--duration-s", "20",
          "--out", str(tmp_path)])
    rc = main([
        "simulate", "--trace", str(tmp_path / "trace_perimeter_patrol.csv"),
        "--profile", "mmwave", "--antennas", "64x16", "--rate-mbps", "2",
        "--bs", "on-premise", "--window-s", "0.5", "--seed", "9",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert (tmp_path / "run" / "trace_perimeter_patrol_packets.csv").exists()
    assert (tmp_path / "run" / "trace_perimeter_patrol_snr.csv").exists()


def test_simulate_from_mission(tmp_path, capsys):
    rc = main([
        "simulate", "--mission", "target-follow", "--rate-mbps", "2",
        "--window-s", "0.5", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "target_follow_snr.csv").exists()


def test_simulate_requires_input(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path)])
    assert rc == 1
    assert "needs --trace or --mission" in capsys.readouterr().err


def test_simulate_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(
        "[scenario]\nmission = overwatch-orbit\nrate-mbps = 2\nwindow-s = 0.5\n"
        f"out = {tmp_path / 'cfg_run'}\n"
    )
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "cfg_run" / "overwatch_orbit_snr.csv").exists()


def test_matrix_and_report(tmp_path, capsys):
    rc = main([
        "matrix", "--missions", "overwatch_orbit", "--profile", "mmwave,lte",
        "--antennas", "64x16", "--rate-mbps", "2", "--bs", "on-premise",
        "--window-s", "0.5", "--seed", "2", "--out", str(tmp_path),
    ])
    assert rc == 0
    table = capsys.readouterr().out
    assert "mmwave" in table and "lte" in table
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == table


def test_unknown_mission_exits_nonzero(tmp_path, capsys):
    rc = main(["simulate", "--mission", "orbit-the-moon", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_trace_file_exits_nonzero(tmp_path, capsys):
    rc = main(["simulate", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 1


def test_bad_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bs", "sideways", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_simulate_config_without_value_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(tmp_path), "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err


def test_simulate_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(
        "[scenario]\nmission = overwatch-orbit\nrate-mbps = 2\nwindow-s = 0.2\n"
        f"out = {tmp_path / 'cfg_run'}\n"
    )
    rc = main(["simulate", f"--config={cfg}"])
    assert rc == 0
    assert (tmp_path / "cfg_run" / "overwatch_orbit_snr.csv").exists()


def test_simulate_config_unknown_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\nmission = overwatch-orbit\nrate-mpbs = 2\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown key 'rate-mpbs'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag, value", [
    ("--window-s", "inf"), ("--window-s", "nan"), ("--rate-mbps", "inf"), ("--rate-mbps", "nan"),
])
def test_non_finite_numbers_exit_one(tmp_path, capsys, flag, value):
    rc = main(["simulate", "--mission", "overwatch-orbit", flag, value, "--out", str(tmp_path)])
    assert rc == 1
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    ("t_s,lat_deg,lon_deg,alt_m\n0.0,30.0,0.0,30.0\n", "expected header mission,profile"),
    (",".join(REPORT_CSV_HEADER) + "\noverwatch_orbit,lte,1x1,2.0\n", "line 2"),
])
def test_report_on_foreign_summary_exits_one(tmp_path, capsys, content, message):
    (tmp_path / "summary.csv").write_text(content)
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_matrix_reports_every_failed_cell(tmp_path, capsys):
    rc = main([
        "matrix", "--missions", "overwatch_orbit", "--profile", "mmwave", "--antennas", "0x4",
        "--rate-mbps", "2,3", "--window-s", "0.1", "--out", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("cell failed:") == 2
    assert "nothing to report" not in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("window", ["nan", "inf", "-1"])
def test_matrix_rejects_bad_window(tmp_path, capsys, window):
    rc = main([
        "matrix", "--missions", "overwatch_orbit", "--profile", "lte", "--rate-mbps", "2",
        f"--window-s={window}", "--out", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "sim_window must be non-negative and finite" in err
    assert "cell failed" not in err


def test_simulate_larger_than_memory_exits_one(tmp_path, capsys):
    # 1e12 b/s over 1e5 s: ~1.4e14 bytes of packet rows; nothing is allocated.
    rc = main([
        "simulate", "--mission", "overwatch-orbit", "--rate-mbps", "1e6", "--window-s", "1e5",
        "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "physical memory" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_matrix_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--workers", workers, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--workers: must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
