import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uavlink import campaign
from uavlink.campaign import REPORT_CSV_HEADER
from uavlink.cli import main
from uavlink.missions import archetype_by_name
from uavlink.mobility import TRACE_CSV_HEADER, read_trace_csv
from uavlink.phy import PROFILES
from uavlink.simulation import BS_OFFSETS


def test_synth_trace_writes_csv(tmp_path, capsys):
    rc = main([
        "synth-trace", "--mission", "overwatch-orbit", "--duration-s", "30",
        "--seed", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    path = tmp_path / "trace_overwatch_orbit.csv"
    assert path.exists()
    trace = read_trace_csv(path)
    assert len(trace.t) == 31


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


def test_simulate_from_padded_header_trace(tmp_path, capsys):
    main(["synth-trace", "--mission", "overwatch-orbit", "--duration-s", "5",
          "--out", str(tmp_path)])
    rows = (tmp_path / "trace_overwatch_orbit.csv").read_text().splitlines(keepends=True)[1:]
    padded = tmp_path / "padded.csv"
    padded.write_text(", ".join(TRACE_CSV_HEADER) + "\n" + "".join(rows))
    rc = main(["simulate", "--trace", str(padded), "--decimate-s", "0", "--window-s", "0.1",
               "--out", str(tmp_path / "run")])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "run" / "padded_snr.csv").exists()


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
    assert capsys.readouterr().err == "error: simulate needs --trace or --mission\n"


def test_simulate_requires_out(capsys):
    rc = main(["simulate", "--mission", "overwatch-orbit"])
    assert rc == 1
    assert capsys.readouterr().err == "error: simulate needs --out (flag or config file)\n"


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


def test_unknown_mission_message_has_one_wording(tmp_path, capsys):
    rc = main(["synth-trace", "--mission", "bogus", "--out", str(tmp_path)])
    with pytest.raises(ValueError) as lookup:
        archetype_by_name("bogus")
    assert rc == 1
    assert capsys.readouterr().err == f"error: {lookup.value}\n"
    assert str(lookup.value) == ("unknown mission kind 'bogus'; choose from overwatch_orbit, "
                                 "search_lawnmower, perimeter_patrol, target_follow")
    assert not any(tmp_path.iterdir())


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


def test_simulate_config_percent_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\nmission = overwatch-orbit\nrate-mbps = 5%\nwindow-s = 0.1\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "bad value '5%' for 'rate-mbps'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_simulate_config_percent_in_out_path_is_literal(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\nmission = overwatch-orbit\nwindow-s = 0.1\n"
                   f"out = {tmp_path / 'run_5%_%(x)s'}\n")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "run_5%_%(x)s" / "overwatch_orbit_snr.csv").exists()


SYNTH_TRACE_FLAGS = ("--area-m2", "--speed-ms", "--altitude-m", "--duration-s")


@pytest.mark.parametrize("flag, value", [
    ("--window-s", "inf"), ("--window-s", "nan"), ("--rate-mbps", "inf"), ("--rate-mbps", "nan"),
    ("--decimate-s", "inf"), ("--decimate-s", "nan"),
    *((flag, value) for flag in SYNTH_TRACE_FLAGS for value in ("inf", "nan")),
])
def test_non_finite_numbers_exit_one(tmp_path, capsys, flag, value):
    command = "synth-trace" if flag in SYNTH_TRACE_FLAGS else "simulate"
    rc = main([command, "--mission", "overwatch-orbit", flag, value, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "must be" in err
    assert not list(tmp_path.iterdir())
    if command == "synth-trace" or flag == "--decimate-s":  # the message names the field
        assert flag.split("-")[2] in err


@pytest.mark.parametrize("source", ["--mission", "--trace"])
def test_negative_decimate_exits_one(tmp_path, capsys, source):
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(",".join(row) + "\n" for row in [TRACE_CSV_HEADER, *GOOD_ROWS]))
    value = "overwatch-orbit" if source == "--mission" else str(trace)
    out = tmp_path / "out"
    rc = main(["simulate", source, value, "--decimate-s", "-3", "--window-s", "0.1",
               "--out", str(out)])
    assert rc == 1
    assert "decimate_s must be non-negative and finite, got -3.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    ("t_s,lat_deg,lon_deg,alt_m\n0.0,30.0,0.0,30.0\n", "expected header mission,profile"),
    (",".join(REPORT_CSV_HEADER) + "\noverwatch_orbit,lte,1x1,2.0\n", "line 2"),
])
def test_report_on_foreign_summary_exits_one(tmp_path, capsys, content, message):
    (tmp_path / "summary.csv").write_text(content)
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_report_reads_summary_with_byte_order_mark(tmp_path, capsys):
    # A summary.csv saved back by a spreadsheet as UTF-8 may start with a BOM.
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    bom.mkdir()
    assert main(["matrix", "--missions", "overwatch_orbit", "--profile", "lte",
                 "--rate-mbps", "2", "--window-s", "0.1", "--out", str(plain)]) == 0
    (bom / "summary.csv").write_bytes(b"\xef\xbb\xbf" + (plain / "summary.csv").read_bytes())
    capsys.readouterr()
    assert main(["report", "--out", str(plain)]) == 0
    expect = capsys.readouterr().out
    assert main(["report", "--out", str(bom)]) == 0
    assert capsys.readouterr().out == expect


def test_matrix_reports_every_failed_cell(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise ValueError("cell fails at run time")

    monkeypatch.setattr(campaign, "run", fail)
    rc = main([
        "matrix", "--missions", "overwatch_orbit", "--profile", "mmwave", "--antennas", "64x16",
        "--rate-mbps", "2,3", "--window-s", "0.1", "--out", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("cell failed:") == 2
    assert "nothing to report" not in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("profile, flag, value, message", [
    ("mmwave,lte", "--antennas", "64x16,bogus", "bad antenna combination 'bogus'"),
    ("lte", "--antennas", "bogus", "bad antenna combination 'bogus'"),
    ("mmwave,lte", "--rate-mbps", "10,-5", "source rate must be positive and finite"),
    ("lte", "--rate-mbps", "2,1e-320", "the packet interarrival time overflows"),
    ("lte", "--rate-mbps", "2,abc", "--rate-mbps 2,abc: could not convert string to float: 'abc'"),
    ("lte", "--rate-mbps", "2,", "--rate-mbps 2,: could not convert string to float: ''"),
])
def test_matrix_refuses_bad_axis_before_any_cell(tmp_path, capsys, profile, flag, value,
                                                 message):
    out = tmp_path / "out"
    rc = main(["matrix", "--missions", "overwatch_orbit", "--profile", profile, flag, value,
               "--window-s", "0.1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    if value == "2,1e-320":  # the refused rate is echoed as typed, in Mb/s
        assert "source rate 1e-320 Mb/s is too small" in err
    if value == "10,-5":
        assert "got -5.0 Mb/s" in err
    assert "cell failed" not in err
    assert not out.exists()


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
    # 1e12 b/s over 1e5 s: ~1.4e14 bytes of packet rows; 1e300 s: more slots than a
    # C ssize_t can count; 1e308 s at 1 Gb/s: more packets than a float can count.
    # Nothing is allocated.
    for rate, window in (("1e6", "1e5"), ("10", "1e300"), ("1000", "1e308")):
        rc = main([
            "simulate", "--mission", "overwatch-orbit", "--rate-mbps", rate,
            "--window-s", window, "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "physical memory" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", [["simulate", "--mission", "overwatch-orbit"],
                                     ["matrix", "--missions", "overwatch_orbit", "--profile",
                                      "mmwave,lte", "--antennas", "64x16"]],
                         ids=["simulate", "matrix"])
def test_larger_than_memory_is_one_short_error_before_any_cell(tmp_path, capsys, command):
    # Each ScenarioConfig refuses the run as it is built: a matrix prints one
    # error line, not a "cell failed" line per cell, and creates no directory.
    out = tmp_path / "out"
    rc = main([*command, "--rate-mbps", "2", "--window-s", "1e300", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "physical memory" in err
    assert len(err) < 300  # byte counts as 3 significant digits
    assert not out.exists()


def test_simulate_echoes_tiny_rate_in_mbps(tmp_path, capsys):
    rc = main(["simulate", "--mission", "overwatch-orbit", "--rate-mbps", "1e-320",
               "--window-s", "0.1", "--out", str(tmp_path)])
    assert rc == 1
    assert ("source rate 1e-320 Mb/s is too small: the packet interarrival time overflows"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_simulate_echoes_bad_rate_in_mbps(tmp_path, capsys):
    rc = main(["simulate", "--mission", "overwatch-orbit", "--rate-mbps", "-5",
               "--window-s", "0.1", "--out", str(tmp_path)])
    assert rc == 1
    assert "source rate must be positive and finite, got -5.0 Mb/s" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def run_cli_in_1gib(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child whose address space is capped at 1 GiB, so an
    allocation that slipped past a check ends in a MemoryError, not in an
    exhausted host."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "uavlink.cli", *args], capture_output=True,
                          text=True, env=env, preexec_fn=cap_address_space, timeout=120)


def test_simulate_large_array_runs_in_bounded_memory(tmp_path):
    # A 128x128 BS array: its beams are held as DFT bins, so the tracker's
    # memory does not grow with the square of the element count; an n x n
    # codebook would not fit in 1 GiB.
    out = tmp_path / "out"
    done = run_cli_in_1gib("simulate", "--mission", "overwatch-orbit", "--antennas", "16384x16",
                           "--window-s", "0.01", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert (out / "overwatch_orbit_snr.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_matrix_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--workers", workers, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--workers: must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("profile", list(PROFILES))
@pytest.mark.parametrize("placement", list(BS_OFFSETS))
def test_simulate_accepts_every_profile_and_placement(tmp_path, capsys, profile, placement):
    rc = main(["simulate", "--mission", "overwatch-orbit", "--profile", profile,
               "--bs", placement.replace("_", "-"), "--window-s", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "overwatch_orbit_snr.csv").exists()


@pytest.mark.parametrize("rates", ["2,2.00000001", "2,2"])
def test_matrix_refuses_cells_sharing_a_name(tmp_path, capsys, rates):
    # Both rates print as 2mbps: the second cell would overwrite the first's files.
    out = tmp_path / "out"
    rc = main(["matrix", "--missions", "overwatch_orbit", "--profile", "lte", "--rate-mbps",
               rates, "--bs", "on-premise", "--window-s", "0.2", "--out", str(out)])
    assert rc == 1
    assert "overwatch_orbit_lte_1x1_2mbps_on_premise_s0" in capsys.readouterr().err
    assert not out.exists()


def test_synth_trace_larger_than_memory_exits_one(tmp_path):
    # 1e12 waypoints, refused before any is allocated.
    out = tmp_path / "out"
    done = run_cli_in_1gib("synth-trace", "--duration-s", "1e12", "--out", str(out))
    assert done.returncode == 1
    assert "mission duration 1000000000000.0 s" in done.stderr
    assert "physical memory" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


# A well-formed trace and ways to break it, each of which alone makes it malformed.
GOOD_ROWS = [["0.0", "30.0", "0.0", "30.0"], ["1.0", "30.0001", "0.0", "30.0"],
             ["2.5", "30.0002", "0.0001", "31.0"], ["4.0", "30.0001", "0.0002", "29.5"]]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "1e400", "-1e400"]
OUT_OF_RANGE = [["-1", "-1e-300"], ["90.5", "-91"], ["180.5", "-181"], ["-0.5", "-1e-300"]]
UNDECODABLE = [b"\xff", b"\xfe", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"]


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# No comma, quote or line break, so a cell stays one cell.
cell_text = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=8)


@st.composite
def malformed_trace_csv(draw) -> bytes:
    header = list(TRACE_CSV_HEADER)
    rows = [list(r) for r in GOOD_ROWS[:draw(st.integers(2, len(GOOD_ROWS)))]]
    flaw = draw(st.sampled_from(["header", "cell", "ragged", "time", "subnormal", "bytes",
                                 "short"]))
    if flaw == "header":
        i = draw(st.integers(0, 3))
        header[i] = draw(cell_text.filter(lambda t: t.strip() != header[i]))
    elif flaw == "cell":
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        rows[r][c] = draw(st.one_of(st.sampled_from(NON_FINITE), st.sampled_from(OUT_OF_RANGE[c]),
                                    cell_text.filter(_not_a_number)))
    elif flaw == "ragged":
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = rows[r][:draw(st.integers(1, 3))]
    elif flaw == "time":
        r = draw(st.integers(1, len(rows) - 1))
        back = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))  # 0.0: a repeated time
        rows[r][0] = repr(float(rows[r - 1][0]) - back)
    elif flaw == "subnormal":  # after t = 0.0: a step whose velocity overflows
        rows[1][0] = repr(draw(st.floats(5e-324, 2e-308)))
    elif flaw == "short":
        rows = rows[:draw(st.integers(0, 1))]
    data = "".join(",".join(line) + "\n" for line in [header, *rows]).encode()
    if flaw == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(UNDECODABLE)) + data[at:]
    return data


@settings(deadline=None, derandomize=True, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=malformed_trace_csv())
def test_malformed_trace_csv_is_refused(tmp_path, capsys, data):
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError):
        read_trace_csv(path)
    out = tmp_path / "out"
    rc = main(["simulate", "--trace", str(path), "--window-s", "0", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("encoding, line, byte", [("utf-16", 1, "0xff"), ("latin-1", 3, "0xe9")])
def test_trace_not_utf8_names_file_and_line(tmp_path, capsys, encoding, line, byte):
    # A spreadsheet's UTF-16 export, or a Latin-1 file with an accent in line 3.
    rows = [TRACE_CSV_HEADER, *GOOD_ROWS]
    rows[line - 1] = [*rows[line - 1][:3], rows[line - 1][3] + "\u00e9"]
    path = tmp_path / "trace.csv"
    path.write_bytes("".join(",".join(row) + "\n" for row in rows).encode(encoding))
    out = tmp_path / "out"
    rc = main(["simulate", "--trace", str(path), "--window-s", "0.1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: 'utf-8' codec can't decode byte {byte}")
    assert "Traceback" not in err
    assert not out.exists()


def test_trace_field_over_csv_limit_is_refused(tmp_path, capsys):
    # csv raises its own csv.Error, not a ValueError, past 131072 characters in a field.
    path = tmp_path / "trace.csv"
    path.write_text("t_s,lat_deg,lon_deg,alt_m\n0.0,30.0,0.0," + "3" * 200_000 + "\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--trace", str(path), "--window-s", "0.1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: field larger than field limit (131072)\n"
    assert not out.exists()


def test_simulate_refuses_non_finite_velocity(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,lat_deg,lon_deg,alt_m\n0.0,30.0,0.0,30.0\n1e-320,30.001,0.0,30.0\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--trace", str(path), "--out", str(out)])
    assert rc == 1
    assert "non-finite velocity in the step ending at t=1e-320" in capsys.readouterr().err
    assert not out.exists()


# Fuzzed INI files and flags: the simulate keys with good and hostile values,
# unknown keys, undecodable bytes, and missing or duplicate sections. Every
# window-s drawn is refused or at most 0.05 s, so each run stays short.
HOSTILE = ["%", "5%", "%(x)s", "", "nan", "inf", "1e400", "not a number"]
INI_VALUES = {
    "trace": ["{tmp}/good.csv", "{tmp}/missing.csv"],
    "mission": ["overwatch-orbit", "search_lawnmower", "orbit-the-moon"],
    "profile": list(PROFILES) + ["wifi"],
    "antennas": ["64x16", "1x1", "0x4"],
    "rate-mbps": ["2", "0.5", "1e-320", "-1"],
    "bs": ["on-premise", "distant-2km", "sideways"],
    "seed": ["0", "7", "-1"],
    "decimate-s": ["1", "0", "-1"],
    "window-s": ["0", "0.01", "0.05"],
}
UNKNOWN_KEYS = ["rate-mpbs", "config", "help", "%(x)s"]
FLAGS = [["--seed", "3"], ["--seed", "x"], ["--profile", "lte"], ["--profile", "wifi"],
         ["--window-s", "0.02"], ["--window-s", "nan"], ["--rate-mbps", "1e400"],
         ["--mission", "overwatch-orbit"], ["--trace", "{tmp}/missing.csv"]]


@st.composite
def fuzzed_config(draw) -> tuple[bytes, list[str]]:
    values = {key: draw(st.sampled_from([None, *good])) for key, good in INI_VALUES.items()}
    if values["trace"] is None and values["mission"] is None:
        values["mission"] = draw(st.sampled_from(INI_VALUES["mission"]))
    values["window-s"] = values["window-s"] or draw(st.sampled_from(INI_VALUES["window-s"]))
    values = {key: value for key, value in values.items() if value is not None}
    keys = list(values)
    duplicate, section, undecodable = None, "[scenario]", False
    for flaw in draw(st.lists(st.sampled_from(
            ["hostile", "unknown", "duplicate", "section", "bytes"]), max_size=2)):
        if flaw == "hostile":
            values[draw(st.sampled_from(keys))] = draw(st.sampled_from(HOSTILE))
        elif flaw == "unknown":
            values[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(st.sampled_from(HOSTILE + ["1"]))
        elif flaw == "duplicate":
            duplicate = draw(st.sampled_from(keys))
        elif flaw == "section":
            section = draw(st.sampled_from(["", "[other]", "[scenario]\n[scenario]"]))
        else:
            undecodable = True
    lines = [section, *(f"{key} = {value}" for key, value in values.items())]
    if duplicate:
        lines.append(f"{duplicate} = {values[duplicate]}")
    lines.append("out = {tmp}/" + draw(st.sampled_from(["run", "run%", "%(x)s"])))
    data = "".join(line + "\n" for line in lines).encode()
    if undecodable:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(UNDECODABLE)) + data[at:]
    flags = draw(st.lists(st.sampled_from(FLAGS), max_size=2))
    return data, [arg for flag in flags for arg in flag]


@settings(deadline=None, derandomize=True, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=fuzzed_config())
def test_fuzzed_config_exits_with_a_documented_code(tmp_path, capsys, drawn):
    data, flags = drawn
    tmp = str(tmp_path)
    (tmp_path / "good.csv").write_text(
        "".join(",".join(row) + "\n" for row in [TRACE_CSV_HEADER, *GOOD_ROWS]))
    cfg = tmp_path / "scenario.ini"
    cfg.write_bytes(data.replace(b"{tmp}", tmp.encode()))
    try:
        rc = main(["simulate", "--config", str(cfg), *(f.replace("{tmp}", tmp) for f in flags)])
    except SystemExit as exc:
        rc = exc.code
        assert rc == 2
    assert rc in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
