from concurrent.futures import Future

import pytest

from uavlink import campaign, simulation
from uavlink.campaign import (
    ReportRow,
    RunMatrix,
    expand_cells,
    pool_size,
    read_report_csv,
    render_report,
    run_matrix,
    write_report_csv,
)
from uavlink.missions import MissionArchetype, synth_trace
from uavlink.simulation import (
    bs_position_for,
    channel_pass,
    mac_pass,
    physical_memory,
    run,
    run_bytes,
)

MISSIONS = [MissionArchetype(k, duration=30.0) for k in (
    "overwatch_orbit",
    "search_lawnmower",
    "perimeter_patrol",
    "target_follow",
)]


def small_matrix(**overrides):
    params = dict(
        missions=MISSIONS[:2],
        profiles=["mmwave", "lte"],
        antenna_combos=["64x16"],
        source_rates=[5e6],
        bs_placements=["on_premise"],
        seeds=[3],
        sim_window=0.5,
    )
    params.update(overrides)
    return RunMatrix(**params)


class TestMatrixShape:
    def test_full_grid_cardinality(self):
        # 4 missions x {mmwave 16x4, mmwave 64x16, lte} x one rate -> 12 cells.
        matrix = RunMatrix(
            missions=MISSIONS,
            profiles=["mmwave", "lte"],
            antenna_combos=["16x4", "64x16"],
            source_rates=[1000e6],
            bs_placements=["on_premise"],
            seeds=[0],
            sim_window=60.0,
        )
        assert len(expand_cells(matrix)) == 12

    def test_placement_axis(self):
        matrix = small_matrix(
            missions=MISSIONS[:1],
            profiles=["mmwave"],
            bs_placements=["on_premise", "distant_2km"],
        )
        assert len(expand_cells(matrix)) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty matrix axis"):
            small_matrix(profiles=[])

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            small_matrix(bs_placements=["rooftop"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile 'wifi', expected mmwave or lte"):
            small_matrix(profiles=["mmwave", "wifi"])

    @pytest.mark.parametrize("profiles", [["mmwave", "lte"], ["lte"]])
    @pytest.mark.parametrize("combo", ["bogus", "0x4"])
    def test_bad_antenna_combo_rejected(self, profiles, combo):
        # Refused even when every profile is LTE, whose cells run 1x1 and skip the axis.
        with pytest.raises(ValueError, match=repr(combo)):
            small_matrix(profiles=profiles, antenna_combos=["64x16", combo])

    def test_cell_name_clash_rejected_at_construction(self):
        # Both rates print as 2 Mb/s with :g, so both cells would write the same files.
        with pytest.raises(ValueError, match="matrix cells share a name"):
            small_matrix(source_rates=[2e6, 2.00000001e6])

    @pytest.mark.parametrize("combos", [["64x16", "64X16"], ["64x16", "064x16"]])
    def test_cells_sharing_grid_coordinates_rejected(self, combos):
        # Two spellings of one combination: the same cell twice, two identical summary rows.
        with pytest.raises(ValueError, match="matrix cells share a name or grid coordinates: "
                                             r"\[\('overwatch_orbit', 'mmwave', '64x16', 5.0"):
            small_matrix(missions=MISSIONS[:1], profiles=["mmwave"], antenna_combos=combos)

    @pytest.mark.parametrize("rate", [-5e6, 0.0, float("nan"), float("inf"), 1e-314])
    def test_bad_rate_rejected(self, rate):
        # 1e-314 b/s is positive and finite, but a 1500-byte packet's interarrival overflows.
        message = ("source rate 1e-320 Mb/s is too small: the packet interarrival time overflows"
                   if rate == 1e-314 else "source rate must be positive and finite")
        with pytest.raises(ValueError, match=message):
            small_matrix(source_rates=[10e6, rate])


class TestBsPlacement:
    def test_on_premise_is_centroid(self):
        trace = synth_trace(MISSIONS[0], seed=3)
        cx, cy, _ = trace.centroid()
        assert bs_position_for(trace, "on_premise") == (cx, cy, 25.0)

    def test_distant_is_2km_along_x(self):
        trace = synth_trace(MISSIONS[0], seed=3)
        on = bs_position_for(trace, "on_premise")
        far = bs_position_for(trace, "distant_2km")
        assert far[0] - on[0] == 2000.0
        assert far[1] == on[1]
        assert far[2] == 25.0


class TestRunMatrix:
    def test_writes_per_cell_and_summary(self, tmp_path):
        rows, errors = run_matrix(small_matrix(), tmp_path)
        assert errors == []
        assert len(rows) == 4  # 2 missions x {mmwave 64x16, lte}
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "report.txt").exists()
        snr_files = list(tmp_path.glob("*_snr.csv"))
        assert len(snr_files) == 4

    def test_lte_cells_force_single_antenna(self, tmp_path):
        rows, _ = run_matrix(small_matrix(missions=MISSIONS[:1]), tmp_path)
        lte = [r for r in rows if r.profile == "lte"]
        assert len(lte) == 1
        assert lte[0].antennas == "1x1"

    def test_antennas_coordinate_is_the_parsed_combo(self, tmp_path):
        # Files are named as the combo was typed; the report row holds the parsed arrays.
        matrix = small_matrix(missions=MISSIONS[:1], profiles=["mmwave"],
                              antenna_combos=["64X16"])
        rows, errors = run_matrix(matrix, tmp_path, packet_logs=True)
        assert errors == []
        assert [r.antennas for r in rows] == ["64x16"]
        assert read_report_csv(tmp_path / "summary.csv") == rows
        name = "overwatch_orbit_mmwave_64X16_5mbps_on_premise_s3"
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            f"{name}_packets.csv", f"{name}_snr.csv", "summary.csv"]

    def test_cell_failure_does_not_abort_matrix(self, tmp_path, monkeypatch):
        def run_but_fail_16x4(config):
            if config.bs_array.size == 16:
                raise ValueError("cell fails at run time")
            return run(config)

        monkeypatch.setattr(campaign, "run", run_but_fail_16x4)
        matrix = small_matrix(
            missions=MISSIONS[:1],
            profiles=["mmwave"],
            antenna_combos=["64x16", "16x4"],
        )
        rows, errors = run_matrix(matrix, tmp_path)
        assert [r.antennas for r in rows] == ["64x16"]
        assert len(errors) == 1
        assert "16x4" in errors[0] and "cell fails at run time" in errors[0]
        assert (tmp_path / "summary.csv").exists()

    def test_order_independent_outputs(self, tmp_path):
        # A worker pool reorders completion; every artifact must match a
        # serial run byte for byte.
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_matrix(small_matrix(), serial)
        run_matrix(small_matrix(), pooled, workers=2)
        for f in sorted(serial.iterdir()):
            assert (pooled / f.name).read_bytes() == f.read_bytes(), f.name

    def test_one_trace_synthesis_per_mission(self, tmp_path, monkeypatch):
        calls = []

        def counting_synth_trace(mission, seed):
            calls.append(mission.kind)
            return synth_trace(mission, seed=seed)

        monkeypatch.setattr(campaign, "synth_trace", counting_synth_trace)
        rows, errors = run_matrix(small_matrix(), tmp_path)  # 2 missions x {mmwave, lte}
        assert errors == [] and len(rows) == 4
        assert calls == ["overwatch_orbit", "search_lawnmower"]


    def test_rows_carry_their_seed(self, tmp_path):
        matrix = small_matrix(missions=MISSIONS[:1], profiles=["lte"], source_rates=[2e6],
                              seeds=[1, 2], sim_window=0.2)
        rows, errors = run_matrix(matrix, tmp_path)
        assert errors == []
        assert [(r.seed, r.window_s) for r in rows] == [(1, 0.2), (2, 0.2)]
        assert read_report_csv(tmp_path / "summary.csv") == rows
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert lines[0].split()[5:7] == ["seed", "window_s"]
        assert [line.split()[5] for line in lines[2:]] == ["1", "2"]


class TestRateGroups:
    """Cells that differ only in rate run as one job, one channel stage between them,
    and each writes what it writes when it runs alone."""

    AXES = dict(missions=MISSIONS[:1], profiles=["mmwave"], source_rates=[400e6, 5e6],
                bs_placements=["on_premise", "distant_2km"], sim_window=0.3)

    @pytest.fixture
    def channel_calls(self, monkeypatch):
        calls = []

        def counting_channel_pass(config, shadow):
            calls.append(config)
            return channel_pass(config, shadow)

        monkeypatch.setattr(simulation, "channel_pass", counting_channel_pass)
        return calls

    @staticmethod
    def alone(matrix, out):
        """Each cell's ReportRow from a plain ``run`` of its config, outside any group."""
        out.mkdir()
        return [campaign._execute_cell((*cell, str(out), True)) for cell in matrix.cells]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_cell_equals_its_run_alone(self, tmp_path, workers):
        matrix = small_matrix(**self.AXES)
        rows, errors = run_matrix(matrix, tmp_path / "matrix", workers=workers, packet_logs=True)
        assert errors == []
        assert rows == sorted(self.alone(matrix, tmp_path / "alone"))
        for name, *_ in matrix.cells:
            for kind in ("snr", "packets"):
                f = f"{name}_{kind}.csv"
                assert (tmp_path / "matrix" / f).read_bytes() == (tmp_path / "alone" / f).read_bytes()

    def test_one_channel_stage_per_group(self, tmp_path, channel_calls):
        matrix = small_matrix(**self.AXES)
        rows, errors = run_matrix(matrix, tmp_path)
        assert (len(rows), errors) == (4, [])
        assert [c.bs_position for c in channel_calls] == [
            config.bs_position for *_, config in matrix.cells if config.source_rate == 400e6]

    def test_a_failed_rate_fails_only_its_cell(self, tmp_path, monkeypatch, channel_calls):
        def mac_pass_but_fail_400(config, snr, harq_rng):
            if config.source_rate == 400e6:
                raise ValueError("mac fails")
            return mac_pass(config, snr, harq_rng)

        monkeypatch.setattr(simulation, "mac_pass", mac_pass_but_fail_400)
        matrix = small_matrix(**dict(self.AXES, bs_placements=["on_premise"]))
        rows, errors = run_matrix(matrix, tmp_path / "matrix")
        assert errors == ["overwatch_orbit_mmwave_64x16_400mbps_on_premise_s3: mac fails"]
        assert len(channel_calls) == 1  # the 5 Mb/s cell, after the failure, reuses it
        alone = small_matrix(**dict(self.AXES, source_rates=[5e6], bs_placements=["on_premise"]))
        assert rows == self.alone(alone, tmp_path / "alone")
        assert read_report_csv(tmp_path / "matrix" / "summary.csv") == rows

    def test_a_failed_group_job_fails_each_of_its_cells(self, tmp_path, monkeypatch):
        execute_group = campaign._execute_group

        def fail_distant_groups(jobs):
            if jobs[0][1][4] == "distant_2km":
                raise RuntimeError("pool broke")
            return execute_group(jobs)

        monkeypatch.setattr(campaign, "_execute_group", fail_distant_groups)
        rows, errors = run_matrix(small_matrix(**self.AXES), tmp_path)
        assert [(r.rate_mbps, r.placement) for r in rows] == [(5.0, "on_premise"),
                                                              (400.0, "on_premise")]
        assert errors == [f"overwatch_orbit_mmwave_64x16_{rate}mbps_distant_2km_s3: pool broke"
                          for rate in (400, 5)]


    @pytest.mark.parametrize("workers, channel_stages", [(2, 2), (4, 4)])
    def test_fewer_groups_than_workers_are_split_to_fill_the_pool(
            self, tmp_path, monkeypatch, channel_calls, workers, channel_stages):
        # One group of four rates: each worker gets a job, and a job of two rates runs
        # one channel stage. The pool runs its jobs in process here, on a 4-CPU host.
        class InlinePool:
            def __init__(self, max_workers):
                assert max_workers == workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, jobs):
                submitted.append([name for name, *_ in jobs])
                future = Future()
                future.set_result(fn(jobs))
                return future

        submitted = []
        monkeypatch.setattr(campaign, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(campaign, "usable_cpus", lambda: 4)
        matrix = small_matrix(**dict(self.AXES, source_rates=[10e6, 100e6, 400e6, 1000e6],
                                     bs_placements=["on_premise"]))
        rows, errors = run_matrix(matrix, tmp_path / "matrix", workers=workers)
        names = [name for name, *_ in matrix.cells]
        assert sorted(map(len, submitted)) == [4 // workers] * workers
        assert sorted(sum(submitted, [])) == sorted(names)
        assert all(job == [n for n in names if n in job] for job in submitted)  # grid order
        assert len(channel_calls) == channel_stages
        assert errors == [] and rows == sorted(self.alone(matrix, tmp_path / "alone"))


class TestSplitGroups:
    @pytest.mark.parametrize("sizes, workers, jobs", [
        ([2] * 12, 2, [2] * 12),  # the sweep matrix: more groups than workers, none split
        ([4, 4, 4], 2, [4, 4, 4]),
        ([4], 1, [4]),
        ([4], 2, [2, 2]),
        ([4], 4, [1, 1, 1, 1]),
        ([5, 1], 4, [1, 1, 2, 2]),
        ([3, 2], 5, [1, 1, 1, 1, 1]),
    ])
    def test_halves_the_largest_until_a_job_a_worker(self, sizes, workers, jobs):
        cells = iter(range(sum(sizes)))
        groups = [[next(cells) for _ in range(n)] for n in sizes]
        got = campaign.split_groups(groups, workers)
        assert sorted(map(len, got)) == jobs
        assert sorted(sum(got, [])) == list(range(sum(sizes)))
        assert all(any(job == g[i:i + len(job)] for g in groups for i in range(len(g)))
                   for job in got)  # a run of one group's cells, in their order


class TestPoolSize:
    def test_capped_by_cells_and_cpus(self):
        cpus = campaign.usable_cpus()
        assert pool_size(64, 3, 1.0) == min(3, cpus)
        assert pool_size(10_000, 10_000, 1.0) == cpus
        assert pool_size(1, 24, 1.0) == 1

    def test_capped_by_the_cpus_this_process_may_run_on(self, monkeypatch):
        # As under ``taskset -c 0`` on a larger host: one CPU in the affinity mask.
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(campaign.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert campaign.usable_cpus() == 1
        assert pool_size(2, 24, 1.0) == 1

    def test_rejects_fewer_than_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            pool_size(0, 4, 1.0)

    def test_cells_that_do_not_fit_together_run_one_at_a_time(self, monkeypatch, tmp_path):
        # Built, never run: two 1 Gb/s cells, 1000 and 1001 Mb/s, whose window makes
        # each need about 0.6 of this host's physical memory. Each passes the
        # refusal of a single run, but two at once would not fit.
        physical = physical_memory()  # os.sysconf's page size times physical pages
        gigabit = dict(missions=MISSIONS[:1], profiles=["mmwave"], source_rates=[1000e6, 1001e6])
        per_s = sum(run_bytes(small_matrix(**gigabit, sim_window=1.0).cells[1][2]))
        matrix = small_matrix(**gigabit, sim_window=round(0.6 * physical / per_s))
        need = [sum(run_bytes(config)) for *_, config in matrix.cells]
        assert all(0.55 * physical < b < 0.65 * physical for b in need)
        assert pool_size(2, 2, 1.0) == min(2, campaign.usable_cpus())
        assert pool_size(2, 2, max(need)) == 1
        # So run_matrix starts no pool and runs the cells (stubs here) one at a time.
        monkeypatch.setattr(campaign, "ProcessPoolExecutor",
                            lambda **_: pytest.fail("a pool was started"))
        monkeypatch.setattr(campaign, "_execute_cell",
                            lambda job: ReportRow(*job[1], 0.0, 0.0, 0.0, 0.0))
        rows, errors = run_matrix(matrix, tmp_path, workers=2)
        assert (len(rows), errors) == (2, [])


class TestReport:
    row = ReportRow(
        mission="overwatch_orbit",
        profile="mmwave",
        antennas="64x16",
        rate_mbps=1000.0,
        placement="on_premise",
        seed=0,
        window_s=60.0,
        throughput_mbps=1018.6666,
        mean_latency_ms=0.1871,
        p99_latency_ms=0.25,
        loss_frac=0.0,
    )

    def test_single_row_table(self):
        text = render_report([self.row])
        lines = text.splitlines()
        assert len(lines) == 3  # header, rule, one data row
        assert lines[0].startswith("mission")
        assert "1018.67" in lines[2]

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            render_report([])

    def test_csv_round_trip_exact(self, tmp_path):
        rows = [self.row, ReportRow("m2", "lte", "1x1", 10.0, "distant_2km", 7, 0.5,
                                    75.19391, 116.80661, 120.5, 0.926013)]
        path = tmp_path / "summary.csv"
        write_report_csv(rows, path)
        assert read_report_csv(path) == rows
