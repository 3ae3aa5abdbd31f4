import os

import pytest

from uavlink.campaign import (
    ReportRow,
    RunMatrix,
    bs_position_for,
    expand_cells,
    pool_size,
    read_report_csv,
    render_report,
    run_matrix,
    write_report_csv,
)
from uavlink.missions import MissionArchetype, synth_trace

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

    def test_cell_failure_does_not_abort_matrix(self, tmp_path):
        matrix = small_matrix(
            missions=MISSIONS[:1],
            profiles=["mmwave"],
            antenna_combos=["64x16", "0x4"],  # second combo is invalid
        )
        rows, errors = run_matrix(matrix, tmp_path)
        assert len(rows) == 1
        assert len(errors) == 1
        assert "0x4" in errors[0]
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


class TestPoolSize:
    def test_capped_by_cells_and_cpus(self):
        cpus = os.cpu_count() or 1
        assert pool_size(64, 3) == min(3, cpus)
        assert pool_size(10_000, 10_000) == cpus
        assert pool_size(1, 24) == 1

    def test_rejects_fewer_than_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            pool_size(0, 4)


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
