"""Smoke tests of the benchmark itself, on tiny windows.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs end to end and traced at a 0.05 s window against a
reference recorded in process for that window, so the tests need nothing
from reference.json and take about a minute.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import reference
import run
import tracer

ROOT = Path(run.__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_WINDOW_S = 0.05
SEED = 3

# Per-module metrics the benchmark promises to print with --trace 1.
REQUIRED_PER_LAYER = """
cli.import_s missions.synth_trace.calls missions.synth_trace.s campaign.build_scenario.s
campaign.cells campaign.cell_s.sum campaign.cell_s.max campaign.write_report.s
campaign.parallel_efficiency mobility.segment.calls mobility.segment.s
beamforming.gains.calls beamforming.gains.s beamforming.refreshes beamforming.pair_changes
beamforming.refresh_useful_ratio channel.shadowing.calls channel.shadowing.s
channel.outage_frac_sampled phy.bler.calls phy.bler.s phy.harq.calls phy.harq.s
phy.harq.delivered phy.harq.retransmit phy.harq.dropped phy.harq.success_ratio
simulation.run.s simulation.run.self_s simulation.slots simulation.packets.generated
simulation.packets.delivered simulation.packets.dropped_buffer simulation.packets.dropped_harq
simulation.packets.in_flight simulation.delivery_ratio simulation.log_mb
simulation.summarize.s simulation.write_packet_log.s simulation.write_packet_log.mb
simulation.write_snr_trace.s simulation.write_snr_trace.mb trace.overhead_frac
""".split()


def tiny(name):
    workload = dataclasses.replace(run.WORKLOADS[name], window_s=TINY_WINDOW_S)
    return workload, reference.workload_cells(workload, SEED, TINY_WINDOW_S)


def printed_result(capsys, runner, metrics):
    run.report(metrics, runner)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.UNITS
    assert set(REQUIRED_PER_LAYER) <= set(tracer.UNITS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_its_unit(name, trace, capsys):
    workload, cells = tiny(name)
    runner = run.Runner(workload, SEED, ROOT, cells)
    metrics = run.measure(runner, 0.0, trace)
    lines, result = printed_result(capsys, runner, metrics)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    assert not runner.work.exists()


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_and_untraced_summaries_are_identical(name, tmp_path):
    workload, cells = tiny(name)
    summaries = []
    for traced in (False, True):
        rep = tmp_path / f"traced{int(traced)}"
        args = workload.cli_args(SEED, rep / "out", workers=1)
        argv = run.traced_command(args, rep / "t.json") if traced else run.cli_command(args)
        assert run.launch(argv, ROOT, rep).returncode == 0
        summaries.append(run.read_output(workload, rep / "out", cells, TINY_WINDOW_S, SEED))
    assert summaries[0] == summaries[1]
    assert set(summaries[0]) == set(cells)
    for key, got in summaries[0].items():
        assert run.mismatches(got, cells[key], TINY_WINDOW_S) == []


def test_every_wrapped_function_is_restored(tmp_path):
    import uavlink.cli

    probe = tracer.Probe()
    patched = tracer.install(probe)
    originals = [(owner, name, original) for owner, name, original in patched]
    assert all(vars(owner)[name] is not original for owner, name, original in originals)
    try:
        for name in ("gigabit-orbit", "sweep-matrix"):
            workload = run.WORKLOADS[name]
            args = workload.cli_args(SEED, tmp_path / name, window_s=TINY_WINDOW_S, workers=1)
            assert uavlink.cli.main(args) == 0
    finally:
        assert tracer.uninstall(patched) == []
    assert all(vars(owner)[name] is original for owner, name, original in originals)
    metrics = probe.metrics(0.0)
    assert metrics["campaign.cells"] == 24
    assert metrics["beamforming.gains.calls"] > 0
    assert metrics["simulation.run.self_s"] > 0


def test_output_mismatch_counts_as_failed():
    workload, cells = tiny("gigabit-orbit")
    (key, ref), = cells.items()
    wrong = dict(ref, delivered=ref["delivered"] + 1)
    got = {f: ref[f] for f in ("generated", "delivered", "throughput_bps", "mean_latency_s")}
    assert run.mismatches(got, ref, TINY_WINDOW_S) == []
    assert run.mismatches(got, wrong, TINY_WINDOW_S) != []
    assert run.mismatches(None, ref, TINY_WINDOW_S) == ["output files missing"]


def test_calibration_recorded_in_the_reference():
    recorded = json.loads(run.REFERENCE_PATH.read_text())["calibration"]
    assert len(recorded) == len(reference.CALIBRATION)
    for cell in recorded:
        for field, (want, tol) in cell["expected"].items():
            assert abs(cell[field] - want) <= tol
