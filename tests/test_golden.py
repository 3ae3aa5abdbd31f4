"""Replay the golden fixture: every cell must reproduce its recorded Summary
and every logged (snr, tx_gain, rx_gain) sample."""

import dataclasses
import json
import math

import pytest

from record_golden import GOLDEN_PATH, golden_cells, run_cell
from uavlink.simulation import summarize

GOLDEN = json.loads(GOLDEN_PATH.read_text())
REL_TOL = 1e-9
DB_TOL = 1e-9


def test_fixture_covers_the_recorded_grid():
    coords = [{k: c[k] for k in ("mission", "profile", "antennas", "rate_mbps", "placement")}
              for c in GOLDEN["cells"]]
    assert coords == golden_cells()


@pytest.mark.parametrize(
    "cell", GOLDEN["cells"],
    ids=lambda c: f"{c['mission']}-{c['profile']}-{c['antennas']}-"
                  f"{c['rate_mbps']:g}-{c['placement']}",
)
def test_cell_matches_golden(cell):
    log = run_cell(cell, GOLDEN["seed"], GOLDEN["window_s"])
    got = dataclasses.asdict(summarize(log))
    assert got.keys() == cell["summary"].keys()
    for name, want in cell["summary"].items():
        if isinstance(want, float):
            assert math.isclose(got[name], want, rel_tol=REL_TOL), name
        else:
            assert got[name] == want, name
    assert len(log.snr_series) == len(cell["samples"])
    for s, (snr, tx, rx) in zip(log.snr_series, cell["samples"]):
        assert abs(s.snr - snr) <= DB_TOL, s.t
        assert abs(s.tx_gain - tx) <= DB_TOL, s.t
        assert abs(s.rx_gain - rx) <= DB_TOL, s.t
