"""Trace-driven simulator of a UAV-to-base-station uplink: mobility, single-ray
mmWave/LTE channel, beam tracking, adaptive PHY/MAC, and PDCP metrics."""

from .beamforming import (
    ArrayConfig,
    Beam,
    BeamPair,
    BeamTracker,
    Geometry,
    beam_gain_db,
    best_beam_pair,
    dft_codebook,
    parse_antenna_combo,
    steering_vector,
)
from .campaign import ReportRow, RunMatrix, render_report, run_matrix
from .channel import (
    ChannelSample,
    LinkProfile,
    ShadowingField,
    doppler_shift,
    fspl_db,
    noise_floor_dbm,
    sample_channel,
)
from .missions import MissionArchetype, archetype_by_name, synth_trace
from .mobility import (
    FlightTrace,
    GeoPoint,
    MobilityState,
    Waypoint,
    decimate,
    latlon_to_xy,
    parse_trace,
    read_trace_csv,
    state_at,
    write_trace_csv,
)
from .phy import (
    McsEntry,
    RatProfile,
    TransportBlock,
    bler,
    default_mcs_table,
    harq_step,
    lte_profile,
    mmwave_profile,
    select_mcs,
    tb_bits,
)
from .simulation import (
    MetricsLog,
    ScenarioConfig,
    Summary,
    latency_series,
    pdcp_throughput,
    run,
    summarize,
)

__version__ = "0.1.0"
