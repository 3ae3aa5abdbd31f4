"""Trace-driven simulator of a UAV-to-base-station uplink: mobility, single-ray
mmWave/LTE channel, beam tracking, adaptive PHY/MAC, and PDCP metrics.

Names are imported from the module that defines them, e.g.
``from uavlink.simulation import run``."""

__version__ = "0.1.0"
