"""Finite-key secure key lengths: ``core`` (SPS), ``wcp`` (decoy-state WCP)
and ``comparison`` (tuners, sweeps, boundary). Import each name from the
submodule that defines it. The two tuners stay bound here only because the
benchmark harness, ``perfbench/checks.py``, imports them from this package.
"""

from .comparison import optimized_sps_rate, optimized_wcp_rate
