"""Workload registry.  Modules are imported on demand, inside the timed
set-up, so that ``cli_cold`` never imports the package under test into
the runner and the others pay for the import where a user would."""

from __future__ import annotations

import importlib

from base import Workload
from tracer import Tracer

__all__ = ["make_workload"]

_MODULES = {
    "stream_steady": ("sim_workloads", "StreamSteady"),
    "kernel_mix": ("sim_workloads", "KernelMix"),
    "cli_cold": ("cli_cold", "CliCold"),
    "state_plane": ("state_plane", "StatePlane"),
}


def make_workload(name: str, seed: int, src: str, tracer: Tracer) -> Workload:
    module, cls = _MODULES[name]
    return getattr(importlib.import_module(module), cls)(seed, src, tracer)
