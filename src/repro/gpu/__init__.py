"""Simulated-GPU substrate: device specs and the analytical timing model."""

from .calibrate import fit_device_spec
from .device import GP100, QUADRO_P5000, SMALL_GPU, DeviceSpec
from .perfmodel import (
    ASYNC_ISSUE_FRACTION,
    EvaluationTiming,
    LaunchTiming,
    WorkloadDims,
    price_launches,
    time_set_sizes,
)
from .simulator import (
    ShardTiming,
    SimulatedDevice,
    simulate_tree,
    simulated_speedup,
)

__all__ = [
    "DeviceSpec",
    "GP100",
    "QUADRO_P5000",
    "SMALL_GPU",
    "WorkloadDims",
    "LaunchTiming",
    "EvaluationTiming",
    "price_launches",
    "time_set_sizes",
    "ASYNC_ISSUE_FRACTION",
    "SimulatedDevice",
    "ShardTiming",
    "simulate_tree",
    "simulated_speedup",
    "fit_device_spec",
]
