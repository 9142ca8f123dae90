"""Fault injection, stochastic failure schedules and detection."""

from repro.faults.injector import (EventSpec, FaultSpec, FaultInjector,
                                   GrayFaultSpec, GRAY_FAULT_KINDS,
                                   JoinSpec, LeaveSpec, simultaneous,
                                   staggered)
from repro.faults.detector import DetectorConfig, FailureDetector
from repro.faults.schedules import poisson_schedule, weibull_schedule

__all__ = [
    "EventSpec",
    "FaultSpec",
    "GrayFaultSpec",
    "GRAY_FAULT_KINDS",
    "JoinSpec",
    "LeaveSpec",
    "FaultInjector",
    "DetectorConfig",
    "FailureDetector",
    "simultaneous",
    "staggered",
    "poisson_schedule",
    "weibull_schedule",
]
