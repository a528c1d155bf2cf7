"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface:

* :class:`Simulator` — the event loop and virtual clock;
* :class:`Process` / :func:`spawn` — generator-based cooperative processes;
* :class:`Signal`, :class:`Delay`, :class:`Event` — coordination primitives;
* :class:`RngRegistry` — deterministic named randomness streams;
* time constants ``NS``, ``US``, ``MS``, ``SECOND`` and helpers.
"""

from .engine import SimulationError, Simulator
from .events import (
    Delay,
    Event,
    MS,
    NS,
    SECOND,
    Signal,
    US,
    format_ns,
    ns_from_seconds,
    seconds_from_ns,
)
from .process import Process, ProcessFailed, spawn
from .rng import RngRegistry, derive_seed

__all__ = [
    "Simulator",
    "SimulationError",
    "Process",
    "ProcessFailed",
    "spawn",
    "Signal",
    "Delay",
    "Event",
    "RngRegistry",
    "derive_seed",
    "NS",
    "US",
    "MS",
    "SECOND",
    "format_ns",
    "ns_from_seconds",
    "seconds_from_ns",
]
