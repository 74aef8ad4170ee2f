"""Discrete-event simulation kernel: clock, processes, contention, metrics."""

from .engine import Engine, Event, Interrupted, Process, all_of
from .queueing import HeapEventQueue
from .resources import Pipe, Resource
from .timeline import HistogramStats, Timeline

__all__ = [
    "Engine",
    "Event",
    "HeapEventQueue",
    "HistogramStats",
    "Interrupted",
    "Pipe",
    "Process",
    "Resource",
    "Timeline",
    "all_of",
]
