"""Priority-scheduled parameter synchronization: runtime, baseline, and simulator."""

__version__ = "0.1.0"
