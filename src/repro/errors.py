"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A model, hardware, or plan configuration is invalid."""


class TopologyError(ConfigurationError):
    """An interconnect topology is malformed or a route does not exist."""


class PartitionError(ConfigurationError):
    """A pipeline stage partition is infeasible or malformed."""


class ScheduleError(ReproError):
    """A pipeline schedule violates its ordering constraints."""


class BacklogFullError(ReproError):
    """A submission would push a tenant's queued work past its cap."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class OutOfMemoryError(SimulationError):
    """A simulated device exceeded its memory capacity.

    Mirrors the red crossed marks in the paper's Figure 7/8: training
    jobs whose per-device footprint exceeds capacity fail to run.
    """

    def __init__(self, device: str, requested: int, in_use: int, capacity: int):
        self.device = device
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"device {device}: allocation of {requested} bytes exceeds capacity "
            f"({in_use} in use of {capacity})"
        )


class PlanError(ReproError):
    """A memory-saving plan is inconsistent with the graph it rewrites."""


class MappingError(ReproError):
    """Device-mapping search failed to produce a feasible mapping."""
