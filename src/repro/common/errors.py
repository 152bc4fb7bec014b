"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class TraceFormatError(ReproError):
    """Raised when a trace is malformed (see :meth:`Trace.validate`)."""


class CapacityError(ReproError):
    """Raised when the simulated store runs out of physical space.

    This indicates a configuration problem (over-provisioning too small for
    the garbage-collection watermarks), never a normal runtime condition.
    """


class CheckpointError(ReproError):
    """Raised when a fleet checkpoint cannot be trusted: an unreadable or
    torn file, another summary schema, another fleet or shard geometry,
    or a report for a volume outside the shard."""


class ValidationError(ReproError):
    """Raised when the validation harness (``repro.validate``) cannot run a
    requested comparison — e.g. the oracle does not support a stochastic
    victim policy deterministically."""


class InvariantViolation(ReproError):
    """A cross-structure consistency invariant of the store was violated.

    Raised by :class:`repro.validate.audit.InvariantAuditor`; carries the
    name of the violated invariant so tests and operators can tell *which*
    law broke.
    """

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(f"invariant {invariant!r} violated: {detail}")
        self.invariant = invariant
        self.detail = detail
