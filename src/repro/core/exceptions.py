"""Exception hierarchy of the library.

Every exception raised on purpose by :mod:`repro` derives from
:class:`ReproError`, so that callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ModelError(ReproError):
    """An application, architecture or profile is malformed or inconsistent."""


class ProfileError(ModelError):
    """A WCET or failure-probability entry is missing from an execution profile."""


class MappingError(ReproError):
    """A process-to-node mapping is invalid for the given architecture."""


class SchedulingError(ReproError):
    """The scheduler could not construct a static schedule."""


class OptimizationError(ReproError):
    """A design-space exploration heuristic failed to produce any solution."""
