"""Exception hierarchy for the EVEREST SDK reproduction.

Every subsystem raises exceptions derived from :class:`EverestError` so that
callers (notably the ``basecamp`` CLI) can distinguish SDK failures from
programming errors.
"""

from __future__ import annotations


class EverestError(Exception):
    """Base class for all SDK errors."""


class IRError(EverestError):
    """Malformed IR: failed verification, bad construction, bad traversal."""


class FrontendError(EverestError):
    """A language frontend (EKL, ConDRust, CFDlang) rejected a program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class TypeCheckError(FrontendError):
    """A frontend type/shape checker rejected a program."""


class OwnershipError(FrontendError):
    """The ConDRust ownership (move-semantics) checker rejected a program."""


class LoweringError(EverestError):
    """A dialect-to-dialect lowering could not handle an operation."""


class HLSError(EverestError):
    """The HLS engine could not schedule or bind a kernel."""


class PlatformError(EverestError):
    """Platform model misuse: unknown device, exhausted resources, bad port."""


class OlympusError(EverestError):
    """System-level architecture generation failed."""


class PipelineError(EverestError):
    """Compile-orchestration misuse: unknown stage, bad stage wiring."""


class RuntimeSchedulingError(EverestError):
    """The resource manager could not schedule or execute a task graph."""


class AutotunerError(EverestError):
    """mARGOt configuration or adaptation error."""


class AnomalyError(EverestError):
    """Anomaly-detection service configuration or data error."""


class WorkflowError(EverestError):
    """Workflow description or deployment error."""


class RequestRefused(EverestError):
    """A request field that breaks its row of ``basecamp serve``'s schema:
    the daemon's 400, the ``basecamp`` CLI's usage error."""
