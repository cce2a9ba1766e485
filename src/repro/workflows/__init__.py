"""Workflow deployment (the LEXIS role, paper §IV).

A workflow described over HTTP is a ``POST /runtime`` request of the
daemon (:mod:`repro.basecamp.serve`), which builds a
:class:`WorkflowSpec` and deploys it with :class:`LexisPlatform`.
"""

from repro.workflows.lexis import (
    LexisPlatform,
    WorkflowSpec,
    WorkflowTask,
)

__all__ = ["LexisPlatform", "WorkflowSpec", "WorkflowTask"]
