"""Service layer: the :class:`Workspace` facade over batch, indexed and
streaming sDTW.

One stateful front door for the whole library (see
:mod:`repro.service.workspace` for the object model and the on-disk
layout, and :mod:`repro.service.config` for the declarative
configuration).
"""

from .config import (
    DEFAULT_WORKSPACE_CONFIG,
    EngineConfig,
    IndexConfig,
    ServingConfig,
    WorkspaceConfig,
)
from .doctor import DoctorCheck, DoctorReport, run_doctor
from .workspace import Workspace, WorkspaceQueryResult

__all__ = [
    "DEFAULT_WORKSPACE_CONFIG",
    "DoctorCheck",
    "DoctorReport",
    "EngineConfig",
    "IndexConfig",
    "ServingConfig",
    "Workspace",
    "WorkspaceConfig",
    "WorkspaceQueryResult",
    "run_doctor",
]
