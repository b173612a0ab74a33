"""Antipattern workload suite: config, shared state, handlers, HTTP service."""
import importlib

from .config import (
    DEFAULT_ITERATIONS,
    DEFAULT_USERS,
    SLUG_TO_KIND,
    AntipatternKind,
    WorkloadConfig,
    default_config,
)

# the server side loads on first use, so a process that only plans trials
# starts without the handlers, the fixture and http.server
_LAZY = {
    "handlers": ("WorkloadFailure", "WorkResponse"),
    "state": ("ServiceState", "make_state"),
    "service": ("dispatch", "execute", "run_service", "serve"),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AntipatternKind",
    "DEFAULT_ITERATIONS",
    "DEFAULT_USERS",
    "SLUG_TO_KIND",
    "ServiceState",
    "WorkResponse",
    "WorkloadConfig",
    "WorkloadFailure",
    "default_config",
    "dispatch",
    "execute",
    "make_state",
    "run_service",
    "serve",
]
