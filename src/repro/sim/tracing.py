"""The library's logging layer.

:func:`trace` / :func:`get_logger` are the stdout-free diagnostic channel
for library code. Only CLIs ``print()``; library modules emit through the
``repro`` logging tree instead, which stays silent unless the application
configures a handler. (Message-level tracing — who talked to whom, when,
and why — is :mod:`repro.telemetry`'s job: spans, the per-transport
``stats`` ledger and ``telemetry.traces``.)
"""

from __future__ import annotations

import logging

__all__ = ["get_logger", "trace"]

#: Root of the library's logger tree; silent by default (no handler).
_ROOT_LOGGER_NAME = "repro"


def get_logger(name: str | None = None) -> logging.Logger:
    """Logger under the ``repro`` tree (``get_logger("sim")`` -> ``repro.sim``).

    Library code logs here instead of printing; applications opt in with
    ``logging.basicConfig`` or a handler on the ``repro`` logger.
    """
    if not name:
        return logging.getLogger(_ROOT_LOGGER_NAME)
    if name == _ROOT_LOGGER_NAME or name.startswith(_ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_LOGGER_NAME}.{name}")


def trace(message: str, *args: object) -> None:
    """Emit a debug-level diagnostic on the ``repro.sim`` logger.

    The drop-in replacement for ad-hoc ``print()`` debugging in library
    code::

        from repro.sim.tracing import trace
        engine.schedule(1.5, lambda: trace("fires at t=1.5"))
    """
    logging.getLogger(_ROOT_LOGGER_NAME + ".sim").debug(message, *args)
