"""Structured logging for campaign internals.

Every logger lives under the ``repro.`` namespace so one
:func:`configure_logging` call (driven by the CLI's ``--log-level`` /
``--log-json`` flags) controls the whole tree.  Call sites pass
structured fields through ``extra={"fields": {...}}`` — the formatters
render them as ``key=value`` pairs or as JSON objects, so degraded
paths (retries, injected faults, empty measurements) leave a
machine-readable record instead of failing silently.
"""

import json
import logging
from typing import Optional

ROOT_LOGGER = "repro"

LEVELS = ("debug", "info", "warning", "error")


def get_logger(name: str) -> logging.Logger:
    """A logger under the shared ``repro.`` namespace."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def _record_fields(record: logging.LogRecord) -> dict:
    fields = getattr(record, "fields", None)
    return fields if isinstance(fields, dict) else {}


class KeyValueFormatter(logging.Formatter):
    """``level=warning logger=repro.retry msg="retrying" attempt=2``"""

    def format(self, record: logging.LogRecord) -> str:
        parts = [
            f"level={record.levelname.lower()}",
            f"logger={record.name}",
            f'msg="{record.getMessage()}"',
        ]
        for key, value in _record_fields(record).items():
            parts.append(f"{key}={value}")
        if record.exc_info:
            parts.append(f'exc="{self.formatException(record.exc_info)}"')
        return " ".join(parts)


class JsonFormatter(logging.Formatter):
    """One JSON object per line, structured fields inlined."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        payload.update(_record_fields(record))
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=repr)


def configure_logging(
    level: str = "warning",
    json_output: bool = False,
    stream=None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree.

    Idempotent: replaces any handler installed by a previous call, so
    repeated CLI invocations in one process do not duplicate output.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from {LEVELS}")
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(getattr(logging, level.upper()))
    root.propagate = False
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonFormatter() if json_output else KeyValueFormatter())
    root.addHandler(handler)
    return root
