"""Shared exception types and the one integer rule."""

import numpy as np


class FormatError(ValueError):
    """A JSON document violates one of the file-format contracts.

    ``path`` locates the offending key, e.g. ``counts[3].outcome``; empty
    for document-level problems.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self._message = message

    def __reduce__(self):
        # rebuilt from both arguments, so that a worker process can send it
        return type(self), (self.path, self._message)


class ConfigError(ValueError):
    """Invalid run configuration (bad ranges, unknown names, missing flags)."""


def integer(value, what: str) -> int:
    """``value`` as an int if it is an int or numpy integer, not a bool; else ConfigError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)
